package mortar

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cluster"
	"repro/internal/plan"
	"repro/internal/runtime"
	"repro/internal/tslist"
	"repro/internal/tuple"
	"repro/internal/vclock"
	"repro/internal/wire"
)

// reconcileEveryBeats piggybacks the reconciliation hash on every n'th
// heartbeat ("reconciliation runs every third heartbeat", §7.1).
const reconcileEveryBeats = 3

// livenessMultiple: a neighbor is presumed unreachable after
// HeartbeatPeriod × livenessMultiple of silence.
const livenessMultiple = 2.5

// Config tunes the peer runtime. Defaults reproduce the paper's settings:
// 2-second heartbeats, netDist EWMA with alpha 10% and a TTL-down limit
// of 3.
type Config struct {
	// HeartbeatPeriod is the parent-to-child heartbeat interval.
	HeartbeatPeriod time.Duration
	// NetDistAlpha is the per-window EWMA weight of both halves of the
	// netDist estimate, the mean and the mean absolute deviation of how late
	// past a window's end its slowest contribution arrives (§4.3, footnote:
	// alpha = 10% worked well in practice). A time window's estimate folds
	// once a round of d windows, one per tree, at 1 − (1 − NetDistAlpha)^d.
	// A window waiting on its timer leaves at TE + netDist + 4·deviation, and
	// a round's slowest lag is capped at twice that hold (at least
	// MinTimeout) before it is folded: one straggler moves the deadline at
	// most toward twice the hold in force, never toward its own lateness.
	NetDistAlpha float64
	// MinTimeout and MaxTimeout clamp that deadline, measured from the
	// moment the entry opens: a window waits at least MinTimeout for its
	// stragglers and never longer than MaxTimeout.
	MinTimeout time.Duration
	MaxTimeout time.Duration
	// TimeoutSlack was a fixed wait added to every timeout. The deadline now
	// carries its own margin, so the only valid value is 0 and Validate
	// refuses any other; the field survives because bench/, which may not
	// change with the code it measures, compiles against it.
	TimeoutSlack time.Duration
	// TTLDownMax bounds flex-down steps before a tuple is dropped (§3.3).
	// Zero disables flex-down descent entirely (an ablation setting).
	TTLDownMax int
	// MaxStage caps the staged routing policy for ablations: 1 same-tree
	// only, 2 adds up*, 3 adds flex, 4 adds flex-down (the default).
	MaxStage int
	// Syncless selects age-based indexing (§5); false selects traditional
	// timestamp indexing for comparison.
	Syncless bool
	// SummaryHold was the per-hop staging hold. A summary now leaves the
	// moment it is routed (instance.send), so the only valid value is 0 and
	// Validate refuses any other; the field survives because bench/, which
	// may not change with the code it measures, compiles against it.
	SummaryHold time.Duration
}

// DefaultConfig returns the paper's evaluation settings.
func DefaultConfig() Config {
	return Config{
		HeartbeatPeriod: 2 * time.Second,
		NetDistAlpha:    0.10,
		MinTimeout:      100 * time.Millisecond,
		MaxTimeout:      60 * time.Second,
		TTLDownMax:      3,
		MaxStage:        4,
		Syncless:        true,
	}
}

// Validate normalizes the configuration and rejects nonsense. Zero-valued
// knobs pick up the paper defaults (so Config{} is usable), negative or
// out-of-range values are errors: without this a zero HeartbeatPeriod
// would panic the ticker once peers are long-lived live processes.
// TTLDownMax may legitimately be zero (an ablation uses it) and is only
// checked for sign; Syncless false is a meaningful mode, not a zero value.
func (c Config) Validate() (Config, error) {
	def := DefaultConfig()
	fill := func(v *time.Duration, d time.Duration, name string) error {
		if *v == 0 {
			*v = d
		}
		if *v < 0 {
			return fmt.Errorf("mortar: %s %v must be positive", name, *v)
		}
		return nil
	}
	if err := fill(&c.HeartbeatPeriod, def.HeartbeatPeriod, "HeartbeatPeriod"); err != nil {
		return c, err
	}
	if err := fill(&c.MinTimeout, def.MinTimeout, "MinTimeout"); err != nil {
		return c, err
	}
	if err := fill(&c.MaxTimeout, def.MaxTimeout, "MaxTimeout"); err != nil {
		return c, err
	}
	if c.MaxTimeout < c.MinTimeout {
		return c, fmt.Errorf("mortar: MaxTimeout %v < MinTimeout %v", c.MaxTimeout, c.MinTimeout)
	}
	if c.TimeoutSlack != 0 {
		return c, fmt.Errorf("mortar: TimeoutSlack %v must be 0: a window's deadline carries its own margin, there is no slack to set", c.TimeoutSlack)
	}
	if c.NetDistAlpha == 0 {
		c.NetDistAlpha = def.NetDistAlpha
	}
	if c.NetDistAlpha < 0 || c.NetDistAlpha > 1 {
		return c, fmt.Errorf("mortar: NetDistAlpha %v outside [0, 1]", c.NetDistAlpha)
	}
	if c.TTLDownMax < 0 {
		return c, fmt.Errorf("mortar: TTLDownMax %d must not be negative", c.TTLDownMax)
	}
	if c.MaxStage == 0 {
		c.MaxStage = def.MaxStage
	}
	if c.MaxStage < 1 || c.MaxStage > 4 {
		return c, fmt.Errorf("mortar: MaxStage %d outside 1..4", c.MaxStage)
	}
	if c.SummaryHold != 0 {
		return c, fmt.Errorf("mortar: SummaryHold %v must be 0: a summary leaves the moment it is routed, there is no hold to set", c.SummaryHold)
	}
	return c, nil
}

// Stats aggregates fabric-wide counters for the experiment harness. The
// counters are atomic because live-runtime peers increment them from
// concurrent goroutines.
type Stats struct {
	// ResultsReported counts results emitted by query roots.
	ResultsReported atomic.Uint64
	// ReportedComplete counts the results among them that a root reported
	// the moment every member was counted (instance.evictComplete); the
	// rest, ResultsReported - ReportedComplete, waited out their timeout.
	ReportedComplete atomic.Uint64
	// LateAtRoot counts summaries that reached the root after their window
	// had been reported (data lost to the result).
	LateAtRoot atomic.Uint64
	// Dropped counts tuples dropped by the routing policy (no live
	// destination or TTL exhausted), and arriving summaries a peer could
	// not merge (no wired instance, or a value without the operator's
	// shape).
	Dropped atomic.Uint64
	// Relayed counts tuples forwarded without merging (late at an interior
	// operator, §4.3 path).
	Relayed atomic.Uint64
	// FlexDownHops counts stage-4 descents.
	FlexDownHops atomic.Uint64
	// EpochsRetired counts completed epoch migrations: the root observed
	// the new epoch fully wired and multicast the old epoch's retirement.
	EpochsRetired atomic.Uint64
	// ControlBytes counts encoded bytes of every control-class message the
	// local peers transmitted (heartbeats, reconciliation, installs,
	// removes, topology, acks). With DataBytes it splits network load the
	// way the paper reports it — and its growth as queries are added is the
	// sub-linear sharing curve (Figure 13).
	ControlBytes atomic.Uint64
	// DataBytes counts encoded bytes of data-class messages (summary
	// envelopes).
	DataBytes atomic.Uint64
	// SharedCtlBytes is the portion of ControlBytes carried by the shared
	// mesh — heartbeats and pair-wise reconciliation — which every
	// installed query rides without adding messages of its own. The
	// remainder of ControlBytes is attributable to individual queries (see
	// Fabric.QueryTraffic).
	SharedCtlBytes atomic.Uint64
	// TuplesIngested counts raw sensor tuples fed into local peers via
	// Inject/InjectBatch; IngestBatches counts the mailbox hops that
	// carried them (an Inject is a batch of one). Their ratio is the
	// data-plane batching factor.
	TuplesIngested atomic.Uint64
	IngestBatches  atomic.Uint64
	// The upstream summary path (instance.send). SummariesStaged counts
	// summaries sent upstream, one data frame each; DataFrames counts
	// data-class frames transmitted, so the two are equal. The name stays
	// because bench/, the gateway JSON and the smoke scripts read it.
	// SummariesCoalesced, BatchFrames and BatchedSummaries are never
	// incremented — nothing merges, and no batch is sent — and survive only
	// because bench/ compiles against them.
	SummariesStaged    atomic.Uint64
	SummariesCoalesced atomic.Uint64
	DataFrames         atomic.Uint64
	BatchFrames        atomic.Uint64
	BatchedSummaries   atomic.Uint64
}

// QueryTraffic counts the bytes the local peers have transmitted on behalf
// of one named query: install/remove multicasts, topology service traffic,
// and install acks on the control side; summary envelopes on the data
// side. Heartbeats and reconciliation are deliberately absent — they are
// the shared mesh, accounted in Stats.SharedCtlBytes.
type QueryTraffic struct {
	ControlBytes atomic.Uint64
	DataBytes    atomic.Uint64
}

// Fabric is a Mortar federation: one peer per runtime slot. The same fabric
// code runs single-threaded inside the discrete-event simulator
// (runtime/simrt) or with one goroutine per peer (runtime/netrt); which
// one is chosen by the runtime handed to NewFabric.
type Fabric struct {
	Rt  runtime.Runtime
	Cfg Config

	peers []*Peer
	tr    runtime.Transport
	rng   *rand.Rand

	// OnResult receives every root-reported result. Set it before
	// installing queries; under a live runtime it is invoked from the root
	// peer's goroutine and must be safe for that. To attach consumers
	// after queries are live, use Subscribe/SubscribeAll instead — those
	// are synchronized.
	OnResult func(Result)
	// Stats holds fabric-wide counters.
	Stats Stats
	// DataPath aggregates time-space list activity (inserts and in-place
	// merges) across every local instance; one shared atomic counter set
	// keeps the per-merge cost to two atomic adds.
	DataPath tslist.Counters

	subMu  sync.RWMutex
	subs   []subEntry
	subSeq uint64

	// trafMu guards the per-query traffic counter map; the counters
	// themselves are atomic, so the lock is only ever held for a map
	// lookup or insert.
	trafMu    sync.RWMutex
	queryTraf map[string]*QueryTraffic

	// batchMu guards batchFree, the fabric's pool of raw-tuple batch
	// slices: drivers draw from it with GetRawBatch and the peer recycles
	// every InjectBatch's slice once its tuples are absorbed, so a
	// steady-state ingest driver allocates nothing per batch.
	batchMu   sync.Mutex
	batchFree [][]tuple.Raw
}

// subEntry is one registered result subscriber; the id makes the
// subscription cancelable.
type subEntry struct {
	id uint64
	fn func(Result)
}

// emitResult fans a root result out to the OnResult hook and to every
// registered subscriber.
func (f *Fabric) emitResult(r Result) {
	if f.OnResult != nil {
		f.OnResult(r)
	}
	f.subMu.RLock()
	subs := f.subs
	f.subMu.RUnlock()
	for _, s := range subs {
		s.fn(r)
	}
}

// NewFabric creates one peer per runtime slot. clocks may be nil (perfect
// clocks) or one per peer. cfg is validated; zero-valued knobs pick up
// paper defaults — except the boolean Syncless, which a zero Config
// leaves false (timestamp indexing). Start from DefaultConfig() for the
// paper's syncless mode.
func NewFabric(rt runtime.Runtime, clocks []vclock.Clock, cfg Config) (*Fabric, error) {
	cfg, err := cfg.Validate()
	if err != nil {
		return nil, err
	}
	n := rt.NumPeers()
	if n == 0 {
		return nil, fmt.Errorf("mortar: runtime has no peers")
	}
	if clocks != nil && len(clocks) != n {
		return nil, fmt.Errorf("mortar: %d clocks for %d peers", len(clocks), n)
	}
	f := &Fabric{
		Rt:        rt,
		Cfg:       cfg,
		tr:        rt.Transport(),
		rng:       rt.Rand(),
		queryTraf: map[string]*QueryTraffic{},
	}
	for i := 0; i < n; i++ {
		ck := vclock.Perfect()
		if clocks != nil {
			ck = clocks[i]
		}
		p := newPeer(f, i, rt.Clock(i), ck)
		f.peers = append(f.peers, p)
		f.tr.Handle(i, p.deliver)
	}
	return f, nil
}

// NumPeers returns the federation size.
func (f *Fabric) NumPeers() int { return len(f.peers) }

// Peer returns the i'th peer.
func (f *Fabric) Peer(i int) *Peer { return f.peers[i] }

// SetDown disconnects (true) or reconnects (false) a peer.
func (f *Fabric) SetDown(i int, down bool) { f.tr.SetDown(i, down) }

// Down reports whether a peer is disconnected.
func (f *Fabric) Down(i int) bool { return f.tr.Down(i) }

// LiveCount returns the number of connected peers.
func (f *Fabric) LiveCount() int {
	n := 0
	for i := range f.peers {
		if !f.Down(i) {
			n++
		}
	}
	return n
}

// Inject delivers one raw sensor tuple to a peer's local source stream: an
// InjectBatch of one, in a pooled batch, so it allocates nothing in steady
// state.
func (f *Fabric) Inject(peer int, raw tuple.Raw) {
	f.InjectBatch(peer, append(f.GetRawBatch(1), raw))
}

// InjectBatch delivers a batch of raw sensor tuples to one peer's local
// source stream, from any goroutine, in a single Exec however many tuples
// the batch carries: on the live backends the calling goroutine absorbs
// the batch itself when the peer is idle, and otherwise queues it as one
// mailbox entry. Every tuple of the batch arrives at the one time the
// peer's windowing frame reads when it absorbs the batch; nothing writes
// the slice. Ownership of the slice transfers permanently: once the peer
// has absorbed the tuples the slice is recycled into the fabric's batch
// pool for the next GetRawBatch, so the caller must never touch a
// submitted slice again. An out-of-range peer panics on every backend (the
// live runtime's Exec would otherwise silently drop the batch).
func (f *Fabric) InjectBatch(peer int, raws []tuple.Raw) {
	p := f.ingestPeer(peer)
	if len(raws) == 0 {
		return
	}
	j, ok := ingestPool.Get().(*ingestJob)
	if !ok {
		j = new(ingestJob)
		j.run = j.deliver
	}
	j.p, j.raws = p, raws
	if !f.Rt.Exec(peer, j.run) {
		j.recycle()
	}
}

func (f *Fabric) ingestPeer(peer int) *Peer {
	if peer < 0 || peer >= len(f.peers) {
		panic(fmt.Sprintf("mortar: inject peer %d out of range [0,%d)", peer, len(f.peers)))
	}
	return f.peers[peer]
}

// ingestJob carries one InjectBatch into the peer's Exec. A closure
// over (peer, raws) would be a heap allocation per batch; a pooled job
// whose run func is bound once keeps the batch path allocation-free.
type ingestJob struct {
	p    *Peer
	raws []tuple.Raw
	run  func()
}

var ingestPool sync.Pool

func (j *ingestJob) deliver() {
	p, raws := j.p, j.raws
	j.recycle()
	p.injectRawBatch(raws)
	p.fab.putRawBatch(raws)
}

func (j *ingestJob) recycle() {
	j.p, j.raws = nil, nil
	ingestPool.Put(j)
}

// maxFreeBatches bounds the batch pool; beyond it, retired batches fall to
// the garbage collector.
const maxFreeBatches = 64

// GetRawBatch returns a zero-length batch with capacity for at least n
// raws, reusing a slice recycled by an earlier InjectBatch when one is
// available. Pooled batches are not cleared — they are meant to be filled
// by appending before submission. Using GetRawBatch makes a steady-state
// ingest driver allocation-free per batch; plain make works too, at one
// slice allocation (and its eventual GC scan) per batch.
func (f *Fabric) GetRawBatch(n int) []tuple.Raw {
	f.batchMu.Lock()
	for len(f.batchFree) > 0 {
		b := f.batchFree[len(f.batchFree)-1]
		f.batchFree = f.batchFree[:len(f.batchFree)-1]
		if cap(b) >= n {
			f.batchMu.Unlock()
			return b
		}
		// Too small for this request; drop it rather than let undersized
		// slices cycle forever.
	}
	f.batchMu.Unlock()
	return make([]tuple.Raw, 0, n)
}

// putRawBatch recycles an absorbed batch slice. Called from the peer's
// serialization domain once injectRawBatch returns: its instances have
// merged the batch, and every window that keeps a tuple keeps its own
// copy, so nothing refers to the slice any more.
func (f *Fabric) putRawBatch(b []tuple.Raw) {
	f.batchMu.Lock()
	if len(f.batchFree) < maxFreeBatches {
		f.batchFree = append(f.batchFree, b[:0])
	}
	f.batchMu.Unlock()
}

// framePool recycles the runtime.Frame envelopes handed to the transport,
// which copies what it keeps inside Send.
var framePool = sync.Pool{New: func() any { return new(runtime.Frame) }}

// send transmits a control or data message between peers over the runtime
// transport. The message is encoded exactly once here, into a pooled
// buffer: the encoded length is the size every backend charges, and the
// bytes travel alongside the decoded payload (runtime.Frame) to be
// transmitted without re-encoding. Every transport copies the bytes inside
// Send, so the frame and buffer are pooled and the steady-state transmit
// path is allocation-free on the fabric side. A message the codec cannot
// represent is dropped — an unencodable message could never cross a real
// wire.
func (f *Fabric) send(from, to int, class runtime.Class, payload any) {
	w := wire.GetBuffer()
	if err := wire.EncodeMessage(w, payload); err != nil {
		wire.PutBuffer(w)
		f.Stats.Dropped.Add(1)
		return
	}
	f.account(payload, class, w.Len())
	fr := framePool.Get().(*runtime.Frame)
	fr.Payload, fr.Bytes = payload, w.Bytes()
	f.tr.Send(from, to, class, w.Len(), fr)
	fr.Payload, fr.Bytes = nil, nil
	framePool.Put(fr)
	wire.PutBuffer(w)
}

// account attributes one transmitted message's encoded bytes: data bytes
// to the query whose summary the envelope carries, control bytes either to
// the query a management message names or to the shared mesh (heartbeats
// and reconciliation serve every installed query at once — the sharing the
// paper's sub-linear overhead claim rests on).
func (f *Fabric) account(payload any, class runtime.Class, size int) {
	sz := uint64(size)
	if class == runtime.ClassData {
		f.Stats.DataBytes.Add(sz)
		f.Stats.DataFrames.Add(1)
	} else {
		f.Stats.ControlBytes.Add(sz)
	}
	switch m := payload.(type) {
	case *envelope:
		f.queryTraffic(m.S.Query).DataBytes.Add(sz)
	case msgInstall:
		f.queryTraffic(m.Meta.Name).ControlBytes.Add(sz)
	case msgRemove:
		f.queryTraffic(m.Name).ControlBytes.Add(sz)
	case msgTopoRequest:
		f.queryTraffic(m.Query).ControlBytes.Add(sz)
	case msgTopoReply:
		f.queryTraffic(m.Query).ControlBytes.Add(sz)
	case msgInstallAck:
		f.queryTraffic(m.Query).ControlBytes.Add(sz)
	default:
		// Heartbeats and reconciliation summaries/defs: the shared mesh.
		if class == runtime.ClassControl {
			f.Stats.SharedCtlBytes.Add(sz)
		}
	}
}

// queryTraffic returns the named query's traffic counters, creating them on
// first use. Counters survive removal — they are a cumulative ledger, and
// the serving plane reports traffic for queries it has already torn down.
func (f *Fabric) queryTraffic(name string) *QueryTraffic {
	f.trafMu.RLock()
	qt := f.queryTraf[name]
	f.trafMu.RUnlock()
	if qt != nil {
		return qt
	}
	f.trafMu.Lock()
	defer f.trafMu.Unlock()
	if qt = f.queryTraf[name]; qt == nil {
		qt = &QueryTraffic{}
		f.queryTraf[name] = qt
	}
	return qt
}

// QueryTraffic reports the cumulative bytes the local peers have sent on
// behalf of one query (see the QueryTraffic type for what is and is not
// attributed). Safe from any goroutine.
func (f *Fabric) QueryTraffic(name string) (controlBytes, dataBytes uint64) {
	f.trafMu.RLock()
	qt := f.queryTraf[name]
	f.trafMu.RUnlock()
	if qt == nil {
		return 0, 0
	}
	return qt.ControlBytes.Load(), qt.DataBytes.Load()
}

// Compile plans a query over the given member peers (all peers when members
// is nil) using their network coordinates, producing bf-ary trees with a
// tree set of size d rooted at the issuing peer. Call from the driving
// goroutine (planning uses the runtime's unsynchronized random source).
func (f *Fabric) Compile(meta QueryMeta, members []int, coords []cluster.Point, bf, d int) (*QueryDef, error) {
	return f.CompileWith(meta, members, coords, bf, d, f.rng)
}

// CompileWith is Compile with an explicit random source, for callers that
// plan off the driving goroutine (the replanning monitor) and must not
// share the runtime's unsynchronized rng.
func (f *Fabric) CompileWith(meta QueryMeta, members []int, coords []cluster.Point, bf, d int, rng *rand.Rand) (*QueryDef, error) {
	if members == nil {
		members = make([]int, f.NumPeers())
		for i := range members {
			members[i] = i
		}
	}
	if len(coords) != len(members) {
		return nil, fmt.Errorf("mortar: %d coords for %d members", len(coords), len(members))
	}
	rootIdx := -1
	for i, m := range members {
		if m == meta.Root {
			rootIdx = i
			break
		}
	}
	if rootIdx < 0 {
		return nil, fmt.Errorf("mortar: root %d not in member set", meta.Root)
	}
	trees := plan.Build(coords, rootIdx, bf, d, rng)
	def := &QueryDef{Meta: meta, Trees: trees}
	def.Members = members
	return def, nil
}

// Install starts the chunked install multicast from the issuing peer
// (§6): the primary tree is broken into at most 17 connected components
// of about a sixteenth of the members each (buildChunks), each multicast
// in parallel down its tree edges, the same on every backend.
// Reconciliation guarantees eventual installation on nodes the multicast
// misses.
func (f *Fabric) Install(issuer int, def *QueryDef) error {
	if err := def.Validate(); err != nil {
		return err
	}
	if issuer != def.Meta.Root {
		return fmt.Errorf("mortar: issuer %d must host the root operator (root %d)", issuer, def.Meta.Root)
	}
	if !f.Rt.Exec(issuer, func() { f.peers[issuer].startInstall(def) }) {
		return fmt.Errorf("mortar: runtime is shut down")
	}
	return nil
}

// Remove multicasts removal of a query — every epoch of it — from the
// issuing peer, using the cached definition at the root for chunking. A
// removal whose seq does not exceed an instance's install seq is a
// documented no-op at every peer: a stale or replayed remove can never
// undo a newer install. Call from the driving goroutine, never from
// inside a peer callback.
func (f *Fabric) Remove(issuer int, name string, seq uint64) error {
	var err error
	if !runtime.ExecWait(f.Rt, issuer, func() {
		err = f.peers[issuer].startRemove(name, seq, wire.AllEpochs)
	}) {
		return fmt.Errorf("mortar: runtime is shut down")
	}
	return err
}

// Counts reports how many of this process's peers host the given epoch of
// the query and how many of those have it wired; with wire.AllEpochs a peer
// counts once when any epoch of the query qualifies (Figure 11's y-axis).
// Each read runs inside the peer's serialization domain, so callers may
// poll while the federation runs — how tests watch a migration or a removal
// complete. Once the runtime refuses the Exec (after Shutdown, when the
// Spawner contract lets peer state be inspected from the caller's
// goroutine) the peer is read directly. Peers hosted by other processes
// are not visible.
func (f *Fabric) Counts(name string, epoch uint32) (installed, wired int) {
	for i, p := range f.peers {
		read := func() {
			has, hasWired := false, false
			for k, inst := range p.insts {
				if k.name == name && (epoch == wire.AllEpochs || k.epoch == epoch) {
					has = true
					hasWired = hasWired || inst.wired
				}
			}
			if has {
				installed++
			}
			if hasWired {
				wired++
			}
		}
		if !runtime.ExecWait(f.Rt, i, read) {
			read()
		}
	}
	return installed, wired
}
