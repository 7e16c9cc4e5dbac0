package mortar

import (
	"hash/fnv"
	"sort"
	"time"

	"repro/internal/runtime"
	"repro/internal/wire"
)

// instKey identifies one operator instance on a peer: the query name plus
// the plan epoch. A replan installs the same query under the next epoch
// and the two run side by side until the old epoch is retired, so the name
// alone no longer names an instance.
type instKey struct {
	name  string
	epoch uint32
}

// Peer is one Mortar process: a single-threaded event-driven actor hosting
// query operators. All its methods run inside the peer's runtime
// serialization domain — simulator callbacks under simrt, the peer's own
// goroutine under netrt.
type Peer struct {
	fab *Fabric
	id  int
	rtc runtime.Clock // the peer's one clock: time, timers, frames

	insts map[instKey]*instance
	// bySeq indexes insts by install Seq, the name an arriving summary
	// gives its operator (wire.Envelope.Seq). addInst and deleteInst keep
	// the two maps in step.
	bySeq map[uint64]*instance
	// removed caches removal commands per query name as a non-dominated
	// mark set (see wire.RemovedMark): a whole-query removal and a later
	// epoch retirement cover incomparable rectangles, and both must keep
	// suppressing the installs they cover.
	removed map[string][]wire.RemovedMark

	// Liveness: runtime time we last heard anything from a neighbor.
	lastHeard map[int]time.Duration
	beat      uint64
	hbTicker  runtime.Ticker

	// Duplicate suppression (§4.3 requires the transport to suppress
	// duplicates): highest seq seen per sender for heartbeats.
	hbSeqSeen map[int]uint64
	hbSeqOut  uint64

	// pendingTopo tracks instances awaiting a topology reply from their
	// root.
	pendingTopo map[instKey]bool
}

func newPeer(f *Fabric, id int, rtc runtime.Clock) *Peer {
	p := &Peer{
		fab:         f,
		id:          id,
		rtc:         rtc,
		insts:       make(map[instKey]*instance),
		bySeq:       make(map[uint64]*instance),
		removed:     make(map[string][]wire.RemovedMark),
		lastHeard:   make(map[int]time.Duration),
		hbSeqSeen:   make(map[int]uint64),
		pendingTopo: make(map[instKey]bool),
	}
	return p
}

// sortedInstKeys returns the peer's instance keys ordered by (name, epoch)
// — map iteration must never order anything behavior-visible (the
// simulated backend is bit-for-bit deterministic).
func (p *Peer) sortedInstKeys() []instKey {
	keys := make([]instKey, 0, len(p.insts))
	for k := range p.insts {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].name != keys[j].name {
			return keys[i].name < keys[j].name
		}
		return keys[i].epoch < keys[j].epoch
	})
	return keys
}

// addInst hosts inst under its (name, epoch) and its install Seq.
func (p *Peer) addInst(key instKey, inst *instance) {
	p.insts[key] = inst
	p.bySeq[inst.meta.Seq] = inst
}

// deleteInst stops hosting the instance under key.
func (p *Peer) deleteInst(key instKey) {
	if inst, ok := p.insts[key]; ok {
		delete(p.bySeq, inst.meta.Seq)
		delete(p.insts, key)
	}
}

// ID returns the peer's fabric index.
func (p *Peer) ID() int { return p.id }

// now reads the peer's clock.
func (p *Peer) now() time.Duration { return p.rtc.Now() }

// alive reports whether a neighbor is presumed reachable: heard from within
// the liveness window.
func (p *Peer) alive(other int) bool {
	last, ok := p.lastHeard[other]
	if !ok {
		return false
	}
	return p.now()-last < p.livenessWindow()
}

// livenessWindow is how long a neighbor may stay silent before it is
// presumed unreachable.
func (p *Peer) livenessWindow() time.Duration {
	return time.Duration(float64(p.fab.Cfg.HeartbeatPeriod) * livenessMultiple)
}

// markHeard refreshes a neighbor's liveness.
func (p *Peer) markHeard(other int) { p.lastHeard[other] = p.now() }

// deliver is the transport handler: dispatch by message type. Every
// backend delivers the message it decoded from the bytes the fabric sent
// (see runtime.Frame). Summaries arrive one per envelope. Anything else is dropped: an
// envelope batch still decodes (see wire/batch.go), but no peer sends one.
func (p *Peer) deliver(src int, payload any, size int) {
	if src < 0 || src >= p.fab.NumPeers() {
		return
	}
	switch m := payload.(type) {
	case *envelope:
		p.markHeard(src)
		p.handleSummary(src, m)
	case msgHeartbeat:
		p.handleHeartbeat(src, m)
	case msgInstall:
		p.handleInstall(src, m)
	case msgRemove:
		p.handleRemove(src, m)
	case msgReconSummary:
		p.markHeard(src)
		p.handleReconSummary(src, m)
	case msgReconDefs:
		p.markHeard(src)
		p.handleReconDefs(src, m)
	case msgTopoRequest:
		p.handleTopoRequest(src, m)
	case msgTopoReply:
		p.handleTopoReply(src, m)
	case msgInstallAck:
		p.markHeard(src)
		p.handleInstallAck(src, m)
	default:
		p.fab.Stats.Dropped.Add(1)
	}
	// A peer hosting nothing has no ticker to ride for periodic pruning;
	// drop liveness state stragglers re-add so an idle peer holds no
	// per-neighbor memory. Heartbeat dedup seqs are deliberately kept: a
	// stale parent may still be heartbeating, and wiping its seq here
	// would re-accept every duplicate the transport injects. The residue
	// is bounded by the ex-parent count and cleared by the next install's
	// reconciliation-beat prune.
	if len(p.insts) == 0 && len(p.lastHeard) > 0 {
		clear(p.lastHeard)
	}
}

// --- Heartbeats (§3.3) ---

// ensureHeartbeats starts the heartbeat ticker once the peer has any
// children to serve.
func (p *Peer) ensureHeartbeats() {
	if p.hbTicker != nil {
		return
	}
	p.hbTicker = p.rtc.Every(p.fab.Cfg.HeartbeatPeriod, p.sendHeartbeats)
}

// uniqueChildren returns the distinct peers this node parents in any tree
// of any installed query — the set it must heartbeat. Sharing across
// queries and sibling trees is what makes overhead scale sub-linearly
// (Figure 13).
func (p *Peer) uniqueChildren() []int {
	set := map[int]struct{}{}
	for _, inst := range p.insts {
		if !inst.wired {
			continue
		}
		for _, kids := range inst.nb.Children {
			for _, c := range kids {
				set[c] = struct{}{}
			}
		}
	}
	out := make([]int, 0, len(set))
	for c := range set {
		out = append(out, c)
	}
	sort.Ints(out)
	return out
}

// uniqueParents returns the distinct peers this node expects heartbeats
// from.
func (p *Peer) uniqueParents() []int {
	set := map[int]struct{}{}
	for _, inst := range p.insts {
		if !inst.wired {
			continue
		}
		for _, pa := range inst.nb.Parents {
			if pa >= 0 {
				set[pa] = struct{}{}
			}
		}
	}
	out := make([]int, 0, len(set))
	for pa := range set {
		out = append(out, pa)
	}
	sort.Ints(out)
	return out
}

func (p *Peer) sendHeartbeats() {
	p.beat++
	p.hbSeqOut++
	withHash := p.beat%reconcileEveryBeats == 0
	if withHash {
		p.retryPendingTopo()
		// Re-ack migrating epochs: a lost InstallAck must not stall a
		// retirement forever, so while this peer still hosts an older epoch
		// of a query it keeps acking the newer one on reconciliation beats.
		p.reackMigratingEpochs()
		// Ride the reconciliation beat to drop state for ex-neighbors that
		// in-flight traffic re-added after an unwire or removal.
		p.pruneNeighborState()
	}
	for _, c := range p.uniqueChildren() {
		hb := msgHeartbeat{Seq: p.hbSeqOut}
		if withHash {
			hb.Hash = p.pairHashAsParent(c)
		}
		p.fab.send(p.id, c, runtime.ClassControl, hb)
	}
	if withHash {
		// Probe silent parents with our summary so a recovered parent that
		// lost its query state can adopt it (§6.1: reconciliation works in
		// both directions; child-to-parent comparisons ride the data flow).
		for _, pa := range p.uniqueParents() {
			if !p.alive(pa) {
				p.fab.send(p.id, pa, runtime.ClassControl, p.reconSummary())
			}
		}
	}
}

// pairHashAsParent hashes (name, seq) over queries in which child is one of
// this node's children — the queries the pair shares from the parent side.
func (p *Peer) pairHashAsParent(child int) uint64 {
	return p.hashQueries(func(inst *instance) bool {
		for _, kids := range inst.nb.Children {
			for _, c := range kids {
				if c == child {
					return true
				}
			}
		}
		return false
	})
}

// pairHashAsChild hashes over queries in which parent is one of this node's
// parents.
func (p *Peer) pairHashAsChild(parent int) uint64 {
	return p.hashQueries(func(inst *instance) bool {
		for _, pa := range inst.nb.Parents {
			if pa == parent {
				return true
			}
		}
		return false
	})
}

// hashQueries digests the peer's wired instance set as (name, epoch, seq)
// triples: reconciliation keys on (name, epoch), so during a migration the
// two live epochs of a query hash as two entries and a pair disagrees the
// moment either side misses one of them. Draining instances are excluded,
// exactly as reconSummary omits them — drain timers on the two ends of a
// pair expire at skewed times, and hashing a state reconciliation cannot
// change would keep the pair exchanging futile summaries until the slower
// timer fired.
func (p *Peer) hashQueries(include func(*instance) bool) uint64 {
	h := fnv.New64a()
	for _, k := range p.sortedInstKeys() {
		inst := p.insts[k]
		if !inst.wired || inst.draining || !include(inst) {
			continue
		}
		h.Write([]byte(k.name))
		var b [12]byte
		for i := 0; i < 4; i++ {
			b[i] = byte(k.epoch >> (8 * i))
		}
		seq := p.insts[k].meta.Seq
		for i := 0; i < 8; i++ {
			b[4+i] = byte(seq >> (8 * i))
		}
		h.Write(b[:])
		h.Write([]byte{0})
	}
	// Reserve 0 for "no hash piggybacked".
	v := h.Sum64()
	if v == 0 {
		v = 1
	}
	return v
}

func (p *Peer) handleHeartbeat(src int, m msgHeartbeat) {
	if m.Seq <= p.hbSeqSeen[src] {
		return // duplicate-suppressing transport
	}
	p.hbSeqSeen[src] = m.Seq
	p.markHeard(src)
	if m.Hash != 0 && m.Hash != p.pairHashAsChild(src) {
		p.fab.send(p.id, src, runtime.ClassControl, p.reconSummary())
	}
}

// pruneNeighborState drops liveness and duplicate-suppression entries for
// peers that are no longer neighbors in any wired query. Without this the
// lastHeard and hbSeqSeen maps grow without bound under query and
// membership churn — harmless in a bounded simulation, a leak in a
// long-lived live process. When no neighbors remain at all the heartbeat
// ticker is stopped too (ensureHeartbeats restarts it on the next
// install).
func (p *Peer) pruneNeighborState() {
	active := map[int]struct{}{}
	for _, inst := range p.insts {
		if !inst.wired {
			continue
		}
		for _, pa := range inst.nb.Parents {
			if pa >= 0 {
				active[pa] = struct{}{}
			}
		}
		for _, kids := range inst.nb.Children {
			for _, c := range kids {
				active[c] = struct{}{}
			}
		}
	}
	// Dedup seqs go first, consulting lastHeard before it is pruned: an
	// ex-neighbor that is still heartbeating (heard within the liveness
	// window) keeps its seq, so the duplicates of its in-flight beats stay
	// suppressed until reconciliation makes it stop.
	window := p.livenessWindow()
	for o := range p.hbSeqSeen {
		if _, ok := active[o]; ok {
			continue
		}
		if last, ok := p.lastHeard[o]; ok && p.now()-last < window {
			continue
		}
		delete(p.hbSeqSeen, o)
	}
	for o := range p.lastHeard {
		if _, ok := active[o]; !ok {
			delete(p.lastHeard, o)
		}
	}
	// With no neighbors, no instances, and no pending topology fetches the
	// ticker serves nothing; stop it (ensureHeartbeats restarts it on the
	// next install). Unwired instances keep it alive: the reconciliation
	// beat drives their topology-request retries.
	if len(active) == 0 && len(p.insts) == 0 && len(p.pendingTopo) == 0 && p.hbTicker != nil {
		p.hbTicker.Stop()
		p.hbTicker = nil
	}
}

// NeighborStateSize reports the number of liveness and duplicate-
// suppression entries currently held — an introspection hook for leak
// tests and operational debugging. Quiescent-only: call it on the
// simulator between steps, or on a live runtime after Shutdown.
func (p *Peer) NeighborStateSize() int { return len(p.lastHeard) + len(p.hbSeqSeen) }

// LivenessEntries reports only the liveness entries; after a query's
// removal these drain to zero while a bounded heartbeat-dedup residue may
// remain in NeighborStateSize. Quiescent-only.
func (p *Peer) LivenessEntries() int { return len(p.lastHeard) }
