// Package netrt is the socket-backed runtime backend: every message between
// peers crosses the wire as a real UDP datagram carrying the internal/wire
// encoding, the way the paper's prototype exchanged UdpCC datagrams between
// hosts. A netrt Runtime hosts a subset of the federation's peers (possibly
// all of them); local peers bind UDP sockets from a shared peer-index ->
// address directory — peers whose directory entries share one address are
// multiplexed behind one socket — and several processes, or several
// Runtimes in one process for loopback tests, form one federation by
// agreeing on that directory. It is the one wall-clock backend:
// runtime/livert only builds a Runtime hosting every peer behind one
// loopback socket.
//
// Per shared socket the Runtime runs one receive goroutine (socket ->
// decode -> mailbox, demuxed on the destination index every frame carries)
// and one paced writer; per local peer it runs a mailbox goroutine (the
// peer's serialization domain, runtime/actor). Exec and the clocks run
// their fn on the calling goroutine when the peer is idle; the receive
// goroutine only queues, so a slow handler never stalls a socket. The
// writer packs the small frames it finds queued together for one remote
// socket into one frameTrain datagram and writes a frame that arrives
// alone at once (see pacer), so peer density scales without a matching
// datagram storm and an idle socket adds no hold.
// Datagrams carry a small transport header ahead of the wire frame:
// sender/destination indices and, only where an RTT sample needs them,
// microsecond timestamp fields implementing UdpCC-style passive RTT
// measurement — a peer stamps a frame to a remote at most once a second,
// and the remote echoes that stamp once, with its hold time, on its next
// frame back, so any two peers with bidirectional traffic converge on a
// smoothed RTT without dedicated probes, and most frames carry the indices
// alone. Coordinate-carrying ping/pong probes (Gossip) prime the table and
// fit every peer's Vivaldi coordinate, which every later echo refits; the
// Runtime alone owns the coordinates the planner reads, and Latency serves
// the measured half-RTTs.
//
// Frames larger than the configured MTU do not fit one datagram; they take
// the reliable large-message path (frag.go): MTU-sized fragments,
// NACK-driven selective retransmission from a bounded retransmit buffer,
// bounded reassembly with stale-stream eviction, and token-bucket pacing on
// every outgoing datagram, for any frame up to maxMessage.
package netrt

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"net"
	"net/netip"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/runtime"
	"repro/internal/runtime/actor"
	"repro/internal/vivaldi"
	"repro/internal/wire"
)

// Datagram framing: a one-byte frame kind ahead of the header fields. Kind
// 1 was the v5 message header (ns stamps and a class byte) and kind 7 the
// v7 one (three µs stamps on every frame); a datagram of either, like one
// of any unknown kind, is dropped.
const (
	framePing  = 2 // RTT probe
	framePong  = 3 // RTT probe reply
	frameFrag  = 4 // one fragment of a frame larger than the MTU
	frameNack  = 5 // retransmission request for missing fragments
	frameTrain = 6 // coalesced train of small frames (wire.ForEachTrainFrame)
	frameHdr   = 8 // kinds 8–11: [8|bits][from][to][stamp?][echo hold?] + wire message frame
)

// The presence bits of a frameHdr kind byte.
const (
	hdrStamp = 1 // a µs transmit stamp follows the indices
	hdrEcho  = 2 // an echoed µs stamp and its µs hold follow
)

// stampEvery is how often a local peer stamps its frames to one remote: a
// frame carries a transmit stamp only when none went to that remote in the
// last stampEvery, so a pair with traffic both ways takes about one RTT
// sample a second in each direction.
const stampEvery = time.Second

// maxDatagram is the absolute UDP payload ceiling; the configured MTU is
// clamped to it.
const maxDatagram = 65507

// minMTU keeps the fragment payload positive after the framing headroom.
const minMTU = 2 * fragHeadroom

// sweepInterval is how often the runtime scans reassemblers for stale
// streams and NACK-worthy gaps.
const sweepInterval = 20 * time.Millisecond

// maxMessage bounds one logical frame through the fragmentation path; Send
// drops and counts a larger one. Each local peer's partial-stream memory
// and the sent-fragment memory it holds for NACK service are bounded at
// twice this.
const maxMessage = 4 << 20

// defaultLatency is Latency's answer for pairs with no RTT measurement yet
// (no traffic and no probe).
const defaultLatency = time.Millisecond

// rttAlpha is the EWMA weight for new RTT samples.
const rttAlpha = 0.3

// Options tunes the socket runtime.
type Options struct {
	// Seed drives the planning random source.
	Seed int64
	// ReadBuffer, when positive, sets SO_RCVBUF on every local socket.
	ReadBuffer int
	// MTU is the largest datagram Send writes; frames that do not fit are
	// split into fragments reassembled on the far side and repaired by
	// NACK retransmission. Default 1400 (a practical path MTU), clamped to
	// [128, 65507].
	MTU int
	// Pace is the outgoing token-bucket rate per local peer in bytes per
	// second — the discipline that keeps a multi-fragment install from
	// burst-dropping at the first full queue. Default 8 MiB/s; negative
	// disables pacing.
	Pace int
	// PairDelay, when non-nil, holds every outgoing datagram for the given
	// synthetic one-way delay before it reaches the paced writer — an
	// injected latency topology over real loopback sockets. The passive
	// RTT echoes measure the inflated path, so Vivaldi embeds the
	// synthetic topology exactly as it would a real one; SetPairDelay
	// swaps the function mid-run, which is how tests shift the topology
	// under a live federation.
	PairDelay func(from, to int) time.Duration
	// PeersPerSocket is how many local peers NewGroup multiplexes onto one
	// UDP socket (demuxed on the destination index every frame carries).
	// Default 1 — one socket per peer, the pre-multiplexing layout. New
	// ignores it: there the directory decides which peers share an address.
	PeersPerSocket int
}

func (o Options) withDefaults() Options {
	if o.MTU == 0 {
		o.MTU = 1400
	}
	if o.MTU < minMTU {
		o.MTU = minMTU
	}
	if o.MTU > maxDatagram {
		o.MTU = maxDatagram
	}
	if o.Pace == 0 {
		o.Pace = 8 << 20
	}
	if o.Pace < 0 {
		o.Pace = 0 // unpaced
	}
	if o.PeersPerSocket <= 0 {
		o.PeersPerSocket = 1
	}
	return o
}

// fragPayload is the fragment payload size the configured MTU leaves.
func (o Options) fragPayload() int { return o.MTU - fragHeadroom }

// lsock is one shared local socket hosting one or more local peers: a
// single receive loop demuxes inbound frames on the destination index
// every frame carries, and a single paced writer serializes the outbound
// side. With Options.PeersPerSocket (or a ranged directory) a thousand
// local peers need a handful of sockets, not a thousand.
type lsock struct {
	conn  *net.UDPConn
	pacer *pacer
	peers []int
}

// Runtime hosts a contiguous-or-not set of local peers over UDP sockets.
// It implements runtime.Runtime, runtime.Transport, and runtime.Locality.
type Runtime struct {
	n       int
	local   []int
	isLocal []bool
	addrs   []*net.UDPAddr
	ports   []netip.AddrPort // addrs as AddrPort, the pacer's alloc-free write key
	boxes   []*actor.Mailbox // nil for non-local peers
	start   time.Time
	opt     Options
	planRng *rand.Rand

	hmu   sync.RWMutex
	hands []runtime.Handler

	down   []atomic.Bool
	closed atomic.Bool
	wg     sync.WaitGroup
	done   chan struct{} // closed by Shutdown; stops pacers and the sweeper

	// The shared local sockets, each with its receive loop and paced
	// writer; sockOf maps a local peer to its socket (-1 for non-local
	// peers), addrID maps every peer to its address group — the key frames
	// share a train under, common to the peers multiplexed behind one
	// remote socket.
	socks  []*lsock
	sockOf []int
	addrID []int

	// Per local peer: the send-side fragment state (stream ids +
	// retransmit buffer) and the bounded reassembler. All nil for
	// non-local peers.
	frags []*fragSender
	reasm []*Reassembler

	// Fragmentation counters (see FragStats).
	fragStreams, fragsSent, retransmits, nacksSent atomic.Uint64
	maxStreamFrags                                 atomic.Uint64

	// Per local peer: the header state toward each remote (see echoState)
	// and the smoothed RTT per remote. Guarded by peerMu of the local peer;
	// touched by its receive loop and by Send. rttSamples counts the RTT
	// samples taken, from echoes and pongs alike.
	peerMu     []sync.Mutex
	echo       []map[int]echoState
	rtt        []map[int]time.Duration
	rttSamples atomic.Uint64

	// Decentralized Vivaldi (§3.1): every local peer owns a coordinate it
	// updates from the RTT samples the transport already collects; probe
	// frames piggyback coordinates, so the last coordinate seen from every
	// remote peer is cached here for planning and for feeding updates.
	nodes      []*vivaldi.Node // nil for non-local peers
	coordMu    sync.RWMutex
	peerCoords []vivaldi.Coordinate // last coordinate gossiped per peer
	peerErrs   []float64

	// pairDelay is the synthetic latency topology (Options.PairDelay),
	// swappable mid-run via SetPairDelay.
	pairDelay atomic.Pointer[func(from, to int) time.Duration]

	// Simulated loss (float64 bits; 0 = none), rolled in lost: loss for
	// every outgoing frame (SetLoss), peerLoss on top for the frames local
	// peer p originates (SetPeerLoss) — the chaos harness ramps both — and
	// ctrlDup (SetCtrlDup) is rolled in duplicate from the same source.
	loss     atomic.Uint64
	peerLoss []atomic.Uint64
	ctrlDup  atomic.Uint64
	lossMu   sync.Mutex
	lossRng  *rand.Rand

	// gossipRng draws Gossip's probe targets — here, not per call, so
	// successive calls reach fresh peers; guarded because a background
	// Gossip goroutine can overlap the planning loop's calls.
	gossipMu  sync.Mutex
	gossipRng *rand.Rand

	sent, delivered, dropped atomic.Uint64

	// Per-class wire bytes transmitted (frame header + body, before
	// fragmentation overhead): the split the serving plane reports so
	// control-plane cost is observable per process (ClassBytes). The frame
	// counts alongside them make upstream batching observable at the
	// transport: DataFrames falls below the summary count by what shared a
	// frame (see NetStats). duplicated counts the control frames sent twice.
	ctlBytes, dataBytes               atomic.Uint64
	ctlFrames, dataFrames, duplicated atomic.Uint64

	// Datagram-level counters (see NetStats): datagrams actually written,
	// trains among them, and the frames those trains carried.
	datagrams, trains, trainFrames atomic.Uint64
}

// echoState is a local peer's header state toward one remote: the newest
// stamp received from it and not yet echoed, so the next frame back echoes
// it once with a hold time, and this peer's own last stamp to it.
type echoState struct {
	owed    uint64        // remote's µs stamp awaiting its echo; 0: none
	at      time.Duration // runtime clock at its arrival
	stamped uint64        // µs stamp of the last frame stamped to the remote; 0: none
}

// msgHeader is the RTT half of a message frame's transport header: the
// sender's µs transmit stamp, and the echo of a stamp the receiver sent
// with the µs it was held; each 0 where the frame carries none.
type msgHeader struct{ stamp, echo, hold uint64 }

// maxMsgHeader bounds an encoded message header: the kind byte and five
// uvarints.
const maxMsgHeader = 1 + 5*binary.MaxVarintLen64

// appendTo appends the header of a message frame from → to carrying h,
// as the frameHdr kind its fields select.
func (h msgHeader) appendTo(dst []byte, from, to int) []byte {
	kind := byte(frameHdr)
	if h.stamp != 0 {
		kind |= hdrStamp
	}
	if h.echo != 0 {
		kind |= hdrEcho
	}
	dst = append(dst, kind)
	dst = binary.AppendUvarint(dst, uint64(from))
	dst = binary.AppendUvarint(dst, uint64(to))
	if h.stamp != 0 {
		dst = binary.AppendUvarint(dst, h.stamp)
	}
	if h.echo != 0 {
		dst = binary.AppendUvarint(dst, h.echo)
		dst = binary.AppendUvarint(dst, h.hold)
	}
	return dst
}

// readMsgHeader reads the fields a message frame of kind 8–11 carries past
// its indices: the ones its presence bits name. ok is false for any other
// kind and for a header cut short.
func readMsgHeader(kind byte, rd *wire.Reader) (h msgHeader, ok bool) {
	if kind&^(hdrStamp|hdrEcho) != frameHdr {
		return msgHeader{}, false
	}
	var err error
	if kind&hdrStamp != 0 {
		h.stamp, err = rd.Uvarint()
	}
	if kind&hdrEcho != 0 && err == nil {
		if h.echo, err = rd.Uvarint(); err == nil {
			h.hold, err = rd.Uvarint()
		}
	}
	if err != nil {
		return msgHeader{}, false
	}
	return h, true
}

var _ runtime.Runtime = (*Runtime)(nil)
var _ runtime.Transport = (*Runtime)(nil)
var _ runtime.Locality = (*Runtime)(nil)

// New binds the UDP sockets the directory asks for and starts the receive
// and mailbox goroutines. directory[i] is peer i's UDP host:port; peers
// sharing one host:port are multiplexed behind one socket (the ranged
// directory format LoadDirectory parses produces exactly that), except
// that every :0 entry always gets its own ephemerally-bound socket. local
// lists the peer indices this process hosts; an address may not mix local
// and non-local peers — the remote half's frames would land on this
// process's socket and be dropped. The caller owns shutting the runtime
// down.
func New(directory []string, local []int, opt Options) (*Runtime, error) {
	addrs := make([]*net.UDPAddr, len(directory))
	for i, d := range directory {
		a, err := net.ResolveUDPAddr("udp", d)
		if err != nil {
			return nil, fmt.Errorf("netrt: peer %d address %q: %w", i, d, err)
		}
		addrs[i] = a
	}
	isLocal := make([]bool, len(directory))
	conns := make([]*net.UDPConn, len(directory))
	fail := func(err error) (*Runtime, error) {
		closeConns(conns)
		return nil, err
	}
	byAddr := map[string]*net.UDPConn{}
	for _, p := range local {
		if p < 0 || p >= len(directory) {
			return fail(fmt.Errorf("netrt: local peer %d outside directory of %d", p, len(directory)))
		}
		isLocal[p] = true
		ephemeral := addrs[p].Port == 0
		key := addrs[p].String()
		if !ephemeral {
			if c, ok := byAddr[key]; ok {
				conns[p] = c
				addrs[p] = c.LocalAddr().(*net.UDPAddr)
				continue
			}
		}
		c, err := net.ListenUDP("udp", addrs[p])
		if err != nil {
			return fail(fmt.Errorf("netrt: bind peer %d: %w", p, err))
		}
		conns[p] = c
		if !ephemeral {
			byAddr[key] = c
		}
		// The socket may have been bound to :0; record the actual address.
		addrs[p] = c.LocalAddr().(*net.UDPAddr)
	}
	for q := range directory {
		if !isLocal[q] && byAddr[addrs[q].String()] != nil {
			return fail(fmt.Errorf("netrt: address %q hosts local peers but peer %d is not local", addrs[q], q))
		}
	}
	return assemble(addrs, local, conns, opt), nil
}

// closeConns closes the sockets New or NewGroup bound before failing.
// conns is indexed by peer, so a shared socket appears once per peer.
func closeConns(conns []*net.UDPConn) {
	closed := map[*net.UDPConn]bool{}
	for _, c := range conns {
		if c != nil && !closed[c] {
			closed[c] = true
			c.Close()
		}
	}
}

// assemble wires an already-bound socket set into a running Runtime.
// conns is indexed by peer; local peers sharing a socket hold the same
// *net.UDPConn, and assemble groups them into one lsock with one receive
// loop and one paced writer (rate and burst scaled by the peer count, so
// a shared socket is not throttled below what its peers had separately).
func assemble(addrs []*net.UDPAddr, local []int, conns []*net.UDPConn, opt Options) *Runtime {
	opt = opt.withDefaults()
	n := len(addrs)
	r := &Runtime{
		n:          n,
		local:      append([]int(nil), local...),
		isLocal:    make([]bool, n),
		addrs:      addrs,
		boxes:      make([]*actor.Mailbox, n),
		start:      time.Now(),
		opt:        opt,
		planRng:    rand.New(rand.NewSource(opt.Seed)),
		hands:      make([]runtime.Handler, n),
		down:       make([]atomic.Bool, n),
		done:       make(chan struct{}),
		sockOf:     make([]int, n),
		addrID:     make([]int, n),
		frags:      make([]*fragSender, n),
		reasm:      make([]*Reassembler, n),
		peerMu:     make([]sync.Mutex, n),
		echo:       make([]map[int]echoState, n),
		rtt:        make([]map[int]time.Duration, n),
		nodes:      make([]*vivaldi.Node, n),
		peerCoords: make([]vivaldi.Coordinate, n),
		peerErrs:   make([]float64, n),
		peerLoss:   make([]atomic.Uint64, n),
		lossRng:    rand.New(rand.NewSource(opt.Seed*31337 + 17)),
		gossipRng:  rand.New(rand.NewSource(opt.Seed ^ 0x5deece66d)),
	}
	if opt.PairDelay != nil {
		pd := opt.PairDelay
		r.pairDelay.Store(&pd)
	}
	// Address groups: peers sharing a remote socket share a train
	// destination.
	groups := map[string]int{}
	r.ports = make([]netip.AddrPort, n)
	for p, a := range addrs {
		key := a.String()
		id, ok := groups[key]
		if !ok {
			id = len(groups)
			groups[key] = id
		}
		r.addrID[p] = id
		ap := a.AddrPort()
		r.ports[p] = netip.AddrPortFrom(ap.Addr().Unmap(), ap.Port())
	}
	for i := range r.sockOf {
		r.sockOf[i] = -1
	}
	sockIdx := map[*net.UDPConn]int{}
	for _, p := range local {
		r.isLocal[p] = true
		si, ok := sockIdx[conns[p]]
		if !ok {
			si = len(r.socks)
			sockIdx[conns[p]] = si
			r.socks = append(r.socks, &lsock{conn: conns[p]})
		}
		r.sockOf[p] = si
		r.socks[si].peers = append(r.socks[si].peers, p)

		r.echo[p] = make(map[int]echoState)
		r.rtt[p] = make(map[int]time.Duration)
		r.nodes[p] = vivaldi.NewNode(rand.New(rand.NewSource(opt.Seed*7919 + int64(p) + 1)))
		r.frags[p] = newFragSender(2 * maxMessage)
		r.reasm[p] = NewReassembler((opt.MTU - 32) / 5) // one NACK must fit one datagram
		r.boxes[p] = actor.NewMailbox()
		r.wg.Add(1)
		go func(box *actor.Mailbox) {
			defer r.wg.Done()
			box.Loop()
		}(r.boxes[p])
	}
	baseBurst := float64(64 << 10)
	if b := float64(4 * opt.MTU); b > baseBurst {
		baseBurst = b
	}
	ct := pacerCounters{
		dropped:     &r.dropped,
		datagrams:   &r.datagrams,
		trains:      &r.trains,
		trainFrames: &r.trainFrames,
	}
	for _, s := range r.socks {
		if opt.ReadBuffer > 0 {
			_ = s.conn.SetReadBuffer(opt.ReadBuffer)
		}
		k := float64(len(s.peers))
		burst := baseBurst * k
		if burst > 16<<20 {
			burst = 16 << 20
		}
		s.pacer = newPacer(s.conn, pacerOptions{
			rate:  float64(opt.Pace) * k,
			burst: burst,
			mtu:   opt.MTU,
		}, ct)
		r.wg.Add(2)
		go r.recvLoop(s)
		go func(pc *pacer) {
			defer r.wg.Done()
			pc.loop()
		}(s.pacer)
	}
	if len(local) > 0 {
		r.wg.Add(1)
		go r.sweepLoop()
	}
	return r
}

// NetStats is the datagram-level view of the transport: how many
// datagrams actually hit the wire, how many were trains, how many frames
// those trains carried, and how many sockets host the local peers. On a
// backlogged socket Datagrams is well below the frame count (sent + probes
// + NACKs).
type NetStats struct {
	Datagrams   uint64
	Trains      uint64
	TrainFrames uint64
	Sockets     int
	// Per-class frame counts (a frame is one transport Send; a train packs
	// several into one datagram). Every upstream summary is one data frame.
	CtlFrames  uint64
	DataFrames uint64
	// Duplicated counts the control frames sent twice (SetCtrlDup).
	Duplicated uint64
	// RTTSamples counts the RTT samples the local peers took: one per
	// echoed stamp and one per pong.
	RTTSamples uint64
}

// NetStats returns the datagram-level counters.
func (r *Runtime) NetStats() NetStats {
	return NetStats{
		Datagrams:   r.datagrams.Load(),
		Trains:      r.trains.Load(),
		TrainFrames: r.trainFrames.Load(),
		Sockets:     len(r.socks),
		CtlFrames:   r.ctlFrames.Load(),
		DataFrames:  r.dataFrames.Load(),
		Duplicated:  r.duplicated.Load(),
		RTTSamples:  r.rttSamples.Load(),
	}
}

// SetPairDelay swaps the synthetic latency topology at run time. The
// next outgoing datagram of every local peer sees the new delays, the
// passive RTT measurements follow, and Vivaldi re-embeds — the injected
// equivalent of a route change under a live federation. nil removes the
// topology.
func (r *Runtime) SetPairDelay(f func(from, to int) time.Duration) {
	if f == nil {
		r.pairDelay.Store(nil)
		return
	}
	r.pairDelay.Store(&f)
}

// SetLoss simulates datagram loss: every outgoing frame of every local peer
// — messages, fragments, probes, NACKs alike — is dropped with probability
// p (clamped to [0, 1]) before it reaches the paced writer. Zero in
// production; tests prove NACK repair with it and chaos schedules ramp it.
func (r *Runtime) SetLoss(p float64) { r.loss.Store(lossBits(p)) }

// SetPeerLoss adds a loss probability for the frames one local peer
// originates, rolled independently of the runtime-wide rate the rest of the
// federation keeps. 0 removes it. A no-op for peers hosted elsewhere.
func (r *Runtime) SetPeerLoss(peer int, p float64) {
	if peer < 0 || peer >= r.n || !r.isLocal[peer] {
		return
	}
	r.peerLoss[peer].Store(lossBits(p))
}

// SetCtrlDup sends every control-class frame of a local peer twice with
// probability p (clamped to [0, 1]), exercising the peers' duplicate
// suppression and idempotent control handlers; data frames never are.
func (r *Runtime) SetCtrlDup(p float64) { r.ctrlDup.Store(lossBits(p)) }

// lossBits clamps a loss probability to [0, 1] and returns its bits.
func lossBits(p float64) uint64 {
	if p <= 0 {
		return 0
	}
	return math.Float64bits(math.Min(p, 1))
}

// lost is the one loss point: the runtime-wide roll and the sending peer's
// own, independently, once per frame — before the pair delay and before the
// pacer packs it, so loss statistics do not depend on how many frames share
// a datagram. With no loss set it costs two atomic loads.
func (r *Runtime) lost(from int) bool {
	all, peer := r.loss.Load(), r.peerLoss[from].Load()
	if all|peer == 0 {
		return false
	}
	r.lossMu.Lock()
	defer r.lossMu.Unlock()
	return r.lossRng.Float64() < math.Float64frombits(all) ||
		r.lossRng.Float64() < math.Float64frombits(peer)
}

// duplicate is the duplication roll, once per control frame beside the loss
// roll, counting the frames it doubles; unset it costs one atomic load.
func (r *Runtime) duplicate() bool {
	p := r.ctrlDup.Load()
	if p == 0 {
		return false
	}
	r.lossMu.Lock()
	dup := r.lossRng.Float64() < math.Float64frombits(p)
	r.lossMu.Unlock()
	if dup {
		r.duplicated.Add(1)
	}
	return dup
}

// AddressGroups returns the federation's peers grouped by shared directory
// address, in directory order: group g holds every peer multiplexed behind
// the g'th distinct address. Every process of a federation derives the
// same grouping from the shared directory, which is what lets a chaos
// schedule's correlated per-socket outage kill the same peer set in every
// process.
func (r *Runtime) AddressGroups() [][]int {
	ng := 0
	for _, id := range r.addrID {
		if id >= ng {
			ng = id + 1
		}
	}
	groups := make([][]int, ng)
	for p, id := range r.addrID {
		groups[id] = append(groups[id], p)
	}
	return groups
}

// xmit sends one outgoing frame: the simulated-loss roll, the hold for the
// synthetic pair delay when a topology is configured, then the sending
// peer's paced writer. buf, when non-nil, is the pooled buffer backing b —
// xmit owns it whether or not the frame gets through. c1/c2 (either may be
// nil) increment only when the pacer accepts the frame. dup sends a copy
// right behind the frame, under the same loss roll and the same hold. The
// no-delay path stays closure- and allocation-free — this sits under every
// heartbeat, fragment, probe, and NACK.
func (r *Runtime) xmit(from, to int, b []byte, buf *wire.Buffer, c1, c2 *atomic.Uint64, dup bool) {
	if r.lost(from) {
		r.dropped.Add(1)
		wire.PutBuffer(buf)
		return
	}
	var cp *wire.Buffer
	if dup {
		cp = wire.GetBuffer()
		cp.PutRaw(b)
	}
	if pd := r.pairDelay.Load(); pd != nil {
		if d := (*pd)(from, to); d > 0 {
			// A held datagram that outlives Shutdown lands in a stopped
			// pacer's queue and is never written — dropped like any other
			// in-flight packet at process death.
			time.AfterFunc(d, func() { r.submit(from, to, b, buf, c1, c2, cp) })
			return
		}
	}
	r.submit(from, to, b, buf, c1, c2, cp)
}

// submit hands a frame that survived xmit to the sending peer's pacer, and
// its copy, when xmit made one, right behind it.
func (r *Runtime) submit(from, to int, b []byte, buf *wire.Buffer, c1, c2 *atomic.Uint64, cp *wire.Buffer) {
	pc := r.socks[r.sockOf[from]].pacer
	if pc.submit(b, buf, r.ports[to], r.addrID[to]) {
		if c1 != nil {
			c1.Add(1)
		}
		if c2 != nil {
			c2.Add(1)
		}
	}
	if cp != nil {
		pc.submit(cp.Bytes(), cp, r.ports[to], r.addrID[to])
	}
}

// sweepLoop periodically evicts stale reassembly streams and sends the
// NACKs repair wants, for every local peer.
func (r *Runtime) sweepLoop() {
	defer r.wg.Done()
	t := time.NewTicker(sweepInterval)
	defer t.Stop()
	for {
		select {
		case <-r.done:
			return
		case now := <-t.C:
			for _, p := range r.local {
				for _, req := range r.reasm[p].Sweep(now) {
					r.sendNack(p, req)
				}
			}
		}
	}
}

// sendNack writes one retransmission request from a local peer to the
// sender of an incomplete stream.
func (r *Runtime) sendNack(from int, req NackRequest) {
	if req.Src < 0 || req.Src >= r.n || r.down[from].Load() || r.down[req.Src].Load() {
		return
	}
	w := wire.GetBuffer()
	w.PutByte(frameNack)
	w.PutUvarint(uint64(from))
	w.PutUvarint(uint64(req.Src))
	wire.EncodeNack(w, wire.Nack{Stream: req.Stream, Missing: req.Missing})
	r.xmit(from, req.Src, w.Bytes(), w, &r.nacksSent, nil, false)
}

// NewGroup builds one federation of several Runtimes inside a single
// process, each hosting one peer range, with every socket bound to an
// ephemeral loopback port. This is the in-process stand-in for a
// multi-process deployment — messages still cross the kernel's UDP stack —
// used by the loopback tests and available to experiments.
// Options.PeersPerSocket multiplexes that many consecutive peers of each
// range behind one socket. The returned directory lists the bound
// addresses.
func NewGroup(ranges [][]int, opt Options) ([]*Runtime, []string, error) {
	n := 0
	owner := map[int]int{}
	for gi, g := range ranges {
		for _, p := range g {
			if _, dup := owner[p]; dup {
				return nil, nil, fmt.Errorf("netrt: peer %d in two ranges", p)
			}
			owner[p] = gi
			n++
		}
	}
	for p := 0; p < n; p++ {
		if _, ok := owner[p]; !ok {
			return nil, nil, fmt.Errorf("netrt: ranges do not cover peer %d", p)
		}
	}
	perSock := opt.PeersPerSocket
	if perSock <= 0 {
		perSock = 1
	}
	addrs := make([]*net.UDPAddr, n)
	conns := make([]*net.UDPConn, n)
	for _, g := range ranges {
		for i, p := range g {
			if i%perSock == 0 {
				c, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1), Port: 0})
				if err != nil {
					closeConns(conns)
					return nil, nil, fmt.Errorf("netrt: bind peer %d: %w", p, err)
				}
				conns[p] = c
				addrs[p] = c.LocalAddr().(*net.UDPAddr)
				continue
			}
			conns[p] = conns[g[i-i%perSock]]
			addrs[p] = addrs[g[i-i%perSock]]
		}
	}
	directory := make([]string, n)
	for p, a := range addrs {
		directory[p] = a.String()
	}
	rts := make([]*Runtime, len(ranges))
	for gi, g := range ranges {
		groupConns := make([]*net.UDPConn, n)
		for _, p := range g {
			groupConns[p] = conns[p]
		}
		rts[gi] = assemble(append([]*net.UDPAddr(nil), addrs...), g, groupConns, opt)
	}
	return rts, directory, nil
}

// --- runtime.Runtime ---

// NumPeers returns the federation size (all processes combined).
func (r *Runtime) NumPeers() int { return r.n }

// Local reports whether a peer is hosted by this Runtime.
func (r *Runtime) Local(peer int) bool {
	return peer >= 0 && peer < r.n && r.isLocal[peer]
}

// LocalPeers returns the peer indices this Runtime hosts.
func (r *Runtime) LocalPeers() []int { return append([]int(nil), r.local...) }

// Clock returns a wall clock whose callbacks run in the peer's
// serialization domain, through Exec.
// Clocks of non-local peers read time but cannot schedule.
func (r *Runtime) Clock(peer int) runtime.Clock {
	return actor.Clock{
		Start:  r.start,
		Exec:   func(fn func()) bool { return r.Exec(peer, fn) },
		Closed: r.closed.Load,
	}
}

// Transport returns the socket transport.
func (r *Runtime) Transport() runtime.Transport { return r }

// Rand returns the planning random source. Driving goroutine only.
func (r *Runtime) Rand() *rand.Rand { return r.planRng }

// Exec runs fn in a local peer's serialization domain: on the calling
// goroutine when the peer is idle, otherwise queued behind its mailbox's
// work (actor.Mailbox.Exec). It reports false for non-local peers and
// after Shutdown.
func (r *Runtime) Exec(peer int, fn func()) bool {
	if peer < 0 || peer >= r.n || r.boxes[peer] == nil {
		return false
	}
	return r.boxes[peer].Exec(fn)
}

// Shutdown stops the pacers and the reassembly sweeper, closes every local
// socket (unblocking the receive loops), stops mailbox intake, drains
// queued work, and joins all goroutines. Afterwards local peer state may be
// inspected from the caller's goroutine.
func (r *Runtime) Shutdown() {
	if r.closed.Swap(true) {
		return
	}
	close(r.done)
	for _, s := range r.socks {
		s.pacer.stop()
		s.conn.Close()
	}
	for _, p := range r.local {
		r.boxes[p].Close()
	}
	r.wg.Wait()
}

// Stats returns cumulative transport counters: datagrams sent, messages
// delivered into mailboxes, and drops (down peers, decode failures, closed
// mailboxes, frames over maxMessage, simulated loss, full pacer queues).
func (r *Runtime) Stats() (sent, delivered, dropped uint64) {
	return r.sent.Load(), r.delivered.Load(), r.dropped.Load()
}

// ClassBytes returns cumulative transmitted wire bytes split by message
// class (frame header + encoded body; fragment and retransmit framing
// overhead is not double-counted). Control bytes cover heartbeats,
// reconciliation, install/remove multicast, and topology/ack traffic —
// the quantity the paper's sharing argument (Fig 13) bounds as query
// count grows over one mesh.
func (r *Runtime) ClassBytes() (controlBytes, dataBytes uint64) {
	return r.ctlBytes.Load(), r.dataBytes.Load()
}

// --- runtime.Transport ---

// Handle registers a peer's delivery handler. Handlers registered for
// non-local peers are kept but never invoked in this process.
func (r *Runtime) Handle(peer int, h runtime.Handler) {
	r.hmu.Lock()
	r.hands[peer] = h
	r.hmu.Unlock()
}

// SetDown gates a peer locally: a down local peer neither sends nor
// receives; marking a remote peer down stops this process from sending to
// it. Other processes keep their own view — a real deployment has no
// global kill switch.
func (r *Runtime) SetDown(peer int, down bool) { r.down[peer].Store(down) }

// Down reports this process's view of a peer's gate.
func (r *Runtime) Down(peer int) bool { return r.down[peer].Load() }

// Latency returns the measured one-way latency (smoothed RTT/2) between
// the pair when either side is local and has a measurement, and
// defaultLatency otherwise. Measurements accumulate passively from message
// echoes and actively from Gossip.
func (r *Runtime) Latency(a, b int) time.Duration {
	if d, ok := r.Measured(a, b); ok {
		return d
	}
	return defaultLatency
}

// Measured returns the smoothed one-way latency for a pair, if this
// process has measured it from either end.
func (r *Runtime) Measured(a, b int) (time.Duration, bool) {
	if a < 0 || b < 0 || a >= r.n || b >= r.n {
		return 0, false
	}
	for _, pair := range [2][2]int{{a, b}, {b, a}} {
		l, rem := pair[0], pair[1]
		if !r.isLocal[l] {
			continue
		}
		r.peerMu[l].Lock()
		rtt, ok := r.rtt[l][rem]
		r.peerMu[l].Unlock()
		if ok {
			return rtt / 2, true
		}
	}
	return 0, false
}

// Send encodes the frame header, appends the message's wire bytes, and
// submits the datagram(s) to the sending peer's paced writer. The payload
// is normally the runtime.Frame the fabric built (its Bytes go on the wire
// unchanged — the message was encoded exactly once); any other payload is
// encoded here, so tests can Send bare messages. A frame that fits the MTU
// travels as a single frameHdr datagram, [8|bits][from][to] uvarints and
// then whichever RTT fields header grants it — a µs transmit stamp, at
// most one a second per remote, and the once-only echo of the newest stamp
// the remote sent, with its µs hold — ahead of the wire frame; a larger
// frame — an install chunk of a realistic program — is split into a
// fragment train, buffered for NACK retransmission, and reassembled on the
// far side, so every fabric transmit shares this one path regardless of
// size up to maxMessage.
func (r *Runtime) Send(from, to int, class runtime.Class, size int, payload any) bool {
	if from == to || from < 0 || from >= r.n || to < 0 || to >= r.n || !r.isLocal[from] {
		return false
	}
	if r.closed.Load() || r.down[from].Load() || r.down[to].Load() {
		return false
	}
	var body []byte
	switch p := payload.(type) {
	case *runtime.Frame:
		// The Frame's Bytes go on the wire unchanged — the message was
		// encoded exactly once by the fabric.
		body = p.Bytes
	default:
		enc := wire.GetBuffer()
		defer wire.PutBuffer(enc)
		if err := wire.EncodeMessage(enc, payload); err != nil {
			r.dropped.Add(1)
			return false
		}
		body = enc.Bytes()
	}
	if len(body) > maxMessage {
		r.dropped.Add(1)
		return false
	}
	var hb [maxMsgHeader]byte
	head := r.header(hb[:0], from, to, r.opt.MTU-len(body))
	if n := uint64(len(head) + len(body)); class == runtime.ClassData {
		r.dataBytes.Add(n)
		r.dataFrames.Add(1)
	} else {
		r.ctlBytes.Add(n)
		r.ctlFrames.Add(1)
	}
	dup := class == runtime.ClassControl && r.duplicate()
	if len(head)+len(body) > r.opt.MTU {
		r.sendFragmented(from, to, body, dup)
		return true
	}
	// One pooled buffer carries header and body; the common in-MTU path
	// hands it to the pacer without a single heap allocation.
	w := wire.GetBuffer()
	w.PutRaw(head)
	w.PutRaw(body)
	r.xmit(from, to, w.Bytes(), w, &r.sent, nil, dup)
	return true
}

// header appends to dst the transport header of a message frame from
// local peer from to to, whose body leaves room bytes of the MTU: a
// transmit stamp when from has stamped no frame to to in the last
// stampEvery, and the echo of the newest stamp to sent and from has not
// yet echoed, with its hold. It commits both — the stamp's time, the echo
// as paid — only when they fit; a frame without room for them carries the
// bare indices (or, past the MTU, goes fragmented and carries none), and
// the stamp and echo wait for the next frame.
func (r *Runtime) header(dst []byte, from, to int, room int) []byte {
	r.peerMu[from].Lock()
	defer r.peerMu[from].Unlock()
	now := time.Since(r.start)
	e := r.echo[from][to]
	var h msgHeader
	if s := stampAt(now); e.stamped == 0 || s >= e.stamped+uint64(stampEvery/time.Microsecond) {
		h.stamp = s
	}
	if e.owed != 0 {
		h.echo, h.hold = e.owed, uint64((now-e.at)/time.Microsecond)
	}
	b := h.appendTo(dst, from, to)
	if len(b) > room {
		return msgHeader{}.appendTo(dst, from, to)
	}
	if h != (msgHeader{}) {
		if h.stamp != 0 {
			e.stamped = h.stamp
		}
		e.owed = 0
		r.echo[from][to] = e
	}
	return b
}

// sendFragmented splits an over-MTU frame into a fragment train, registers
// it with the sender's retransmit buffer, and submits every fragment to
// the paced writer. dup sends the train a second time behind the first, so
// the far side reassembles and delivers the frame twice.
func (r *Runtime) sendFragmented(from, to int, body []byte, dup bool) {
	fs := r.frags[from]
	stream := fs.nextID()
	frags := SplitFragments(stream, body, r.opt.fragPayload())
	dgrams := make([][]byte, len(frags))
	for i, f := range frags {
		var w wire.Buffer
		w.PutByte(frameFrag)
		w.PutUvarint(uint64(from))
		w.PutUvarint(uint64(to))
		wire.EncodeFragment(&w, f)
		dgrams[i] = w.Bytes()
	}
	// The datagrams embed copies of body's chunks (wire.Buffer appends), so
	// the retransmit buffer holds them safely past the caller's frame.
	// Because that buffer retains them indefinitely for NACK service, they
	// are built in plain (unpooled) buffers and travel with buf == nil.
	fs.register(stream, to, dgrams)
	for _, d := range dgrams {
		r.xmit(from, to, d, nil, &r.sent, &r.fragsSent, false)
	}
	if dup {
		for _, d := range dgrams {
			r.xmit(from, to, d, nil, nil, nil, false)
		}
	}
	r.fragStreams.Add(1)
	for {
		cur := r.maxStreamFrags.Load()
		if uint64(len(dgrams)) <= cur || r.maxStreamFrags.CompareAndSwap(cur, uint64(len(dgrams))) {
			break
		}
	}
}

// FragStats reports the fragmentation layer's counters across this
// runtime's local peers.
type FragStats struct {
	// StreamsSent counts fragment trains transmitted (frames over the MTU).
	StreamsSent uint64
	// FragsSent counts fragment datagrams submitted (first transmissions).
	FragsSent uint64
	// MaxStreamFrags is the longest train sent — MaxStreamFrags × the
	// fragment payload bounds the largest frame that crossed the wire.
	MaxStreamFrags uint64
	// Retransmits counts fragments resent in answer to NACKs.
	Retransmits uint64
	// NacksSent counts repair requests this runtime's receivers issued.
	NacksSent uint64
	// Reassembled counts frames successfully rebuilt from fragments.
	Reassembled uint64
	// ReassemblyEvicted counts partial streams dropped (stale, oversized,
	// or displaced by the memory bound).
	ReassemblyEvicted uint64
}

// FragStats returns the fragmentation counters.
func (r *Runtime) FragStats() FragStats {
	st := FragStats{
		StreamsSent:    r.fragStreams.Load(),
		FragsSent:      r.fragsSent.Load(),
		MaxStreamFrags: r.maxStreamFrags.Load(),
		Retransmits:    r.retransmits.Load(),
		NacksSent:      r.nacksSent.Load(),
	}
	for _, p := range r.local {
		done, evicted := r.reasm[p].Stats()
		st.Reassembled += done
		st.ReassemblyEvicted += evicted
	}
	return st
}

// noteRTT folds one RTT sample for (local, remote) into the EWMA.
func (r *Runtime) noteRTT(local, remote int, sample time.Duration) {
	if sample < 0 {
		return
	}
	r.peerMu[local].Lock()
	if old, ok := r.rtt[local][remote]; ok {
		r.rtt[local][remote] = time.Duration((1-rttAlpha)*float64(old) + rttAlpha*float64(sample))
	} else {
		r.rtt[local][remote] = sample
	}
	r.peerMu[local].Unlock()
}

// observe handles one RTT sample at a local peer: it feeds the smoothed
// table and, when the remote's coordinate is known from gossip, runs one
// Vivaldi update — the passive measurements the transport already collects
// are exactly the algorithm's input.
func (r *Runtime) observe(local, remote int, sample time.Duration) {
	if sample < 0 {
		return
	}
	r.noteRTT(local, remote, sample)
	r.rttSamples.Add(1)
	r.coordMu.RLock()
	c, e := r.peerCoords[remote], r.peerErrs[remote]
	r.coordMu.RUnlock()
	if c != nil {
		// The embedding is in one-way milliseconds; a datagram RTT is two
		// flights.
		r.nodes[local].Update(sample/2, c, e)
	}
}

// noteCoord caches the latest coordinate gossiped by a peer.
func (r *Runtime) noteCoord(peer int, c vivaldi.Coordinate, errEst float64) {
	r.coordMu.Lock()
	r.peerCoords[peer] = c
	r.peerErrs[peer] = errEst
	r.coordMu.Unlock()
}

// recvLoop reads datagrams for one shared socket until it closes,
// demuxing each frame to its destination peer. The read buffer comes from
// the shared pool and is sized from the MTU — datagrams never exceed it
// (over-MTU frames travel fragmented) — so a thousand sockets do not pin
// 64 KiB each. The loop owns the buffer for its lifetime; nothing
// downstream retains it (decoders copy what they keep).
func (r *Runtime) recvLoop(s *lsock) {
	defer r.wg.Done()
	size := r.opt.MTU + 512
	if size < 2048 {
		size = 2048
	}
	pb := wire.GetBuffer()
	defer wire.PutBuffer(pb)
	buf := pb.Reserve(size)
	for {
		n, _, err := s.conn.ReadFromUDP(buf)
		if err != nil {
			return // socket closed by Shutdown
		}
		r.handleDatagram(buf[:n])
	}
}

// handleDatagram unpacks one datagram: a coalesced train is walked frame
// by frame, anything else is a single frame.
func (r *Runtime) handleDatagram(b []byte) {
	if len(b) > 0 && b[0] == frameTrain {
		if err := wire.ForEachTrainFrame(b[1:], r.handleFrame); err != nil {
			r.dropped.Add(1)
		}
		return
	}
	r.handleFrame(b)
}

// handleFrame parses one frame, accepting it for whichever local peer it
// addresses — frames for every peer multiplexed behind a socket arrive on
// that one socket. Decoding runs on the receive goroutine; only the
// decoded message enters the mailbox, so nothing retains the read buffer.
func (r *Runtime) handleFrame(b []byte) {
	rd := wire.NewReader(b)
	kind, err := rd.Byte()
	if err != nil {
		return
	}
	srcU, err := rd.Uvarint()
	if err != nil || srcU >= uint64(r.n) {
		return
	}
	dstU, err := rd.Uvarint()
	if err != nil || dstU >= uint64(r.n) || !r.isLocal[dstU] {
		return // misrouted or stale directory entry
	}
	peer := int(dstU)
	src := int(srcU)
	now := time.Since(r.start)

	switch kind {
	case framePing:
		stamp, err := rd.Varint()
		if err != nil || r.down[peer].Load() {
			return
		}
		if c, e, ok := readCoord(rd); ok {
			r.noteCoord(src, c, e)
		}
		w := wire.GetBuffer()
		w.PutByte(framePong)
		w.PutUvarint(uint64(peer))
		w.PutUvarint(srcU)
		w.PutVarint(stamp) // the pinger's own stamp, echoed as it came
		w.PutVarint(0)     // replied immediately: no hold
		putCoord(w, r.nodes[peer])
		r.xmit(peer, src, w.Bytes(), w, nil, nil, false)

	case framePong:
		stamp, err := rd.Varint()
		if err != nil {
			return
		}
		hold, err := rd.Varint()
		if err != nil {
			return
		}
		if c, e, ok := readCoord(rd); ok {
			r.noteCoord(src, c, e)
		}
		r.observe(peer, src, rttSample(now, uint64(stamp), uint64(hold)))

	case frameHdr, frameHdr | hdrStamp, frameHdr | hdrEcho, frameHdr | hdrStamp | hdrEcho:
		h, ok := readMsgHeader(kind, rd)
		if !ok || r.down[peer].Load() {
			r.dropped.Add(1)
			return
		}
		if h.stamp != 0 {
			r.peerMu[peer].Lock()
			e := r.echo[peer][src]
			e.owed, e.at = h.stamp, now
			r.echo[peer][src] = e
			r.peerMu[peer].Unlock()
		}
		if h.echo != 0 {
			r.observe(peer, src, rttSample(now, h.echo, h.hold))
		}
		r.deliverWire(peer, src, rd.Rest())

	case frameFrag:
		if r.down[peer].Load() {
			r.dropped.Add(1)
			return
		}
		f, err := wire.DecodeFragment(rd)
		if err != nil || rd.Remaining() != 0 {
			return
		}
		msg, err := r.reasm[peer].Add(src, f, time.Now())
		if err != nil {
			r.dropped.Add(1)
			return
		}
		if msg != nil {
			r.deliverWire(peer, src, msg)
		}

	case frameNack:
		// The down gate covers repair too: a "down" peer must not keep
		// serving retransmissions (nor push them toward a peer it regards
		// as down) or failure injection would leak deliveries.
		if r.down[peer].Load() || r.down[src].Load() {
			return
		}
		n, err := wire.DecodeNack(rd)
		if err != nil || rd.Remaining() != 0 || len(n.Missing) == 0 {
			return
		}
		r.resendFragments(peer, src, n)

	default:
		r.dropped.Add(1)
	}
}

// deliverWire decodes one complete wire frame addressed to a local peer —
// a single-datagram message frame's body or a reassembled fragment
// stream — and posts it into the peer's mailbox. It always queues (Post,
// never Exec): the handler runs on the peer's own goroutine, so a slow
// handler never stalls the socket's receive loop and the other peers
// behind it.
func (r *Runtime) deliverWire(peer, src int, frame []byte) {
	msg, err := wire.DecodeMessage(frame)
	if err != nil {
		r.dropped.Add(1)
		return
	}
	if m, ok := msg.(*wire.Envelope); ok {
		// The envelope carries no SentAt: the sender's clock base is not
		// the receiver's. Set it in the receiver's frame from the
		// transport's measured one-way flight time — the peer derives
		// exactly that from it (UdpCC measures RTT/2 at the transport, not
		// via host timestamps).
		m.SentAt = r.sentAt(peer, src)
	}
	r.hmu.RLock()
	h := r.hands[peer]
	r.hmu.RUnlock()
	if h == nil {
		r.dropped.Add(1)
		return
	}
	// Report the wire-frame length, not the datagram's: it is the size
	// the sending fabric charged, so accounting agrees across backends.
	size := len(frame)
	if r.boxes[peer].Post(func() { h(src, msg, size) }) {
		r.delivered.Add(1)
	} else {
		r.dropped.Add(1)
	}
}

// sentAt computes the receiver-frame transmit stamp for an arriving
// summary: local time now minus the measured one-way flight to the sender.
func (r *Runtime) sentAt(peer, src int) time.Duration {
	flight := defaultLatency
	if d, ok := r.Measured(peer, src); ok {
		flight = d
	}
	return time.Since(r.start) - flight
}

// resendFragments answers a NACK at the original sender: the still-buffered
// fragment datagrams of the stream are resubmitted to the paced writer.
// A stream already evicted from the retransmit buffer is simply gone — the
// receiver ages the partial stream out and the protocol layers above
// (reconciliation, the topology service) repair the loss.
func (r *Runtime) resendFragments(peer, src int, n wire.Nack) {
	dgrams := r.frags[peer].lookup(n.Stream, src)
	if dgrams == nil {
		return
	}
	for _, idx := range n.Missing {
		if int(idx) >= len(dgrams) {
			continue
		}
		// Retransmit buffer keeps owning the datagram: buf stays nil.
		r.xmit(peer, src, dgrams[idx], nil, &r.retransmits, nil, false)
	}
}

// --- probing ---

// stampAt returns the transmit stamp at d since the runtime's start: µs,
// never 0, since 0 is the "no echo" sentinel in the frame header. A µs
// stamp at t ≈ 20 s is 4 varint bytes where a ns one was 6, and truncating
// both stamps and the hold to µs moves an RTT sample by under 2 µs.
func stampAt(d time.Duration) uint64 {
	if s := uint64(d / time.Microsecond); s != 0 {
		return s
	}
	return 1
}

// rttSample is the RTT a peer measures at local time now from the echo of
// its own µs transmit stamp and the remote's µs hold, or −1 (no sample)
// when the two sum past now: the stamp was taken before now and the hold
// lies inside the flight, so a larger sum is corrupt or hostile. Bounding
// by now instead of by a constant keeps the arithmetic in range for as
// long as the runtime's clock is (≈ 292 years).
func rttSample(now time.Duration, echo, hold uint64) time.Duration {
	us := uint64(now / time.Microsecond)
	if now < 0 || echo > us || hold > us-echo {
		return -1
	}
	return now - time.Duration(echo+hold)*time.Microsecond
}

// sendPing writes one RTT probe from a local peer, carrying its Vivaldi
// coordinate.
func (r *Runtime) sendPing(from, to int) {
	w := wire.GetBuffer()
	w.PutByte(framePing)
	w.PutUvarint(uint64(from))
	w.PutUvarint(uint64(to))
	w.PutVarint(int64(stampAt(time.Since(r.start))))
	putCoord(w, r.nodes[from])
	r.xmit(from, to, w.Bytes(), w, nil, nil, false)
}

// putCoord appends a coordinate extension to a probe frame.
func putCoord(w *wire.Buffer, n *vivaldi.Node) {
	c, e := n.Snapshot()
	w.PutCoordExt(c, e)
}

// readCoord reads the optional trailing coordinate extension of a probe
// frame. Frames from binaries predating the extension simply end here.
// Malformed extensions are ignored rather than poisoning the probe, and so
// is a coordinate without exactly vivaldi.Dims finite components or with
// an error estimate outside [0, 1]: a foreign-sized coordinate would
// corrupt distance computations in CoordError and the planner's
// clustering, and a non-finite one, once cached, would hand NaN to both.
func readCoord(rd *wire.Reader) (vivaldi.Coordinate, float64, bool) {
	c, e, err := rd.CoordExt()
	if err != nil || len(c) != vivaldi.Dims || !vivaldi.Finite(c, e) || e < 0 || e > 1 {
		return nil, 0, false
	}
	return vivaldi.Coordinate(c), e, true
}

// --- decentralized Vivaldi ---

// Gossip runs coordinate gossip rounds, sleeping wait after each for the
// pongs to land: each local peer probes fanout random peers (every peer
// when fanout <= 0), drawn afresh every round of every call, with a
// coordinate-carrying ping; each pong delivers an RTT sample (Latency's
// table) plus the responder's coordinate — one Vivaldi update. Every
// process of a federation gossips: a peer's coordinate is only fitted from
// RTTs its own process measures. The prototype let Vivaldi run "for at
// least ten rounds before interconnecting operators".
func (r *Runtime) Gossip(rounds, fanout int, wait time.Duration) {
	var targets []int
	for k := 0; k < rounds; k++ {
		if r.closed.Load() {
			return
		}
		for _, p := range r.local {
			targets = r.drawTargets(targets[:0], p, fanout)
			for _, q := range targets {
				r.sendPing(p, q)
			}
		}
		time.Sleep(wait)
	}
}

// drawTargets appends local peer p's probe targets for one round to dst:
// fanout distinct others, drawn one at a time so a round costs its fan-out,
// or every other peer in random order when fanout <= 0 or reaches them all.
func (r *Runtime) drawTargets(dst []int, p, fanout int) []int {
	r.gossipMu.Lock()
	defer r.gossipMu.Unlock()
	if fanout <= 0 || fanout >= r.n-1 {
		for _, q := range r.gossipRng.Perm(r.n) {
			if q != p {
				dst = append(dst, q)
			}
		}
		return dst
	}
	for len(dst) < fanout {
		if q := r.gossipRng.Intn(r.n); q != p && !slices.Contains(dst, q) {
			dst = append(dst, q)
		}
	}
	return dst
}

// Coordinates returns this process's view of every peer's coordinate:
// local peers report their node state, remote peers the last coordinate
// they gossiped. known[i] is false where nothing has been heard yet —
// planning from coordinates needs the full federation covered.
func (r *Runtime) Coordinates() ([]vivaldi.Coordinate, []float64, []bool) {
	coords := make([]vivaldi.Coordinate, r.n)
	errs := make([]float64, r.n)
	known := make([]bool, r.n)
	for p := 0; p < r.n; p++ {
		if r.isLocal[p] {
			coords[p], errs[p] = r.nodes[p].Snapshot()
			known[p] = true
		}
	}
	r.coordMu.RLock()
	for p := 0; p < r.n; p++ {
		if !known[p] && r.peerCoords[p] != nil {
			coords[p] = r.peerCoords[p].Clone()
			errs[p] = r.peerErrs[p]
			known[p] = true
		}
	}
	r.coordMu.RUnlock()
	return coords, errs, known
}

// CoordError measures embedding quality against the transport's own
// measurements: the median over (local, remote) pairs with both a known
// coordinate and a measured RTT of |coordinate distance - measured one-way|
// in milliseconds, plus the number of pairs compared. Convergence logging
// and tests assert this shrinks below a tolerance.
func (r *Runtime) CoordError() (medianMs float64, pairs int) {
	coords, _, known := r.Coordinates()
	var errs []float64
	for _, p := range r.local {
		for q := 0; q < r.n; q++ {
			if q == p || !known[q] {
				continue
			}
			m, ok := r.Measured(p, q)
			if !ok {
				continue
			}
			pred := coords[p].Dist(coords[q])
			actual := float64(m) / float64(time.Millisecond)
			errs = append(errs, math.Abs(pred-actual))
		}
	}
	if len(errs) == 0 {
		return 0, 0
	}
	sort.Float64s(errs)
	return errs[len(errs)/2], len(errs)
}
