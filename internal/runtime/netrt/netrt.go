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
// the reliable large-message path: MTU-sized fragments, NACK-driven
// selective retransmission from a bounded retransmit buffer, and bounded
// reassembly with stale-stream eviction, for any frame up to maxMessage;
// every outgoing datagram is token-bucket paced.
//
// The files: netrt.go the sockets, the two per-peer records and the
// receive dispatch; pacer.go the fault point and the paced writer;
// header.go the transport header and the per-pair RTT; probe.go the
// probes and Vivaldi; frag.go fragmentation and repair; stats.go the
// counters.
package netrt

import (
	"fmt"
	"math/rand"
	"net"
	"net/netip"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/runtime"
	"repro/internal/runtime/actor"
	"repro/internal/vivaldi"
	"repro/internal/wire"
)

// maxDatagram is the absolute UDP payload ceiling; the configured MTU is
// clamped to it.
const maxDatagram = 65507

// minMTU keeps the fragment payload positive after the framing headroom.
const minMTU = 2 * fragHeadroom

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
	o.MTU = min(max(o.MTU, minMTU), maxDatagram)
	if o.Pace == 0 {
		o.Pace = 8 << 20
	}
	o.Pace = max(o.Pace, 0) // negative: unpaced
	o.PeersPerSocket = max(o.PeersPerSocket, 1)
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
	start   time.Time
	opt     Options
	planRng *rand.Rand

	// Two records per peer index: lps[p] is all a hosted peer's state (nil
	// for a peer hosted elsewhere), dests[p] where every peer is reached.
	lps   []*localPeer
	dests []dest

	down   []atomic.Bool
	closed atomic.Bool
	wg     sync.WaitGroup
	done   chan struct{} // closed by Shutdown; stops pacers and the sweeper

	// The shared local sockets, each with its receive loop and paced
	// writer.
	socks []*lsock

	// Fragmentation counters (see FragStats).
	fragStreams, fragsSent, retransmits, nacksSent atomic.Uint64
	maxStreamFrags                                 atomic.Uint64

	// rttSamples counts the RTT samples the local peers took, from echoes
	// and pongs alike.
	rttSamples atomic.Uint64

	// The last coordinate gossiped per peer (probe.go), for planning and
	// for feeding the local peers' Vivaldi updates.
	coordMu sync.RWMutex
	heard   []heardCoord

	// pairDelay is the synthetic latency topology (Options.PairDelay),
	// swappable mid-run via SetPairDelay.
	pairDelay atomic.Pointer[func(from, to int) time.Duration]

	// Simulated loss (float64 bits; 0 = none), rolled in lost for every
	// outgoing frame (SetLoss, which the chaos harness ramps); ctrlDup
	// (SetCtrlDup) is rolled in duplicate from the same source.
	loss    atomic.Uint64
	ctrlDup atomic.Uint64
	lossMu  sync.Mutex
	lossRng *rand.Rand

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
	// headerBytes counts the transport header bytes of the in-MTU frames
	// Send writes (NetStats.HeaderBytes).
	headerBytes atomic.Uint64

	// Datagram-level counters (see NetStats): datagrams actually written,
	// trains among them, and the frames those trains carried.
	datagrams, trains, trainFrames atomic.Uint64
}

// localPeer is everything a Runtime keeps for one peer it hosts: its
// mailbox (the peer's serialization domain) and delivery handler, the
// socket it shares, its send-side fragment state (stream ids and the
// retransmit buffer) and its bounded reassembler, its Vivaldi node, and its
// state toward each remote it exchanges frames with.
type localPeer struct {
	box   *actor.Mailbox
	hand  atomic.Pointer[runtime.Handler]
	sock  *lsock
	frags *fragSender
	reasm *Reassembler
	node  *vivaldi.Node

	// mu guards pairs; the receive loop and Send both touch it.
	mu    sync.Mutex
	pairs map[int]pair
}

// dest is where a peer is reached: the pacer's alloc-free write key and the
// peer's address group, the key frames share a train under, common to the
// peers multiplexed behind one remote socket.
type dest struct {
	port  netip.AddrPort
	group int
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

// clockStart is a runtime's clock origin, its process's start; a variable
// so tests can start runtimes as processes started apart would.
var clockStart = time.Now

// assemble wires an already-bound socket set into a running Runtime.
// conns is indexed by peer; local peers sharing a socket hold the same
// *net.UDPConn, and assemble groups them into one lsock with one receive
// loop and one paced writer (rate and burst scaled by the peer count, so
// a shared socket is not throttled below what its peers had separately).
func assemble(addrs []*net.UDPAddr, local []int, conns []*net.UDPConn, opt Options) *Runtime {
	opt = opt.withDefaults()
	n := len(addrs)
	r := &Runtime{
		n:         n,
		local:     append([]int(nil), local...),
		start:     clockStart(),
		opt:       opt,
		planRng:   rand.New(rand.NewSource(opt.Seed)),
		lps:       make([]*localPeer, n),
		dests:     make([]dest, n),
		down:      make([]atomic.Bool, n),
		done:      make(chan struct{}),
		heard:     make([]heardCoord, n),
		lossRng:   rand.New(rand.NewSource(opt.Seed*31337 + 17)),
		gossipRng: rand.New(rand.NewSource(opt.Seed ^ 0x5deece66d)),
	}
	if opt.PairDelay != nil {
		pd := opt.PairDelay
		r.pairDelay.Store(&pd)
	}
	// Address groups: peers sharing a remote socket share a train
	// destination.
	groups := map[string]int{}
	for p, a := range addrs {
		key := a.String()
		id, ok := groups[key]
		if !ok {
			id = len(groups)
			groups[key] = id
		}
		ap := a.AddrPort()
		r.dests[p] = dest{port: netip.AddrPortFrom(ap.Addr().Unmap(), ap.Port()), group: id}
	}
	sockIdx := map[*net.UDPConn]*lsock{}
	for _, p := range local {
		s := sockIdx[conns[p]]
		if s == nil {
			s = &lsock{conn: conns[p]}
			sockIdx[conns[p]] = s
			r.socks = append(r.socks, s)
		}
		s.peers = append(s.peers, p)
		lp := &localPeer{
			box:   actor.NewMailbox(),
			sock:  s,
			frags: newFragSender(2 * maxMessage),
			reasm: NewReassembler((opt.MTU - 32) / 5), // one NACK must fit one datagram
			node:  vivaldi.NewNode(rand.New(rand.NewSource(opt.Seed*7919 + int64(p) + 1))),
			pairs: make(map[int]pair),
		}
		r.lps[p] = lp
		r.wg.Add(1)
		go func() {
			defer r.wg.Done()
			lp.box.Loop()
		}()
	}
	baseBurst := max(float64(64<<10), float64(4*opt.MTU))
	ct := pacerCounters{&r.dropped, &r.datagrams, &r.trains, &r.trainFrames}
	for _, s := range r.socks {
		if opt.ReadBuffer > 0 {
			_ = s.conn.SetReadBuffer(opt.ReadBuffer)
		}
		k := float64(len(s.peers))
		s.pacer = newPacer(s.conn, pacerOptions{
			rate:  float64(opt.Pace) * k,
			burst: min(baseBurst*k, 16<<20),
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
		rts[gi] = assemble(addrs, g, groupConns, opt)
	}
	return rts, directory, nil
}

// --- runtime.Runtime ---

// NumPeers returns the federation size (all processes combined).
func (r *Runtime) NumPeers() int { return r.n }

// Local reports whether a peer is hosted by this Runtime.
func (r *Runtime) Local(peer int) bool {
	return peer >= 0 && peer < r.n && r.lps[peer] != nil
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
	if !r.Local(peer) {
		return false
	}
	return r.lps[peer].box.Exec(fn)
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
		r.lps[p].box.Close()
	}
	r.wg.Wait()
}

// --- runtime.Transport ---

// Handle registers a local peer's delivery handler. For a peer this
// Runtime does not host it does nothing: no frame is delivered to one.
func (r *Runtime) Handle(peer int, h runtime.Handler) {
	if lp := r.lps[peer]; lp != nil {
		lp.hand.Store(&h)
	}
}

// SetDown gates a peer locally: a down local peer neither sends nor
// receives; marking a remote peer down stops this process from sending to
// it. Other processes keep their own view — a real deployment has no
// global kill switch.
func (r *Runtime) SetDown(peer int, down bool) { r.down[peer].Store(down) }

// Down reports this process's view of a peer's gate.
func (r *Runtime) Down(peer int) bool { return r.down[peer].Load() }

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
	if from == to || to < 0 || to >= r.n || !r.Local(from) {
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
	r.headerBytes.Add(uint64(len(head)))
	w := wire.GetBuffer()
	w.PutRaw(head)
	w.PutRaw(body)
	r.xmit(from, to, w.Bytes(), w, &r.sent, nil, dup)
	return true
}

// recvLoop reads datagrams for one shared socket until it closes,
// demuxing each frame to its destination peer. The read buffer comes from
// the shared pool and is sized from the MTU — datagrams never exceed it
// (over-MTU frames travel fragmented) — so a thousand sockets do not pin
// 64 KiB each. The loop owns the buffer for its lifetime; nothing
// downstream retains it (decoders copy what they keep).
func (r *Runtime) recvLoop(s *lsock) {
	defer r.wg.Done()
	pb := wire.GetBuffer()
	defer wire.PutBuffer(pb)
	buf := pb.Reserve(max(r.opt.MTU+512, 2048))
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
// Every frame it refuses — one it cannot address (misrouted, or a stale
// directory entry) or read, one to a down peer, a repair request it cannot
// serve — is counted once in dropped.
func (r *Runtime) handleFrame(b []byte) {
	if !r.acceptFrame(b) {
		r.dropped.Add(1)
	}
}

// acceptFrame is handleFrame's body: it reports false for a frame refused
// before it reached a mailbox, and true for one it handled (deliverWire
// counts its own outcome).
func (r *Runtime) acceptFrame(b []byte) bool {
	rd := wire.NewReader(b)
	kind, err := rd.Byte()
	if err != nil {
		return false
	}
	srcU, err := rd.Uvarint()
	if err != nil || srcU >= uint64(r.n) {
		return false
	}
	dstU, err := rd.Uvarint()
	if err != nil || dstU >= uint64(r.n) || r.lps[dstU] == nil {
		return false
	}
	peer, src, lp := int(dstU), int(srcU), r.lps[dstU]
	now := time.Since(r.start)

	switch kind {
	case framePing, framePong:
		stamp, err := rd.Uvarint()
		c, e, ok := readCoord(rd)
		if err != nil || !ok || r.down[peer].Load() {
			return false
		}
		r.noteCoord(src, c, e)
		if kind == framePong {
			r.observe(peer, src, rttSample(now, stamp, 0)) // replied at once: no hold
			return true
		}
		r.sendProbe(framePong, peer, src, stamp) // the pinger's stamp, echoed as it came

	case frameHdr, frameHdr | hdrStamp, frameHdr | hdrEcho, frameHdr | hdrStamp | hdrEcho:
		h, ok := readMsgHeader(kind, rd)
		if !ok || r.down[peer].Load() {
			return false
		}
		if h.stamp != 0 {
			lp.mu.Lock()
			e := lp.pairs[src]
			e.owed, e.at = h.stamp, now
			lp.pairs[src] = e
			lp.mu.Unlock()
		}
		if h.echo != 0 {
			r.observe(peer, src, rttSample(now, h.echo, h.hold))
		}
		r.deliverWire(peer, src, rd.Rest(), now)

	case frameFrag:
		if r.down[peer].Load() {
			return false
		}
		f, err := wire.DecodeFragment(rd)
		if err != nil || rd.Remaining() != 0 {
			return false
		}
		msg, first, err := lp.reasm.Add(src, f, r.start.Add(now))
		if err != nil {
			return false
		}
		if msg != nil {
			r.deliverWire(peer, src, msg, first.Sub(r.start))
		}

	case frameNack:
		// The down gate covers repair too: a "down" peer must not keep
		// serving retransmissions (nor push them toward a peer it regards
		// as down) or failure injection would leak deliveries.
		if r.down[peer].Load() || r.down[src].Load() {
			return false
		}
		n, err := wire.DecodeNack(rd)
		if err != nil || rd.Remaining() != 0 || len(n.Missing) == 0 {
			return false
		}
		r.resendFragments(peer, src, n)

	default:
		return false
	}
	return true
}

// deliverWire decodes one complete wire frame addressed to a local peer —
// a single-datagram message frame's body or a reassembled fragment
// stream — and posts it into the peer's mailbox. It always queues (Post,
// never Exec): the handler runs on the peer's own goroutine, so a slow
// handler never stalls the socket's receive loop and the other peers
// behind it. arrived is when, on the runtime's clock, the frame's first
// datagram came in.
func (r *Runtime) deliverWire(peer, src int, frame []byte, arrived time.Duration) {
	msg, err := wire.DecodeMessage(frame)
	if err != nil {
		r.dropped.Add(1)
		return
	}
	lp := r.lps[peer]
	// No frame carries a SentAt: the sender's clock base is not the
	// receiver's. Set it on the receiver's clock from the transport's
	// measured one-way flight time — the peer derives exactly that from it
	// (UdpCC measures RTT/2 at the transport, not via host timestamps) —
	// before the frame's first datagram arrived: a fragment train's repair
	// wait is flight too, and a receiver that took it for none would run
	// an installed query's frame behind its sender's by that wait.
	msg = wire.StampSentAt(msg, arrived-r.Latency(peer, src))
	hp := lp.hand.Load()
	if hp == nil || *hp == nil {
		r.dropped.Add(1)
		return
	}
	h := *hp
	// Report the wire-frame length, not the datagram's: it is the size
	// the sending fabric charged, so accounting agrees across backends.
	size := len(frame)
	if lp.box.Post(func() { h(src, msg, size) }) {
		r.delivered.Add(1)
	} else {
		r.dropped.Add(1)
	}
}
