package netrt

import (
	"encoding/binary"
	"math"
	"net"
	"net/netip"
	"sync/atomic"
	"time"

	"repro/internal/wire"
)

// This file is the outgoing path below Send: the one fault point every
// frame passes (xmit: simulated loss, control duplication, the synthetic
// pair delay) and the paced, train-packing writer of each shared socket.

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

// lost is the one loss point: one roll per frame — before the pair delay
// and before the pacer packs it, so loss statistics do not depend on how
// many frames share a datagram. With no loss set it costs one atomic load.
func (r *Runtime) lost() bool {
	p := r.loss.Load()
	if p == 0 {
		return false
	}
	r.lossMu.Lock()
	defer r.lossMu.Unlock()
	return r.lossRng.Float64() < math.Float64frombits(p)
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

// xmit sends one outgoing frame: the simulated-loss roll, the hold for the
// synthetic pair delay when a topology is configured, then the sending
// peer's paced writer. buf, when non-nil, is the pooled buffer backing b —
// xmit owns it whether or not the frame gets through. c1/c2 (either may be
// nil) increment only when the pacer accepts the frame. dup sends a copy
// right behind the frame, under the same loss roll and the same hold. The
// no-delay path stays closure- and allocation-free — this sits under every
// heartbeat, fragment, probe, and NACK.
func (r *Runtime) xmit(from, to int, b []byte, buf *wire.Buffer, c1, c2 *atomic.Uint64, dup bool) {
	if r.lost() {
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
	pc, d := r.lps[from].sock.pacer, r.dests[to]
	if pc.submit(b, buf, d.port, d.group) {
		if c1 != nil {
			c1.Add(1)
		}
		if c2 != nil {
			c2.Add(1)
		}
	}
	if cp != nil {
		pc.submit(cp.Bytes(), cp, d.port, d.group)
	}
}

// packet is one frame queued for a paced write. buf, when non-nil, is the
// pooled buffer backing b: the pacer takes ownership on submit and returns
// it to the pool once the bytes are written, packed into a train, or
// dropped. Fragment datagrams travel with buf == nil because the retransmit
// buffer retains them for NACK service. dst is the destination
// address-group id — the key frames share a train under.
type packet struct {
	b   []byte
	buf *wire.Buffer
	to  netip.AddrPort
	dst int
}

// pendTrain is a datagram under construction for one remote socket: the
// frameTrain kind byte followed by length-prefixed frames.
type pendTrain struct {
	buf    *wire.Buffer
	to     netip.AddrPort
	frames int
}

// pacerCounters are the runtime-owned counters a pacer feeds.
type pacerCounters struct {
	dropped     *atomic.Uint64
	datagrams   *atomic.Uint64
	trains      *atomic.Uint64
	trainFrames *atomic.Uint64
}

// pacerOptions tunes one paced socket writer.
type pacerOptions struct {
	rate  float64 // bytes per second; 0 = unpaced
	burst float64
	mtu   int
}

// pacer is one shared socket's single writer: every outgoing frame of
// every peer on the socket — messages, fragments, probes, NACKs — is
// submitted to its queue and written by one goroutine under a token
// bucket, so a multi-fragment install drains at the configured rate
// instead of bursting into the first full queue. Submission never blocks;
// a full queue drops the frame (the loss path NACK repair and
// reconciliation already handle). It only paces and packs: simulated loss
// was rolled before the frame got here (Runtime.xmit).
//
// The writer works in drain passes: the frame that woke it plus whatever
// was queued behind it at that instant — the depth is read once, so a
// producer that keeps the queue non-empty cannot hold a train back. Every
// small frame of the pass joins its destination socket's train. A train is
// written when the next frame would push it past the MTU and when the pass
// ends, and every started train is written before a frame too large for
// one is written through — per-destination order holds, and a heartbeat
// never sits out a paced fragment burst queued behind it. No timer: a frame
// that finds the socket idle is a pass of one, written at once as the bare
// frame it was; a backlogged socket shares datagrams as its backlog allows.
//
// Timestamps (transmit stamps, echo holds) are taken when a frame is
// built, so time spent queued here counts toward the RTT the far side
// measures. That is deliberate: pacer queueing is genuine path delay, the
// same congestion any real bottleneck adds, and the RTT EWMA smooths the
// transient inflation a bulk transfer causes. Consumers wanting uncongested
// floors should probe when idle, as Gossip before planning does.
type pacer struct {
	conn *net.UDPConn
	opt  pacerOptions
	ch   chan packet
	done chan struct{}
	ct   pacerCounters

	// Drain-goroutine state: the token bucket, one train per destination
	// address group (entries are reused forever), and the trains started
	// since the last flushStarted (one cut by the MTU and started again is
	// listed twice; the empty entry is skipped).
	tokens  float64
	last    time.Time
	pending map[int]*pendTrain
	started []*pendTrain
}

// pacerQueue bounds the frames queued behind a paced socket.
const pacerQueue = 8192

func newPacer(conn *net.UDPConn, opt pacerOptions, ct pacerCounters) *pacer {
	return &pacer{
		conn:    conn,
		opt:     opt,
		ch:      make(chan packet, pacerQueue),
		done:    make(chan struct{}),
		ct:      ct,
		pending: map[int]*pendTrain{},
	}
}

// submit queues one frame; it reports false (and counts a drop, releasing
// the pooled buffer) when the queue is full.
func (p *pacer) submit(b []byte, buf *wire.Buffer, to netip.AddrPort, dst int) bool {
	select {
	case p.ch <- packet{b: b, buf: buf, to: to, dst: dst}:
		return true
	default:
		p.ct.dropped.Add(1)
		wire.PutBuffer(buf)
		return false
	}
}

// loop runs drain passes until the pacer is stopped.
func (p *pacer) loop() {
	p.tokens = p.opt.burst
	p.last = time.Now()
	for {
		select {
		case <-p.done:
			return
		case pkt := <-p.ch:
			// The queue's only reader: the frames counted here never block.
			n := len(p.ch)
			p.handle(pkt)
			for ; n > 0; n-- {
				p.handle(<-p.ch)
			}
			p.flushStarted()
		}
	}
}

// flushStarted writes every train the pass has started and not yet written.
func (p *pacer) flushStarted() {
	for _, t := range p.started {
		if t.frames > 0 {
			p.flushTrain(t)
		}
	}
	p.started = p.started[:0]
}

// handle disposes of one frame of a pass: a frame that fits the MTU behind
// the train's kind byte and its own length prefix joins its destination's
// train, anything larger is written through.
func (p *pacer) handle(pkt packet) {
	if 1+trainItem(len(pkt.b)) <= p.opt.mtu {
		p.appendTrain(pkt)
		return
	}
	// Everything appended so far leaves first (order, and no small frame
	// waits out the token bucket behind a burst of these).
	p.flushStarted()
	p.write(pkt.b, pkt.to)
	wire.PutBuffer(pkt.buf)
}

// appendTrain adds a frame to its destination's train, writing the train
// out first when the frame would push it past the MTU.
func (p *pacer) appendTrain(pkt packet) {
	t := p.pending[pkt.dst]
	if t == nil {
		t = &pendTrain{}
		p.pending[pkt.dst] = t
	}
	if t.frames > 0 && t.buf.Len()+trainItem(len(pkt.b)) > p.opt.mtu {
		p.flushTrain(t)
	}
	if t.frames == 0 {
		t.buf = wire.GetBuffer()
		t.buf.PutByte(frameTrain)
		t.to = pkt.to
		p.started = append(p.started, t)
	}
	t.buf.PutBytes(pkt.b)
	t.frames++
	wire.PutBuffer(pkt.buf)
}

// flushTrain writes one train. A train holding a single frame is unwrapped
// to the bare frame — the train framing would cost bytes and a decode step
// for nothing.
func (p *pacer) flushTrain(t *pendTrain) {
	b := t.buf.Bytes()
	if t.frames == 1 {
		_, l := binary.Uvarint(b[1:])
		p.write(b[1+l:], t.to)
	} else {
		p.write(b, t.to)
		p.ct.trains.Add(1)
		p.ct.trainFrames.Add(uint64(t.frames))
	}
	wire.PutBuffer(t.buf)
	t.buf, t.to, t.frames = nil, netip.AddrPort{}, 0
}

// trainItem is the train-datagram cost of an n-byte frame: the frame plus
// its uvarint length prefix.
func trainItem(n int) int {
	l := 1
	for v := uint64(n); v >= 0x80; v >>= 7 {
		l++
	}
	return n + l
}

// write performs the token-bucket wait and the socket write. Token refill
// happens lazily per datagram; waits are sliced so shutdown is never held
// hostage by a low rate.
func (p *pacer) write(b []byte, to netip.AddrPort) {
	if p.opt.rate > 0 {
		need := min(float64(len(b)), p.opt.burst) // oversized datagrams cost at most one full bucket
		for {
			now := time.Now()
			p.tokens = min(p.tokens+now.Sub(p.last).Seconds()*p.opt.rate, p.opt.burst)
			p.last = now
			if p.tokens >= need {
				break
			}
			wait := min(time.Duration((need-p.tokens)/p.opt.rate*float64(time.Second)), 10*time.Millisecond)
			select {
			case <-p.done:
				return
			case <-time.After(wait):
			}
		}
		p.tokens -= need
	}
	// WriteToUDPAddrPort is the allocation-free datagram send — WriteToUDP's
	// sockaddr conversion allocates per call, which the 0 allocs/op send
	// path cannot afford.
	_, _ = p.conn.WriteToUDPAddrPort(b, to)
	p.ct.datagrams.Add(1)
}

// stop ends the drain goroutine; queued frames are abandoned.
func (p *pacer) stop() { close(p.done) }
