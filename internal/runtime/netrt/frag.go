package netrt

import (
	"encoding/binary"
	"fmt"
	"net"
	"net/netip"
	"sync"
	"sync/atomic"
	"time"
	"unsafe"

	"repro/internal/wire"
)

// This file is netrt's reliable large-message machinery: the fragmenter
// that splits an oversized wire frame into MTU-sized pieces, the bounded
// per-receiver Reassembler that puts them back together (with stale-stream
// eviction and NACK-driven repair), the bounded retransmit buffer serving
// those NACKs, and the token-bucket pacer every outgoing datagram flows
// through so a multi-fragment burst does not overrun the first queue it
// meets. Together they turn the transport's one-datagram ceiling into a
// fragmentation threshold: Send carries any frame up to maxMessage.

// fragHeadroom is the datagram budget reserved for the fragment framing:
// frame kind, sender/destination indices, stream id, index, count, and the
// payload length prefix — all varints, 36 bytes in the worst case. The
// remainder of the MTU carries fragment payload.
const fragHeadroom = 64

// SplitFragments splits a frame into fragments of at most maxPayload bytes
// each, all tagged with the stream id. The payloads alias b — callers that
// retain fragments past b's lifetime must copy. A frame that already fits
// in one fragment still yields a single-element train (netrt's Send never
// asks for that; the single-datagram path keeps the lighter message-frame
// layout, whose header carries the RTT stamp and echo when a sample needs
// them; fragments carry neither).
func SplitFragments(stream uint64, b []byte, maxPayload int) []wire.Fragment {
	if maxPayload <= 0 {
		maxPayload = 1
	}
	count := (len(b) + maxPayload - 1) / maxPayload
	if count == 0 {
		count = 1
	}
	out := make([]wire.Fragment, 0, count)
	for i := 0; i < count; i++ {
		lo := i * maxPayload
		hi := lo + maxPayload
		if hi > len(b) {
			hi = len(b)
		}
		out = append(out, wire.Fragment{
			Stream:  stream,
			Index:   uint32(i),
			Count:   uint32(count),
			Payload: b[lo:hi],
		})
	}
	return out
}

// --- reassembly ---

// A Reassembler's bounds. Every limit exists because a UDP peer can be fed
// garbage: without them a hostile (or merely lossy) sender could pin
// unbounded memory in half-finished streams.
const (
	// maxReasmBytes bounds the memory all partial streams hold together:
	// their payload and their part slots (partSlot bytes per fragment a
	// stream announces). The oldest stream is evicted to make room.
	maxReasmBytes = 2 * maxMessage
	// maxReasmStreams bounds concurrent partial streams.
	maxReasmStreams = 64
	// reasmStaleAfter evicts a stream that has received nothing for this
	// long.
	reasmStaleAfter = 3 * time.Second
	// nackDelay is the quiet time before an incomplete stream requests
	// repair, and between repeat requests.
	nackDelay = 40 * time.Millisecond
	// maxNacks bounds repair rounds per stream; afterwards the stream just
	// ages out.
	maxNacks = 20
	// partSlot is what one announced fragment costs a stream before its
	// payload lands: one slice header.
	partSlot = int(unsafe.Sizeof([]byte(nil)))
)

// NackRequest is a repair request Sweep wants sent: the stream's sender
// and the fragment indices still missing.
type NackRequest struct {
	Src     int
	Stream  uint64
	Missing []uint32
}

type reasmKey struct {
	src    int
	stream uint64
}

type reasmStream struct {
	parts    [][]byte
	have     int
	bytes    int       // payload received
	last     time.Time // newest fragment arrival
	lastNack time.Time
	nacks    int
}

// held is the memory a stream counts toward maxReasmBytes.
func (st *reasmStream) held() int { return st.bytes + len(st.parts)*partSlot }

// Reassembler rebuilds fragmented frames per (sender, stream) under hard
// memory bounds. It is safe for concurrent use: the owning peer's receive
// loop calls Add while the runtime's sweeper calls Sweep. Time flows in
// explicitly so tests drive eviction deterministically.
type Reassembler struct {
	maxNackIndices int

	mu      sync.Mutex
	streams map[reasmKey]*reasmStream
	bytes   int

	completed, evicted uint64
}

// NewReassembler builds a bounded reassembler whose repair requests name
// at most maxNackIndices missing fragments, so one NACK fits a datagram.
func NewReassembler(maxNackIndices int) *Reassembler {
	return &Reassembler{maxNackIndices: maxNackIndices, streams: map[reasmKey]*reasmStream{}}
}

// Bytes returns the memory partial streams currently hold: their buffered
// payload plus their part slots.
func (ra *Reassembler) Bytes() int {
	ra.mu.Lock()
	defer ra.mu.Unlock()
	return ra.bytes
}

// Streams returns the number of partial streams currently held.
func (ra *Reassembler) Streams() int {
	ra.mu.Lock()
	defer ra.mu.Unlock()
	return len(ra.streams)
}

// Stats returns cumulative counters: frames fully reassembled and streams
// evicted (stale, oversized, or displaced by the memory bound).
func (ra *Reassembler) Stats() (completed, evicted uint64) {
	ra.mu.Lock()
	defer ra.mu.Unlock()
	return ra.completed, ra.evicted
}

// Add folds one fragment in, retaining f.Payload. It returns the complete
// frame once the stream's last fragment lands, nil while the stream is
// still partial, and an error for fragments no honest splitter produces
// (the stream is evicted then — a sender that contradicts itself cannot be
// reassembled).
func (ra *Reassembler) Add(src int, f wire.Fragment, now time.Time) ([]byte, error) {
	if f.Count == 0 || f.Index >= f.Count {
		return nil, fmt.Errorf("netrt: fragment %d/%d malformed", f.Index, f.Count)
	}
	// An honest fragment train has at least fragHeadroom payload bytes per
	// fragment (the minimum MTU minus the header budget), so Count beyond
	// maxMessage/fragHeadroom cannot describe an acceptable frame; checking
	// first keeps a forged Count from sizing a huge parts slice.
	if int64(f.Count) > maxMessage/fragHeadroom+1 {
		return nil, fmt.Errorf("netrt: fragment count %d exceeds the %d-byte frame bound", f.Count, maxMessage)
	}
	ra.mu.Lock()
	defer ra.mu.Unlock()
	key := reasmKey{src: src, stream: f.Stream}
	st, ok := ra.streams[key]
	if !ok {
		// The part slots are allocated now, before any payload, so they
		// count toward the bound: otherwise one-byte fragments announcing
		// the largest count would each pin 1.5 MB of slots unaccounted.
		slots := int(f.Count) * partSlot
		for len(ra.streams) >= maxReasmStreams || ra.bytes+slots+len(f.Payload) > maxReasmBytes {
			if !ra.evictOldestLocked() {
				break
			}
		}
		st = &reasmStream{parts: make([][]byte, f.Count)}
		ra.streams[key] = st
		ra.bytes += slots
	}
	if int(f.Count) != len(st.parts) {
		ra.dropLocked(key, st)
		return nil, fmt.Errorf("netrt: stream %d changed fragment count", f.Stream)
	}
	st.last = now
	if st.parts[f.Index] != nil {
		return nil, nil // duplicate fragment (retransmit raced the NACK)
	}
	st.parts[f.Index] = f.Payload
	st.have++
	st.bytes += len(f.Payload)
	ra.bytes += len(f.Payload)
	if st.bytes > maxMessage {
		ra.dropLocked(key, st)
		return nil, fmt.Errorf("netrt: stream %d exceeds the %d-byte frame bound", f.Stream, maxMessage)
	}
	// Growth must honour the total bound too, not just stream creation:
	// otherwise maxReasmStreams tiny streams could each swell toward
	// maxMessage and pin maxReasmStreams×maxMessage. Evicting may displace
	// this very stream; the frame is then lost like any other and the
	// protocol layers above repair it.
	for ra.bytes > maxReasmBytes {
		if !ra.evictOldestLocked() {
			break
		}
		if _, alive := ra.streams[key]; !alive {
			return nil, nil
		}
	}
	if st.have < len(st.parts) {
		return nil, nil
	}
	msg := make([]byte, 0, st.bytes)
	for _, p := range st.parts {
		msg = append(msg, p...)
	}
	ra.bytes -= st.held()
	delete(ra.streams, key)
	ra.completed++
	return msg, nil
}

// Sweep evicts streams idle past reasmStaleAfter and returns repair
// requests for incomplete streams that have been quiet for nackDelay and
// still have repair rounds left.
func (ra *Reassembler) Sweep(now time.Time) []NackRequest {
	ra.mu.Lock()
	defer ra.mu.Unlock()
	var reqs []NackRequest
	for key, st := range ra.streams {
		if now.Sub(st.last) >= reasmStaleAfter {
			ra.dropLocked(key, st)
			continue
		}
		if st.nacks >= maxNacks ||
			now.Sub(st.last) < nackDelay || now.Sub(st.lastNack) < nackDelay {
			continue
		}
		missing := make([]uint32, 0, min(len(st.parts)-st.have, ra.maxNackIndices))
		for i, p := range st.parts {
			if p == nil {
				missing = append(missing, uint32(i))
				if len(missing) >= ra.maxNackIndices {
					break
				}
			}
		}
		st.nacks++
		st.lastNack = now
		reqs = append(reqs, NackRequest{Src: key.src, Stream: key.stream, Missing: missing})
	}
	return reqs
}

// dropLocked removes one stream and counts the eviction.
func (ra *Reassembler) dropLocked(key reasmKey, st *reasmStream) {
	ra.bytes -= st.held()
	delete(ra.streams, key)
	ra.evicted++
}

// evictOldestLocked drops the stream with the oldest last-arrival time; it
// reports false when there is nothing left to evict.
func (ra *Reassembler) evictOldestLocked() bool {
	var oldestKey reasmKey
	var oldest *reasmStream
	for key, st := range ra.streams {
		if oldest == nil || st.last.Before(oldest.last) {
			oldestKey, oldest = key, st
		}
	}
	if oldest == nil {
		return false
	}
	ra.dropLocked(oldestKey, oldest)
	return true
}

// --- retransmit buffer ---

// fragSender is one local peer's send-side fragment state: a monotonically
// increasing stream id and a FIFO-bounded buffer of the fragment datagrams
// of recent streams, kept so NACKs can be served without re-encoding (or
// re-reading) the original message.
type fragSender struct {
	mu       sync.Mutex
	next     uint64
	streams  map[uint64]*sentStream
	order    []uint64
	bytes    int
	maxBytes int
}

type sentStream struct {
	to     int
	dgrams [][]byte
	bytes  int
}

func newFragSender(maxBytes int) *fragSender {
	return &fragSender{streams: map[uint64]*sentStream{}, maxBytes: maxBytes}
}

// register stores a stream's encoded fragment datagrams for NACK service,
// evicting oldest streams past the byte bound, and returns the stream id
// the datagrams were built against (the caller allocated it via nextID).
func (fs *fragSender) register(stream uint64, to int, dgrams [][]byte) {
	bytes := 0
	for _, d := range dgrams {
		bytes += len(d)
	}
	fs.mu.Lock()
	defer fs.mu.Unlock()
	fs.streams[stream] = &sentStream{to: to, dgrams: dgrams, bytes: bytes}
	fs.order = append(fs.order, stream)
	fs.bytes += bytes
	for fs.bytes > fs.maxBytes && len(fs.order) > 1 {
		old := fs.order[0]
		fs.order = fs.order[1:]
		if st, ok := fs.streams[old]; ok {
			fs.bytes -= st.bytes
			delete(fs.streams, old)
		}
	}
}

// nextID allocates the next stream id.
func (fs *fragSender) nextID() uint64 {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	fs.next++
	return fs.next
}

// lookup returns the datagrams of a stream if it is still buffered and was
// addressed to `to` — a NACK from anyone else is ignored.
func (fs *fragSender) lookup(stream uint64, to int) [][]byte {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	st, ok := fs.streams[stream]
	if !ok || st.to != to {
		return nil
	}
	return st.dgrams
}

// --- pacing ---

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
		need := float64(len(b))
		if need > p.opt.burst {
			need = p.opt.burst // oversized datagrams cost at most one full bucket
		}
		for {
			now := time.Now()
			p.tokens += now.Sub(p.last).Seconds() * p.opt.rate
			p.last = now
			if p.tokens > p.opt.burst {
				p.tokens = p.opt.burst
			}
			if p.tokens >= need {
				break
			}
			wait := time.Duration((need - p.tokens) / p.opt.rate * float64(time.Second))
			if wait > 10*time.Millisecond {
				wait = 10 * time.Millisecond
			}
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
