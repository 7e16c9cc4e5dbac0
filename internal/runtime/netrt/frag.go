package netrt

import (
	"fmt"
	"sync"
	"time"
	"unsafe"

	"repro/internal/wire"
)

// This file is netrt's reliable large-message machinery: the fragmenter
// that splits an oversized wire frame into MTU-sized pieces, the bounded
// per-receiver Reassembler that puts them back together (with stale-stream
// eviction and NACK-driven repair), and the bounded retransmit buffer
// serving those NACKs. Together with the pacer (pacer.go), which keeps a
// multi-fragment burst from overrunning the first queue it meets, they
// turn the transport's one-datagram ceiling into a fragmentation
// threshold: Send carries any frame up to maxMessage.

// maxMessage bounds one logical frame through the fragmentation path; Send
// drops and counts a larger one. Each local peer's partial-stream memory
// and the sent-fragment memory it holds for NACK service are bounded at
// twice this.
const maxMessage = 4 << 20

// sweepInterval is how often the runtime scans reassemblers for stale
// streams and NACK-worthy gaps.
const sweepInterval = 20 * time.Millisecond

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
	count := max((len(b)+maxPayload-1)/maxPayload, 1)
	out := make([]wire.Fragment, 0, count)
	for i := 0; i < count; i++ {
		lo := i * maxPayload
		hi := min(lo+maxPayload, len(b))
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
	first    time.Time // earliest fragment arrival
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
// frame once the stream's last fragment lands, with the time its first
// fragment arrived, nil while the stream is still partial, and an error for
// fragments no honest splitter produces (the stream is evicted then — a
// sender that contradicts itself cannot be reassembled). The train left its
// sender back to back, so the first arrival, not the last, is one flight
// after the send: a NACK repair round between the two is flight too.
func (ra *Reassembler) Add(src int, f wire.Fragment, now time.Time) ([]byte, time.Time, error) {
	if f.Count == 0 || f.Index >= f.Count {
		return nil, time.Time{}, fmt.Errorf("netrt: fragment %d/%d malformed", f.Index, f.Count)
	}
	// An honest fragment train has at least fragHeadroom payload bytes per
	// fragment (the minimum MTU minus the header budget), so Count beyond
	// maxMessage/fragHeadroom cannot describe an acceptable frame; checking
	// first keeps a forged Count from sizing a huge parts slice.
	if int64(f.Count) > maxMessage/fragHeadroom+1 {
		return nil, time.Time{}, fmt.Errorf("netrt: fragment count %d exceeds the %d-byte frame bound", f.Count, maxMessage)
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
		st = &reasmStream{parts: make([][]byte, f.Count), first: now}
		ra.streams[key] = st
		ra.bytes += slots
	}
	if int(f.Count) != len(st.parts) {
		ra.dropLocked(key, st)
		return nil, time.Time{}, fmt.Errorf("netrt: stream %d changed fragment count", f.Stream)
	}
	st.last = now
	if st.parts[f.Index] != nil {
		return nil, time.Time{}, nil // duplicate fragment (retransmit raced the NACK)
	}
	st.parts[f.Index] = f.Payload
	st.have++
	st.bytes += len(f.Payload)
	ra.bytes += len(f.Payload)
	if st.bytes > maxMessage {
		ra.dropLocked(key, st)
		return nil, time.Time{}, fmt.Errorf("netrt: stream %d exceeds the %d-byte frame bound", f.Stream, maxMessage)
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
			return nil, time.Time{}, nil
		}
	}
	if st.have < len(st.parts) {
		return nil, time.Time{}, nil
	}
	msg := make([]byte, 0, st.bytes)
	for _, p := range st.parts {
		msg = append(msg, p...)
	}
	ra.bytes -= st.held()
	delete(ra.streams, key)
	ra.completed++
	return msg, st.first, nil
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

// sendFragmented splits an over-MTU frame into a fragment train, registers
// it with the sender's retransmit buffer, and submits every fragment to
// the paced writer. dup sends the train a second time behind the first, so
// the far side reassembles and delivers the frame twice.
func (r *Runtime) sendFragmented(from, to int, body []byte, dup bool) {
	fs := r.lps[from].frags
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
				for _, req := range r.lps[p].reasm.Sweep(now) {
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

// resendFragments answers a NACK at the original sender: the still-buffered
// fragment datagrams of the stream are resubmitted to the paced writer.
// A stream already evicted from the retransmit buffer is simply gone — the
// receiver ages the partial stream out and the protocol layers above
// (reconciliation, the topology service) repair the loss.
func (r *Runtime) resendFragments(peer, src int, n wire.Nack) {
	dgrams := r.lps[peer].frags.lookup(n.Stream, src)
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
