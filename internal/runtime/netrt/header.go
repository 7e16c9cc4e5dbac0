package netrt

import (
	"encoding/binary"
	"time"

	"repro/internal/wire"
)

// This file is the message frame's transport header and the per-pair RTT
// it measures: the stamps and echoes a header carries, the smoothed RTT
// their samples feed, and the one-way flight Latency and sentAt read off it.

// Datagram framing: a one-byte frame kind ahead of the header fields. Kind
// 1 was the v5 message header (ns stamps and a class byte), kind 7 the v7
// one (three µs stamps on every frame), and kinds 2 and 3 the probes with
// a dimension-counted, optional coordinate; a datagram of any of them,
// like one of any unknown kind, is dropped.
const (
	frameFrag  = 4  // one fragment of a frame larger than the MTU
	frameNack  = 5  // retransmission request for missing fragments
	frameTrain = 6  // coalesced train of small frames (wire.ForEachTrainFrame)
	frameHdr   = 8  // kinds 8–11: [8|bits][from][to][stamp?][echo hold?] + wire message frame
	framePing  = 12 // RTT probe: [12][from][to][µs stamp][coordinate]
	framePong  = 13 // RTT probe reply: [13][from][to][echoed µs stamp][coordinate]
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

// defaultLatency is Latency's answer for pairs with no RTT measurement yet
// (no traffic and no probe).
const defaultLatency = time.Millisecond

// rttAlpha is the EWMA weight for new RTT samples.
const rttAlpha = 0.3

// pair is a local peer's state toward one remote: the newest stamp received
// from it and not yet echoed, so the next frame back echoes it once with a
// hold time; this peer's own last stamp to it; and the smoothed RTT of the
// samples taken from it, from echoes and pongs alike.
type pair struct {
	owed     uint64        // remote's µs stamp awaiting its echo; 0: none
	at       time.Duration // runtime clock at its arrival
	stamped  uint64        // µs stamp of the last frame stamped to the remote; 0: none
	rtt      time.Duration // smoothed RTT, once measured
	measured bool
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

// header appends to dst the transport header of a message frame from
// local peer from to to, whose body leaves room bytes of the MTU: a
// transmit stamp when from has stamped no frame to to in the last
// stampEvery, and the echo of the newest stamp to sent and from has not
// yet echoed, with its hold. It commits both — the stamp's time, the echo
// as paid — only when they fit; a frame without room for them carries the
// bare indices (or, past the MTU, goes fragmented and carries none), and
// the stamp and echo wait for the next frame.
func (r *Runtime) header(dst []byte, from, to int, room int) []byte {
	lp := r.lps[from]
	lp.mu.Lock()
	defer lp.mu.Unlock()
	now := time.Since(r.start)
	e := lp.pairs[to]
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
		lp.pairs[to] = e
	}
	return b
}

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

// observe handles one RTT sample at a local peer: the first sample of a
// pair seeds its smoothed RTT and later ones fold in at rttAlpha; and when
// the remote's coordinate is known from gossip, it runs one Vivaldi update
// — the passive measurements the transport already collects are exactly
// the algorithm's input. A negative sample is none.
func (r *Runtime) observe(local, remote int, sample time.Duration) {
	if sample < 0 {
		return
	}
	lp := r.lps[local]
	lp.mu.Lock()
	e := lp.pairs[remote]
	if e.measured {
		e.rtt = time.Duration((1-rttAlpha)*float64(e.rtt) + rttAlpha*float64(sample))
	} else {
		e.rtt, e.measured = sample, true
	}
	lp.pairs[remote] = e
	lp.mu.Unlock()
	r.rttSamples.Add(1)
	r.coordMu.RLock()
	c := r.heard[remote]
	r.coordMu.RUnlock()
	if c.coord != nil {
		// The embedding is in one-way milliseconds; a datagram RTT is two
		// flights.
		lp.node.Update(sample/2, c.coord, c.err)
	}
}

// Measured returns the smoothed one-way latency for a pair, if this
// process has measured it from either end.
func (r *Runtime) Measured(a, b int) (time.Duration, bool) {
	if a < 0 || b < 0 || a >= r.n || b >= r.n {
		return 0, false
	}
	for _, ends := range [2][2]int{{a, b}, {b, a}} {
		lp := r.lps[ends[0]]
		if lp == nil {
			continue
		}
		lp.mu.Lock()
		e := lp.pairs[ends[1]]
		lp.mu.Unlock()
		if e.measured {
			return e.rtt / 2, true
		}
	}
	return 0, false
}

// Latency returns the measured one-way latency (smoothed RTT/2) between
// the pair when either side is local and has a measurement, and
// defaultLatency otherwise. Measurements accumulate passively from message
// echoes and actively from Gossip. It is the one flight estimate: sentAt
// reads it too.
func (r *Runtime) Latency(a, b int) time.Duration {
	if d, ok := r.Measured(a, b); ok {
		return d
	}
	return defaultLatency
}
