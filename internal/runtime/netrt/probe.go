package netrt

import (
	"math"
	"slices"
	"sort"
	"time"

	"repro/internal/vivaldi"
	"repro/internal/wire"
)

// This file is decentralized Vivaldi (§3.1) over netrt: the ping/pong
// probes that carry coordinates, the gossip rounds that send them, and the
// coordinate view planning reads. Every local peer owns a vivaldi.Node it
// updates from the RTT samples the transport already collects (observe);
// the last coordinate heard from every peer is cached in Runtime.heard.

// heardCoord is the last coordinate a peer gossiped and its error
// estimate; coord is nil until one arrives.
type heardCoord struct {
	coord vivaldi.Coordinate
	err   float64
}

// noteCoord caches the latest coordinate gossiped by a peer.
func (r *Runtime) noteCoord(peer int, c vivaldi.Coordinate, errEst float64) {
	r.coordMu.Lock()
	r.heard[peer] = heardCoord{c, errEst}
	r.coordMu.Unlock()
}

// sendProbe writes one probe from a local peer, a ping with its own
// transmit stamp or the pong echoing a ping's, carrying its Vivaldi
// coordinate. Like a NACK, no probe leaves a peer this process holds down
// or goes to one.
func (r *Runtime) sendProbe(kind byte, from, to int, stamp uint64) {
	if r.down[from].Load() || r.down[to].Load() {
		return
	}
	w := wire.GetBuffer()
	w.PutByte(kind)
	w.PutUvarint(uint64(from))
	w.PutUvarint(uint64(to))
	w.PutUvarint(stamp)
	c, e := r.lps[from].node.Snapshot()
	putCoord(w, c, e)
	r.xmit(from, to, w.Bytes(), w, nil, nil, false)
}

// coordLen is the bytes a probe's coordinate takes: vivaldi.Dims
// components and the error estimate, 8 B each.
const coordLen = 8 * (vivaldi.Dims + 1)

// putCoord appends a coordinate, its components then its error estimate,
// to a probe.
func putCoord(w *wire.Buffer, c vivaldi.Coordinate, e float64) {
	for _, v := range c {
		w.PutF64(v)
	}
	w.PutF64(e)
}

// readCoord reads the coordinate that ends a probe. A remainder of any
// length but coordLen, a non-finite component and an error estimate
// outside [0, 1] make the probe one this release never writes, and it is
// ignored: a foreign-sized coordinate would corrupt distance computations
// in CoordError and the planner's clustering, and a non-finite one, once
// cached, would hand NaN to both.
func readCoord(rd *wire.Reader) (vivaldi.Coordinate, float64, bool) {
	if rd.Remaining() != coordLen {
		return nil, 0, false
	}
	c := make(vivaldi.Coordinate, vivaldi.Dims)
	for i := range c {
		c[i], _ = rd.F64() // cannot fail: the length is checked above
	}
	e, _ := rd.F64()
	if !vivaldi.Finite(c, e) || e < 0 || e > 1 {
		return nil, 0, false
	}
	return c, e, true
}

// Gossip runs coordinate gossip rounds, sleeping wait after each for the
// pongs to land: each local peer probes fanout random peers (every peer
// when fanout <= 0), drawn afresh every round of every call, with a
// coordinate-carrying ping; each pong delivers an RTT sample (Latency's
// table) plus the responder's coordinate — one Vivaldi update. A peer
// this process holds down neither probes nor is probed. Every
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
				r.sendProbe(framePing, p, q, stampAt(time.Since(r.start)))
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
	r.coordMu.RLock()
	defer r.coordMu.RUnlock()
	for p, lp := range r.lps {
		if lp != nil {
			coords[p], errs[p] = lp.node.Snapshot()
			known[p] = true
		} else if h := r.heard[p]; h.coord != nil {
			coords[p], errs[p] = h.coord.Clone(), h.err
			known[p] = true
		}
	}
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
