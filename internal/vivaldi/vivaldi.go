// Package vivaldi implements the Vivaldi decentralized network coordinate
// algorithm (Dabek et al., SIGCOMM 2004). The Mortar prototype sourced its
// network coordinates from Bamboo's Vivaldi implementation; here the
// algorithm runs over emulated shortest-path latencies. Coordinates feed the
// physical dataflow planner (internal/plan), which clusters them to build
// network-aware primary trees.
//
// The package runs one model with fixed constants: 3-dimensional Euclidean
// coordinates (Dims, per the paper's footnote), the Vivaldi paper's
// adaptive timestep (ce = cc = 0.25) and a gravity well that keeps a
// long-lived embedding from drifting. Samples from outside — a foreign
// dimension count or a non-finite number — are ignored, never embedded.
package vivaldi

import (
	"math"
	"math/rand"
	"sync"
	"time"
)

// Coordinate is a point in a Euclidean embedding of network latency. The
// units are milliseconds: the Euclidean distance between two coordinates
// predicts the one-way latency between their nodes.
type Coordinate []float64

// Dist returns the Euclidean distance between two coordinates.
func (c Coordinate) Dist(o Coordinate) float64 {
	var s float64
	for i := range c {
		d := c[i] - o[i]
		s += d * d
	}
	return math.Sqrt(s)
}

// Clone returns a copy of c.
func (c Coordinate) Clone() Coordinate {
	out := make(Coordinate, len(c))
	copy(out, c)
	return out
}

// Dims is the embedding's dimension count, the paper's footnote's 3. A
// coordinate with any other component count is foreign and is ignored.
const Dims = 3

const (
	// ce scales the adaptive timestep; cc scales the error EWMA (the
	// Vivaldi paper's standard constants).
	ce, cc = 0.25, 0.25
	// gravity is the distance scale (in ms) of a polynomial gravity well
	// pulling coordinates toward the origin: after every update the
	// coordinate moves (||x||/gravity)² ms toward it. Spring forces are
	// translation-invariant, so without this term a long-lived embedding
	// drifts as a whole — accurate relative distances around a wandering
	// centroid (Ledlie et al., "Network Coordinates in the Wild"). The
	// well is negligible near the origin and steep far away, so it anchors
	// the embedding without distorting it.
	gravity = 256.0
)

// Node is one participant's coordinate state. It is safe for concurrent
// use: under a live runtime the receive path updates the coordinate (one
// sample per heartbeat or probe reply) while the planner and the heartbeat
// sender read it from other goroutines.
type Node struct {
	mu    sync.Mutex
	coord Coordinate
	err   float64
	rng   *rand.Rand
}

// NewNode returns a node at a small random initial position with error 1.
// Starting near (but not exactly at) the origin avoids the degenerate
// all-zero configuration.
func NewNode(rng *rand.Rand) *Node {
	c := make(Coordinate, Dims)
	for i := range c {
		c[i] = rng.Float64() * 0.1
	}
	return &Node{coord: c, err: 1, rng: rng}
}

// Coord returns a copy of the node's current coordinate. It never returns
// a live reference: the receive loop may move the coordinate concurrently
// with the caller reading it.
func (n *Node) Coord() Coordinate {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.coord.Clone()
}

// Error returns the node's current error estimate.
func (n *Node) Error() float64 {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.err
}

// Snapshot returns the coordinate (copied) and error estimate read under
// one lock, so the pair is consistent — what a probe frame sends.
func (n *Node) Snapshot() (Coordinate, float64) {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.coord.Clone(), n.err
}

// Finite reports whether every component of c and the error estimate e
// are finite numbers. One NaN or infinity fed to Update would turn the
// coordinate and error into NaN for good, so samples failing it are
// ignored.
func Finite(c Coordinate, e float64) bool {
	if math.IsNaN(e) || math.IsInf(e, 0) {
		return false
	}
	for _, v := range c {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return false
		}
	}
	return true
}

// Update incorporates one latency sample to a remote node, moving this
// node's coordinate along the spring force between the two. A remote
// coordinate without exactly Dims components, or with a non-finite
// component or error, is ignored: it would corrupt the embedding.
func (n *Node) Update(rtt time.Duration, remote Coordinate, remoteErr float64) {
	lat := float64(rtt) / float64(time.Millisecond)
	if lat <= 0 || len(remote) != Dims || !Finite(remote, remoteErr) {
		return
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	var dist float64
	for i := 0; i < Dims; i++ {
		dd := n.coord[i] - remote[i]
		dist += dd * dd
	}
	dist = math.Sqrt(dist)
	// Weight: balance of local vs remote error.
	w := 0.5
	if n.err+remoteErr > 0 {
		w = n.err / (n.err + remoteErr)
	}
	// Relative error of this sample.
	relErr := math.Abs(dist-lat) / lat
	// Update error EWMA and adaptive timestep.
	n.err = relErr*cc*w + n.err*(1-cc*w)
	if n.err > 1 {
		n.err = 1
	}
	delta := ce * w
	// Unit vector from remote toward us; if coincident, pick a random
	// direction so co-located nodes can separate.
	var dir [Dims]float64
	if dist > 1e-9 {
		for i := range dir {
			dir[i] = (n.coord[i] - remote[i]) / dist
		}
	} else {
		var norm float64
		for i := range dir {
			dir[i] = n.rng.NormFloat64()
			norm += dir[i] * dir[i]
		}
		norm = math.Sqrt(norm)
		for i := range dir {
			dir[i] /= norm
		}
	}
	force := delta * (lat - dist)
	for i := range dir {
		n.coord[i] += force * dir[i]
	}
	n.applyGravity()
}

// applyGravity pulls the coordinate toward the origin by (||x||/gravity)²
// ms, capped so it never overshoots past the origin. Called with the lock
// held, after each spring update — drift control, not a measurement.
func (n *Node) applyGravity() {
	var norm float64
	for _, v := range n.coord {
		norm += v * v
	}
	norm = math.Sqrt(norm)
	if norm < 1e-9 {
		return
	}
	pull := (norm / gravity) * (norm / gravity)
	if pull > norm {
		pull = norm
	}
	scale := (norm - pull) / norm
	for i := range n.coord {
		n.coord[i] *= scale
	}
}

// System runs Vivaldi for a set of nodes against a latency oracle, the way
// the Mortar evaluation lets Vivaldi run "for at least ten rounds before
// interconnecting operators".
type System struct {
	Nodes []*Node
	rng   *rand.Rand
}

// NewSystem creates n Vivaldi nodes.
func NewSystem(n int, rng *rand.Rand) *System {
	s := &System{rng: rng}
	for i := 0; i < n; i++ {
		s.Nodes = append(s.Nodes, NewNode(rand.New(rand.NewSource(rng.Int63()))))
	}
	return s
}

// Round has every node sample `samples` random peers through the latency
// oracle (a one-way delay; the RTT passed to Update is twice that, matching
// how deployed Vivaldi measures ping RTTs but embeds one-way distance by
// halving — we keep the embedding in one-way ms by passing one-way
// directly).
func (s *System) Round(samples int, oneWay func(i, j int) time.Duration) {
	n := len(s.Nodes)
	for i := 0; i < n; i++ {
		for k := 0; k < samples; k++ {
			j := s.rng.Intn(n)
			if j == i {
				continue
			}
			lat := oneWay(i, j)
			if lat < 0 {
				continue
			}
			remote, remoteErr := s.Nodes[j].Snapshot()
			s.Nodes[i].Update(lat, remote, remoteErr)
		}
	}
}

// Run executes the given number of rounds.
func (s *System) Run(rounds, samplesPerRound int, oneWay func(i, j int) time.Duration) {
	for r := 0; r < rounds; r++ {
		s.Round(samplesPerRound, oneWay)
	}
}

// Coordinates returns a snapshot of all node coordinates.
func (s *System) Coordinates() []Coordinate {
	out := make([]Coordinate, len(s.Nodes))
	for i, n := range s.Nodes {
		out[i] = n.Coord()
	}
	return out
}

// MedianRelativeError measures embedding quality: the median over sampled
// pairs of |predicted - actual| / actual.
func (s *System) MedianRelativeError(pairs int, oneWay func(i, j int) time.Duration) float64 {
	n := len(s.Nodes)
	var errs []float64
	for k := 0; k < pairs; k++ {
		i, j := s.rng.Intn(n), s.rng.Intn(n)
		if i == j {
			continue
		}
		actual := float64(oneWay(i, j)) / float64(time.Millisecond)
		if actual <= 0 {
			continue
		}
		pred := s.Nodes[i].Coord().Dist(s.Nodes[j].Coord())
		errs = append(errs, math.Abs(pred-actual)/actual)
	}
	if len(errs) == 0 {
		return 0
	}
	// Median by partial sort.
	for i := 0; i < len(errs); i++ {
		for j := i + 1; j < len(errs); j++ {
			if errs[j] < errs[i] {
				errs[i], errs[j] = errs[j], errs[i]
			}
		}
	}
	return errs[len(errs)/2]
}
