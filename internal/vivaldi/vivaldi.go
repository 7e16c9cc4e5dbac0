// Package vivaldi implements the Vivaldi decentralized network coordinate
// algorithm (Dabek et al., SIGCOMM 2004). The Mortar prototype sourced its
// network coordinates from Bamboo's Vivaldi implementation; here the
// algorithm runs over emulated shortest-path latencies. Coordinates feed the
// physical dataflow planner (internal/plan), which clusters them to build
// network-aware primary trees.
//
// Per the paper's footnote, experiments use 3-dimensional coordinates.
package vivaldi

import (
	"math"
	"math/rand"
	"sync"
	"time"
)

// Coordinate is a point in a Euclidean embedding of network latency. The
// units are milliseconds: the Euclidean distance between two coordinates
// predicts the one-way latency between their nodes. Under the
// height-vector model (Config.Height) the last component is the scalar
// height — the node's access-link latency, paid on every path regardless
// of direction — and it travels as one extra component dimension, so the
// wire shape is unchanged; use HeightDist for distances then.
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

// HeightDist returns the height-model distance between two wire
// coordinates whose last component is the height: the Euclidean distance
// of the vector parts plus both heights (Dabek et al. §5.4 — every path
// descends one access link, crosses the core, and climbs the other).
func HeightDist(a, b Coordinate) float64 {
	if len(a) < 2 || len(a) != len(b) {
		return a.Dist(b)
	}
	n := len(a) - 1
	var s float64
	for i := 0; i < n; i++ {
		d := a[i] - b[i]
		s += d * d
	}
	return math.Sqrt(s) + a[n] + b[n]
}

// Clone returns a copy of c.
func (c Coordinate) Clone() Coordinate {
	out := make(Coordinate, len(c))
	copy(out, c)
	return out
}

// Config holds the Vivaldi tuning constants; the defaults are those from the
// paper's adaptive-timestep algorithm.
type Config struct {
	Dims int
	// CE scales the adaptive timestep; CC scales the error EWMA.
	CE, CC float64
	// Gravity, when positive, is the distance scale (in ms) of a
	// polynomial gravity well pulling coordinates toward the origin: after
	// every update the coordinate moves (||x||/Gravity)² ms toward it.
	// Spring forces are translation-invariant, so without this term a
	// long-lived embedding drifts as a whole — accurate relative distances
	// around a wandering centroid (Ledlie et al., "Network Coordinates in
	// the Wild"). The well is negligible near the origin and steep far
	// away, so it anchors the embedding without distorting it. Zero
	// disables the term.
	Gravity float64
	// Height enables the height-vector model (Vivaldi §5.4): each node
	// carries a scalar height modeling its access-link latency, paid on
	// every path in both directions — the asymmetry a pure Euclidean
	// space cannot express. The height travels as one extra wire
	// component (WireDims), so the coordinate extension's shape is
	// unchanged; distances come from HeightDist.
	Height bool
}

// minHeight keeps the height component strictly positive (a zero height
// would let the spring forces trap nodes on the Euclidean subspace).
const minHeight = 1e-3 // ms

// DefaultConfig returns 3-dimensional coordinates with the standard
// constants ce = cc = 0.25 and a gravity scale of 256ms.
func DefaultConfig() Config { return Config{Dims: 3, CE: 0.25, CC: 0.25, Gravity: 256} }

// WireDims returns the component count of this configuration's wire
// coordinates: the Euclidean dimensions plus, under the height model, the
// height as one extra trailing component.
func (c Config) WireDims() int {
	if c.Height {
		return c.Dims + 1
	}
	return c.Dims
}

// Distance predicts the one-way latency in milliseconds between two wire
// coordinates of this configuration.
func (c Config) Distance(a, b Coordinate) float64 {
	if c.Height {
		return HeightDist(a, b)
	}
	return a.Dist(b)
}

// Node is one participant's coordinate state. It is safe for concurrent
// use: under a live runtime the receive path updates the coordinate (one
// sample per heartbeat or probe reply) while the planner and the heartbeat
// sender read it from other goroutines.
type Node struct {
	cfg Config

	mu    sync.Mutex
	coord Coordinate
	err   float64
	rng   *rand.Rand
}

// NewNode returns a node at a small random initial position with error 1.
// Starting near (but not exactly at) the origin avoids the degenerate
// all-zero configuration. Under the height model the coordinate carries
// one extra trailing component, the height, floored at minHeight.
func NewNode(cfg Config, rng *rand.Rand) *Node {
	c := make(Coordinate, cfg.WireDims())
	for i := 0; i < cfg.Dims; i++ {
		c[i] = rng.Float64() * 0.1
	}
	if cfg.Height {
		c[cfg.Dims] = minHeight
	}
	return &Node{cfg: cfg, coord: c, err: 1, rng: rng}
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

// Update incorporates one latency sample to a remote node, moving this
// node's coordinate along the spring force between the two. Coordinates
// whose component count does not match this node's configuration —
// including a flat coordinate offered to a height node or vice versa —
// are ignored: mixing the two models would corrupt the embedding.
func (n *Node) Update(rtt time.Duration, remote Coordinate, remoteErr float64) {
	lat := float64(rtt) / float64(time.Millisecond)
	if lat <= 0 || len(remote) != n.cfg.WireDims() {
		return
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	d := n.cfg.Dims
	// Vector-part separation, and the model's predicted distance: pure
	// Euclidean, or Euclidean plus both heights under the height model.
	var vecDist float64
	for i := 0; i < d; i++ {
		dd := n.coord[i] - remote[i]
		vecDist += dd * dd
	}
	vecDist = math.Sqrt(vecDist)
	dist := vecDist
	if n.cfg.Height {
		dist += n.coord[d] + remote[d]
	}
	// Weight: balance of local vs remote error.
	w := 0.5
	if n.err+remoteErr > 0 {
		w = n.err / (n.err + remoteErr)
	}
	// Relative error of this sample.
	var relErr float64
	if lat > 0 {
		relErr = math.Abs(dist-lat) / lat
	}
	// Update error EWMA and adaptive timestep.
	n.err = relErr*n.cfg.CC*w + n.err*(1-n.cfg.CC*w)
	if n.err > 1 {
		n.err = 1
	}
	delta := n.cfg.CE * w
	// Unit vector from remote toward us; if coincident, pick a random
	// direction so co-located nodes can separate.
	dir := make(Coordinate, d)
	if vecDist > 1e-9 {
		for i := range dir {
			dir[i] = (n.coord[i] - remote[i]) / vecDist
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
	if n.cfg.Height {
		// The height absorbs force in proportion to the heights' share of
		// the path (Dabek et al. §5.4): both access links stretch or
		// shrink together, scaled by how dominant they are relative to
		// the core crossing.
		if vecDist > 1e-9 {
			n.coord[d] += force * (n.coord[d] + remote[d]) / vecDist
		}
		if n.coord[d] < minHeight {
			n.coord[d] = minHeight
		}
	}
	n.applyGravity()
}

// applyGravity pulls the vector part toward the origin by (||x||/Gravity)²
// ms, capped so it never overshoots past the origin. Called with the lock
// held, after each spring update — drift control, not a measurement. The
// height is untouched: it is a magnitude, not a position.
func (n *Node) applyGravity() {
	if n.cfg.Gravity <= 0 {
		return
	}
	var norm float64
	for _, v := range n.coord[:n.cfg.Dims] {
		norm += v * v
	}
	norm = math.Sqrt(norm)
	if norm < 1e-9 {
		return
	}
	pull := (norm / n.cfg.Gravity) * (norm / n.cfg.Gravity)
	if pull > norm {
		pull = norm
	}
	scale := (norm - pull) / norm
	for i := 0; i < n.cfg.Dims; i++ {
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
func NewSystem(n int, cfg Config, rng *rand.Rand) *System {
	s := &System{rng: rng}
	for i := 0; i < n; i++ {
		s.Nodes = append(s.Nodes, NewNode(cfg, rand.New(rand.NewSource(rng.Int63()))))
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
		pred := s.Nodes[i].cfg.Distance(s.Nodes[i].Coord(), s.Nodes[j].Coord())
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
