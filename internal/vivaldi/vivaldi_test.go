package vivaldi

import (
	"math"
	"math/rand"
	"testing"
	"time"
)

func TestDist(t *testing.T) {
	a := Coordinate{0, 0, 0}
	b := Coordinate{3, 4, 0}
	if d := a.Dist(b); d != 5 {
		t.Fatalf("Dist = %v, want 5", d)
	}
	if d := a.Dist(a); d != 0 {
		t.Fatalf("self Dist = %v", d)
	}
}

func TestCloneIsIndependent(t *testing.T) {
	a := Coordinate{1, 2}
	b := a.Clone()
	b[0] = 9
	if a[0] != 1 {
		t.Fatal("Clone aliases original")
	}
}

func TestUpdateMovesTowardTarget(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	n := NewNode(rng)
	remote := Coordinate{100, 0, 0}
	before := n.Coord().Dist(remote)
	// True latency 10ms but embedded distance ~100: node should move toward
	// the remote to shrink the spring.
	for i := 0; i < 50; i++ {
		n.Update(10*time.Millisecond, remote, 0.5)
	}
	after := n.Coord().Dist(remote)
	if after >= before {
		t.Fatalf("distance did not shrink: %v -> %v", before, after)
	}
}

func TestUpdateIgnoresNonPositiveRTT(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	n := NewNode(rng)
	before := n.Coord().Clone()
	n.Update(0, Coordinate{1, 1, 1}, 0.5)
	n.Update(-time.Second, Coordinate{1, 1, 1}, 0.5)
	for i := range before {
		if n.Coord()[i] != before[i] {
			t.Fatal("coordinate moved on invalid sample")
		}
	}
}

func TestCoincidentNodesSeparate(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	n := NewNode(rng)
	at := n.Coord().Clone()
	n.Update(20*time.Millisecond, at, 0.5)
	if n.Coord().Dist(at) == 0 {
		t.Fatal("coincident nodes did not separate")
	}
}

// Embedding a set of points on a synthetic 2-level metric should converge to
// low relative error after the paper's "at least ten rounds".
func TestSystemConvergesOnClusteredMetric(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	const n = 60
	// Two sites: intra-site 2ms, inter-site 50ms.
	site := make([]int, n)
	for i := range site {
		site[i] = i % 2
	}
	oneWay := func(i, j int) time.Duration {
		if site[i] == site[j] {
			return 2 * time.Millisecond
		}
		return 50 * time.Millisecond
	}
	s := NewSystem(n, rng)
	s.Run(30, 8, oneWay)
	if err := s.MedianRelativeError(500, oneWay); err > 0.35 {
		t.Fatalf("median relative error = %.3f, want <= 0.35", err)
	}
	// Intra-site embedded distances must be clearly below inter-site ones.
	coords := s.Coordinates()
	var intra, inter float64
	var ni, nx int
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			d := coords[i].Dist(coords[j])
			if site[i] == site[j] {
				intra += d
				ni++
			} else {
				inter += d
				nx++
			}
		}
	}
	if intra/float64(ni) >= inter/float64(nx) {
		t.Fatalf("embedding failed to separate sites: intra %.2f >= inter %.2f",
			intra/float64(ni), inter/float64(nx))
	}
}

func TestErrorStaysBounded(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	n := NewNode(rng)
	for i := 0; i < 1000; i++ {
		lat := time.Duration(1+rng.Intn(100)) * time.Millisecond
		remote := Coordinate{rng.Float64() * 100, rng.Float64() * 100, rng.Float64() * 100}
		n.Update(lat, remote, rng.Float64())
		if n.Error() < 0 || n.Error() > 1 || math.IsNaN(n.Error()) {
			t.Fatalf("error out of range: %v", n.Error())
		}
		for _, c := range n.Coord() {
			if math.IsNaN(c) || math.IsInf(c, 0) {
				t.Fatal("coordinate diverged")
			}
		}
	}
}

// A node's coordinate is updated by the receive path while planners and
// heartbeat senders read it concurrently; Coord must return a copy and
// every accessor must be race-clean (run under -race).
func TestNodeConcurrentAccess(t *testing.T) {
	n := NewNode(rand.New(rand.NewSource(3)))
	remote := Coordinate{5, 5, 5}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 2000; i++ {
			n.Update(time.Duration(1+i%20)*time.Millisecond, remote, 0.3)
		}
	}()
	for i := 0; i < 2000; i++ {
		c := n.Coord()
		c[0] = math.Inf(1) // must not alias the live coordinate
		snap, errEst := n.Snapshot()
		if len(snap) != 3 || errEst < 0 || errEst > 1 {
			t.Fatalf("snapshot %v err %v", snap, errEst)
		}
		_ = n.Error()
	}
	<-done
	if c := n.Coord(); math.IsInf(c[0], 1) {
		t.Fatal("Coord returned a live reference")
	}
}

// centroidNorm returns the norm of the mean coordinate — the embedding's
// whole-system translation, which gravity is supposed to control.
func centroidNorm(s *System) float64 {
	mean := make(Coordinate, Dims)
	for _, n := range s.Nodes {
		c := n.Coord()
		for i := range mean {
			mean[i] += c[i]
		}
	}
	var norm float64
	for i := range mean {
		mean[i] /= float64(len(s.Nodes))
		norm += mean[i] * mean[i]
	}
	return math.Sqrt(norm)
}

// The gravity term is drift control: spring forces are translation-
// invariant, so an embedding displaced as a whole would stay displaced
// forever without it. Displace a converged system far from the origin and
// keep updating: the centroid must be pulled back toward the origin while
// the embedding stays accurate.
func TestGravityConvergesTowardOrigin(t *testing.T) {
	const n = 40
	oneWay := func(i, j int) time.Duration {
		if i%2 == j%2 {
			return 2 * time.Millisecond
		}
		return 30 * time.Millisecond
	}
	s := NewSystem(n, rand.New(rand.NewSource(9)))
	s.Run(30, 8, oneWay)
	// Displace the whole embedding: a pure translation, invisible to the
	// spring forces.
	for _, node := range s.Nodes {
		node.mu.Lock()
		for i := range node.coord {
			node.coord[i] += 500
		}
		node.mu.Unlock()
	}
	s.Run(150, 8, oneWay)
	if centroid := centroidNorm(s); centroid > 100 {
		t.Fatalf("gravity left the centroid %.1fms from the origin", centroid)
	}
	if relErr := s.MedianRelativeError(500, oneWay); relErr > 0.35 {
		t.Fatalf("gravity distorted the embedding: median relative error %.3f", relErr)
	}
}

// Samples whose coordinate dimensionality is not Dims (a malformed or
// foreign wire coordinate) must be ignored, not panic.
func TestUpdateRejectsDimensionMismatch(t *testing.T) {
	n := NewNode(rand.New(rand.NewSource(4)))
	before := n.Coord()
	for _, c := range []Coordinate{{1}, {1, 2}} {
		n.Update(5*time.Millisecond, c, 0.5)
		if d := n.Coord().Dist(before); d != 0 {
			t.Fatalf("node moved %v on a %d-component sample", d, len(c))
		}
	}
	n.Update(5*time.Millisecond, Coordinate{1, 2, 3}, 0.5)
	if d := n.Coord().Dist(before); d == 0 {
		t.Fatal("node ignored a matching 3-component sample")
	}
}

// Mixed-model guard: a coordinate with a height component appended
// (Dims+1 components, the wire shape of a height-vector embedding) must be
// ignored, not blended into the flat embedding by reading its first Dims
// components.
func TestHeightMixedDimensionGuard(t *testing.T) {
	n := NewNode(rand.New(rand.NewSource(6)))
	before := n.Coord()
	n.Update(5*time.Millisecond, Coordinate{1, 2, 3, 0.5}, 0.5) // heighted: rejected
	if d := n.Coord().Dist(before); d != 0 {
		t.Fatalf("node moved %v on a heighted coordinate", d)
	}
	n.Update(5*time.Millisecond, Coordinate{1, 2, 3}, 0.5) // flat: accepted
	if d := n.Coord().Dist(before); d == 0 {
		t.Fatal("node ignored a matching flat coordinate")
	}
}

// One non-finite number in a sample would turn the coordinate and error
// into NaN for good — no later good sample recovers them — so Update must
// ignore a remote coordinate or error that is NaN or infinite, and the
// node must go on converging afterwards.
func TestUpdateIgnoresNonFiniteSample(t *testing.T) {
	n := NewNode(rand.New(rand.NewSource(5)))
	before, beforeErr := n.Snapshot()
	nan, inf := math.NaN(), math.Inf(1)
	for _, s := range []struct {
		c Coordinate
		e float64
	}{
		{Coordinate{nan, 1, 1}, 0.5},
		{Coordinate{1, inf, 1}, 0.5},
		{Coordinate{1, 1, -inf}, 0.5},
		{Coordinate{1, 1, 1}, nan},
		{Coordinate{1, 1, 1}, inf},
	} {
		n.Update(5*time.Millisecond, s.c, s.e)
		c, e := n.Snapshot()
		if c.Dist(before) != 0 || e != beforeErr {
			t.Fatalf("sample %v err %v moved the node to %v err %v", s.c, s.e, c, e)
		}
	}
	n.Update(5*time.Millisecond, Coordinate{1, 2, 3}, 0.5)
	if c, e := n.Snapshot(); !Finite(c, e) || c.Dist(before) == 0 {
		t.Fatalf("good sample after the bad ones left %v err %v", c, e)
	}
}

// BenchmarkVivaldiUpdate is one RTT sample, what every echoed netrt frame
// costs the receive path. It must not allocate.
func BenchmarkVivaldiUpdate(b *testing.B) {
	n := NewNode(rand.New(rand.NewSource(1)))
	remotes := []Coordinate{{10, 0, 0}, {0, 20, 0}, {0, 0, 30}, {5, 5, 5}}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n.Update(time.Duration(1+i%40)*time.Millisecond, remotes[i%len(remotes)], 0.3)
	}
}
