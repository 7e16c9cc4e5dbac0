package plan

import (
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/cluster"
)

// gridCoords places n peers on a 2-D grid of clustered sites.
func gridCoords(rng *rand.Rand, n, sites int) []cluster.Point {
	out := make([]cluster.Point, n)
	for i := range out {
		site := i % sites
		out[i] = cluster.Point{
			float64(site%8)*100 + rng.NormFloat64()*2,
			float64(site/8)*100 + rng.NormFloat64()*2,
		}
	}
	return out
}

func TestBuildPrimaryValid(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	coords := gridCoords(rng, 200, 16)
	tr := BuildPrimary(coords, 0, 8, rng)
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	if tr.Root != 0 {
		t.Fatalf("root = %d", tr.Root)
	}
}

func TestBuildPrimaryBranchingRespected(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	coords := gridCoords(rng, 300, 20)
	tr := BuildPrimary(coords, 5, 4, rng)
	for p, ch := range tr.Children {
		if len(ch) > 4 {
			t.Fatalf("peer %d has %d children, bf 4", p, len(ch))
		}
	}
}

func TestBuildPrimaryClustersNetworkAware(t *testing.T) {
	// Peers at two far-apart sites: the tree should rarely make a peer's
	// parent a peer from the other site, except near the root.
	rng := rand.New(rand.NewSource(3))
	n := 128
	coords := make([]cluster.Point, n)
	for i := range coords {
		base := 0.0
		if i >= n/2 {
			base = 1000
		}
		coords[i] = cluster.Point{base + rng.NormFloat64(), rng.NormFloat64()}
	}
	tr := BuildPrimary(coords, 0, 8, rng)
	cross := 0
	for p := 0; p < n; p++ {
		pa := tr.Parent[p]
		if pa < 0 {
			continue
		}
		if (p >= n/2) != (pa >= n/2) {
			cross++
		}
	}
	if cross > 10 {
		t.Fatalf("%d cross-site edges; clustering not network aware", cross)
	}
}

func TestDeriveSiblingValidAndRootPinned(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	coords := gridCoords(rng, 150, 12)
	primary := BuildPrimary(coords, 7, 4, rng)
	for i := 0; i < 5; i++ {
		sib := DeriveSibling(primary, rng)
		if err := sib.Validate(); err != nil {
			t.Fatal(err)
		}
		if sib.Root != 7 {
			t.Fatalf("sibling root moved to %d", sib.Root)
		}
	}
}

func TestSiblingCreatesPathDiversity(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	coords := gridCoords(rng, 200, 16)
	primary := BuildPrimary(coords, 0, 4, rng)
	sib := DeriveSibling(primary, rng)
	// A substantial fraction of peers must have a different parent in the
	// sibling; and some primary leaves must now be interior.
	moved := 0
	for p := range primary.Parent {
		if primary.Parent[p] != sib.Parent[p] {
			moved++
		}
	}
	if moved < len(primary.Parent)/4 {
		t.Fatalf("only %d/%d parents changed", moved, len(primary.Parent))
	}
	promoted := 0
	for p := range primary.Children {
		if len(primary.Children[p]) == 0 && len(sib.Children[p]) > 0 {
			promoted++
		}
	}
	if promoted == 0 {
		t.Fatal("no leaves percolated into the interior")
	}
}

func TestBuildRandomValid(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	tr := BuildRandom(100, 3, 32, rng)
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	if tr.Root != 3 {
		t.Fatalf("root = %d", tr.Root)
	}
	// Complete 32-ary tree of 100 nodes has height 2.
	if tr.Height() != 2 {
		t.Fatalf("height = %d, want 2", tr.Height())
	}
}

func TestBuildSetSharedRoot(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	coords := gridCoords(rng, 120, 10)
	s := Build(coords, 11, 16, 4, rng)
	if s.D() != 4 {
		t.Fatalf("D = %d", s.D())
	}
	for i, tr := range s.Trees {
		if err := tr.Validate(); err != nil {
			t.Fatalf("tree %d: %v", i, err)
		}
		if tr.Root != 11 {
			t.Fatalf("tree %d rooted at %d", i, tr.Root)
		}
	}
	pars := s.Parents(11)
	for _, pa := range pars {
		if pa != -1 {
			t.Fatalf("root has parent %d in some tree", pa)
		}
	}
}

func TestUniqueChildrenSharing(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	coords := gridCoords(rng, 64, 8)
	// Two queries planned on the same coordinates produce similar primary
	// trees, so unique children should grow sub-linearly (§7.2.1).
	var sets []*Set
	for q := 0; q < 8; q++ {
		sets = append(sets, Build(coords, q%4, 16, 1, rng))
	}
	one := UniqueChildren(sets[:1])
	all := UniqueChildren(sets)
	sum := func(xs []int) int {
		s := 0
		for _, x := range xs {
			s += x
		}
		return s
	}
	if sum(all) >= 8*sum(one) {
		t.Fatalf("no sharing: 1 query %d pairs, 8 queries %d", sum(one), sum(all))
	}
	nbr := UniqueNeighbors(sets)
	if len(nbr) != 64 {
		t.Fatalf("neighbors length %d", len(nbr))
	}
}

func TestLatencyToRoot(t *testing.T) {
	// Chain 0 <- 1 <- 2 with unit latencies.
	tr := newTreeFromParents(0, 2, []int{-1, 0, 1})
	lat := LatencyToRoot(tr, LatencyFunc(func(a, b int) time.Duration { return time.Millisecond }))
	if lat[0] != 0 || lat[1] != time.Millisecond || lat[2] != 2*time.Millisecond {
		t.Fatalf("latencies = %v", lat)
	}
}

func TestPlannedBeatsRandomOnClusteredTopology(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	n := 179
	coords := gridCoords(rng, n, 16)
	oneWay := func(a, b int) time.Duration {
		d := 0.0
		for k := range coords[a] {
			diff := coords[a][k] - coords[b][k]
			d += diff * diff
		}
		return time.Duration(d) * time.Microsecond // squared distance as latency proxy
	}
	var planned, random time.Duration
	for trial := 0; trial < 5; trial++ {
		pt := BuildPrimary(coords, 0, 8, rng)
		rt := BuildRandom(n, 0, 8, rng)
		planned += Percentile(LatencyToRoot(pt, LatencyFunc(oneWay)), 90)
		random += Percentile(LatencyToRoot(rt, LatencyFunc(oneWay)), 90)
	}
	if planned >= random {
		t.Fatalf("planned 90th pct (%v) not better than random (%v)", planned/5, random/5)
	}
}

func TestPercentile(t *testing.T) {
	ds := []time.Duration{5, 1, 3, 2, 4}
	if got := Percentile(ds, 0); got != 1 {
		t.Fatalf("p0 = %v", got)
	}
	if got := Percentile(ds, 100); got != 5 {
		t.Fatalf("p100 = %v", got)
	}
	if got := Percentile(ds, 50); got != 3 {
		t.Fatalf("p50 = %v", got)
	}
	if got := Percentile(nil, 50); got != 0 {
		t.Fatalf("empty = %v", got)
	}
}

// Property: every planner output is a valid tree over all peers, for
// arbitrary sizes, roots, and branching factors.
func TestPropertyPlannersProduceValidTrees(t *testing.T) {
	f := func(seed int64, nRaw, rootRaw, bfRaw uint8) bool {
		n := 2 + int(nRaw)%150
		root := int(rootRaw) % n
		bf := 2 + int(bfRaw)%15
		rng := rand.New(rand.NewSource(seed))
		coords := gridCoords(rng, n, 1+n/10)
		primary := BuildPrimary(coords, root, bf, rng)
		if primary.Validate() != nil {
			return false
		}
		sib := DeriveSibling(primary, rng)
		if sib.Validate() != nil || sib.Root != root {
			return false
		}
		rt := BuildRandom(n, root, bf, rng)
		return rt.Validate() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// CoordModel prices a pair by coordinate distance in milliseconds, the
// planner's latency view when coordinates are gossiped instead of measured.
func TestCoordModelLatency(t *testing.T) {
	m := CoordModel{Coords: []cluster.Point{{0, 0}, {3, 4}}}
	if got := m.Latency(0, 1); got != 5*time.Millisecond {
		t.Fatalf("Latency = %v, want 5ms", got)
	}
	if got := m.Latency(1, 0); got != 5*time.Millisecond {
		t.Fatalf("Latency not symmetric: %v", got)
	}
	if got := m.Latency(0, 7); got != 0 {
		t.Fatalf("out-of-range pair = %v, want 0", got)
	}
	lat := LatencyToRoot(newTreeFromParents(0, 2, []int{-1, 0}), m)
	if lat[1] != 5*time.Millisecond {
		t.Fatalf("LatencyToRoot over CoordModel = %v", lat)
	}
}

// Quality is the planner's drift metric: the mean peer-to-root overlay
// latency across the set's trees. A star rooted at a well-placed peer must
// score better than a chain under the same model, and the same set must
// score worse under a model whose latencies have inflated — the signal the
// replanning monitor watches.
func TestQualityScoresPlans(t *testing.T) {
	// 4 peers on a line at 0, 1, 2, 3 (ms).
	coords := []cluster.Point{{0}, {1}, {2}, {3}}
	m := CoordModel{Coords: coords}
	star := &Set{Trees: []*Tree{newTreeFromParents(0, 3, []int{-1, 0, 0, 0})}}
	// A detouring tree: the near peers route through the far end first.
	detour := &Set{Trees: []*Tree{newTreeFromParents(0, 2, []int{-1, 3, 3, 0})}}
	qs, qc := Quality(m, star), Quality(m, detour)
	if qs <= 0 || qc <= 0 {
		t.Fatalf("quality must be positive: star %v detour %v", qs, qc)
	}
	if qs >= qc {
		t.Fatalf("star %v should beat detour %v", qs, qc)
	}
	// Inflate one pair's latency tenfold: the same plan scores worse.
	drifted := CoordModel{Coords: []cluster.Point{{0}, {10}, {2}, {3}}}
	if Quality(drifted, star) <= qs {
		t.Fatal("drifted model did not degrade the score")
	}
	if Quality(m, nil) != 0 || Quality(m, &Set{}) != 0 {
		t.Fatal("empty set must score 0")
	}
}

// SubtreeSizes against a brute-force walk: for every peer of random trees of
// random shape, the count of peers whose path to the root passes through it;
// and on every tree of a planned set — primary and rotated siblings alike —
// the root's subtree is the whole node set.
func TestSubtreeSizes(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 50; trial++ {
		n, bf := 1+rng.Intn(120), 2+rng.Intn(7)
		tr := BuildRandom(n, rng.Intn(n), bf, rng)
		want := make([]int, n)
		for p := 0; p < n; p++ {
			for a := p; a >= 0; a = tr.Parent[a] {
				want[a]++
			}
		}
		got := tr.SubtreeSizes()
		for p := range want {
			if got[p] != want[p] {
				t.Fatalf("trial %d (n=%d bf=%d): peer %d subtree %d, brute force %d", trial, n, bf, p, got[p], want[p])
			}
		}
	}
	coords := gridCoords(rng, 150, 12)
	set := Build(coords, 3, 4, 4, rng)
	for i, tr := range set.Trees {
		sizes := tr.SubtreeSizes()
		if sizes[tr.Root] != 150 {
			t.Fatalf("tree %d: root's subtree is %d of 150", i, sizes[tr.Root])
		}
		for p, kids := range tr.Children {
			if len(kids) == 0 && sizes[p] != 1 {
				t.Fatalf("tree %d: leaf %d has subtree %d", i, p, sizes[p])
			}
		}
	}
}
