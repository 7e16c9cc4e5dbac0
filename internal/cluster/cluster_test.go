package cluster

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// blob generates n points around a center with the given spread.
func blob(rng *rand.Rand, center Point, n int, spread float64) []Point {
	out := make([]Point, n)
	for i := range out {
		p := make(Point, len(center))
		for d := range p {
			p[d] = center[d] + rng.NormFloat64()*spread
		}
		out[i] = p
	}
	return out
}

func TestKMeansSeparatesBlobs(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	pts := append(blob(rng, Point{0, 0}, 50, 1), blob(rng, Point{100, 100}, 50, 1)...)
	res := KMeans(pts, 2, rng)
	if len(res.Centroids) != 2 {
		t.Fatalf("k = %d, want 2", len(res.Centroids))
	}
	// All points of one blob must share an assignment.
	first := res.Assign[0]
	for i := 1; i < 50; i++ {
		if res.Assign[i] != first {
			t.Fatalf("blob 1 split across clusters")
		}
	}
	for i := 51; i < 100; i++ {
		if res.Assign[i] != res.Assign[50] {
			t.Fatalf("blob 2 split across clusters")
		}
	}
	if first == res.Assign[50] {
		t.Fatal("blobs merged")
	}
}

func TestKMeansFewerDistinctPointsThanK(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	pts := []Point{{1, 1}, {1, 1}, {1, 1}}
	res := KMeans(pts, 5, rng)
	if len(res.Centroids) == 0 || len(res.Centroids) > 3 {
		t.Fatalf("centroids = %d", len(res.Centroids))
	}
	for _, a := range res.Assign {
		if a < 0 || a >= len(res.Centroids) {
			t.Fatalf("bad assignment %d", a)
		}
	}
}

func TestKMeansSinglePoint(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	res := KMeans([]Point{{5, 5}}, 3, rng)
	if len(res.Centroids) != 1 || res.Assign[0] != 0 {
		t.Fatalf("single point clustering broken: %+v", res)
	}
}

func TestKMeansPanicsOnEmpty(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on empty input")
		}
	}()
	KMeans(nil, 2, rand.New(rand.NewSource(1)))
}

func TestMembersPartitionPoints(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	pts := blob(rng, Point{0, 0, 0}, 200, 10)
	res := KMeans(pts, 7, rng)
	seen := make(map[int]bool)
	for c, members := range res.Members {
		for _, m := range members {
			if seen[m] {
				t.Fatalf("point %d in two clusters", m)
			}
			seen[m] = true
			if res.Assign[m] != c {
				t.Fatalf("Members/Assign disagree for %d", m)
			}
		}
	}
	if len(seen) != len(pts) {
		t.Fatalf("partition covers %d of %d points", len(seen), len(pts))
	}
}

// Property: every point is assigned to its nearest centroid after KMeans
// converges (Lloyd's invariant).
func TestPropertyNearestCentroid(t *testing.T) {
	f := func(seed int64, kRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		k := 1 + int(kRaw%6)
		pts := blob(rng, Point{0, 0}, 60, 30)
		res := KMeans(pts, k, rng)
		for i, p := range pts {
			best := dist2(p, res.Centroids[res.Assign[i]])
			for _, c := range res.Centroids {
				if dist2(p, c) < best-1e-9 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// Property: assignments are a valid partition for arbitrary inputs.
func TestPropertyValidPartition(t *testing.T) {
	f := func(seed int64, n uint8, kRaw uint8) bool {
		if n == 0 {
			return true
		}
		rng := rand.New(rand.NewSource(seed))
		k := 1 + int(kRaw%8)
		pts := blob(rng, Point{1, 2, 3}, int(n), 5)
		res := KMeans(pts, k, rng)
		if len(res.Assign) != len(pts) {
			return false
		}
		total := 0
		for _, m := range res.Members {
			total += len(m)
		}
		return total == len(pts)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
