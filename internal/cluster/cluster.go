// Package cluster implements k-means++ clustering. The Mortar prototype
// "uses the X-Means data clustering algorithm to perform planning" (Pelleg &
// Moore, ICML 2000); the physical dataflow planner in internal/plan runs
// k-means at k = the branching factor over Vivaldi network coordinates and
// places operators at the cluster centroids.
package cluster

import (
	"math"
	"math/rand"
)

// Point is a position in the coordinate space being clustered.
type Point []float64

func dist2(a, b Point) float64 {
	var s float64
	for i := range a {
		d := a[i] - b[i]
		s += d * d
	}
	return s
}

// Result is a clustering of the input points.
type Result struct {
	// Centroids holds the k cluster centers.
	Centroids []Point
	// Assign maps each input point index to its cluster in [0, k).
	Assign []int
	// Members lists the point indices in each cluster.
	Members [][]int
}

func (r *Result) build(points []Point) {
	r.Members = make([][]int, len(r.Centroids))
	for i, c := range r.Assign {
		r.Members[c] = append(r.Members[c], i)
	}
	_ = points
}

// KMeans clusters points into at most k clusters with k-means++ seeding and
// Lloyd iterations. If there are fewer than k distinct points, fewer
// clusters are returned. KMeans panics if points is empty or k < 1.
func KMeans(points []Point, k int, rng *rand.Rand) *Result {
	if len(points) == 0 || k < 1 {
		panic("cluster: KMeans needs points and k >= 1")
	}
	if k > len(points) {
		k = len(points)
	}
	centroids := seedPlusPlus(points, k, rng)
	k = len(centroids)
	assign := make([]int, len(points))
	for iter := 0; iter < 64; iter++ {
		changed := false
		for i, p := range points {
			best, bd := 0, math.MaxFloat64
			for c, ct := range centroids {
				if d := dist2(p, ct); d < bd {
					best, bd = c, d
				}
			}
			if assign[i] != best {
				assign[i] = best
				changed = true
			}
		}
		// Recompute centroids; re-seed empty clusters at the farthest point
		// from its centroid, a standard remedy that keeps k stable.
		counts := make([]int, k)
		sums := make([]Point, k)
		for c := range sums {
			sums[c] = make(Point, len(points[0]))
		}
		for i, p := range points {
			c := assign[i]
			counts[c]++
			for d := range p {
				sums[c][d] += p[d]
			}
		}
		for c := range centroids {
			if counts[c] == 0 {
				centroids[c] = points[farthestPoint(points, assign, centroids)].clone()
				changed = true
				continue
			}
			for d := range sums[c] {
				sums[c][d] /= float64(counts[c])
			}
			centroids[c] = sums[c]
		}
		if !changed && iter > 0 {
			break
		}
	}
	res := &Result{Centroids: centroids, Assign: assign}
	res.build(points)
	return res
}

func (p Point) clone() Point {
	out := make(Point, len(p))
	copy(out, p)
	return out
}

func farthestPoint(points []Point, assign []int, centroids []Point) int {
	worst, wd := 0, -1.0
	for i, p := range points {
		d := dist2(p, centroids[assign[i]])
		if d > wd {
			worst, wd = i, d
		}
	}
	return worst
}

// seedPlusPlus chooses initial centroids with the k-means++ D² weighting.
func seedPlusPlus(points []Point, k int, rng *rand.Rand) []Point {
	centroids := []Point{points[rng.Intn(len(points))].clone()}
	d2 := make([]float64, len(points))
	for len(centroids) < k {
		var sum float64
		for i, p := range points {
			d2[i] = math.MaxFloat64
			for _, c := range centroids {
				if d := dist2(p, c); d < d2[i] {
					d2[i] = d
				}
			}
			sum += d2[i]
		}
		if sum == 0 {
			break // all remaining points coincide with a centroid
		}
		r := rng.Float64() * sum
		idx := 0
		for i := range points {
			r -= d2[i]
			if r <= 0 {
				idx = i
				break
			}
		}
		centroids = append(centroids, points[idx].clone())
	}
	return centroids
}
