// Package measure holds the benchmark's pure arithmetic: percentiles that
// honour the ten-samples-beyond rule, the open-loop tick scheduler, window
// accounting, trace spans and the results file. Nothing here touches a
// socket or the system under test, so its tests run in milliseconds.
package measure

import (
	"math"
	"sort"
)

// minBeyond is how many samples must lie beyond a reported tail
// percentile: fewer than ten and the figure is one or two outliers, not a
// property of the distribution.
const minBeyond = 10

// tailLadder lists the tail percentiles the benchmark may report, lowest
// first. A fixed ladder keeps the label stable when the sample count
// wobbles by one or two between runs.
var tailLadder = []float64{75, 80, 85, 90, 95, 99, 99.9}

// Percentile returns the nearest-rank p'th percentile (0 < p <= 100) of an
// ascending slice, and NaN for an empty one.
func Percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	rank := rankOf(len(sorted), p)
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}

// rankOf is the nearest-rank position of the p'th percentile among n
// samples. The small slack keeps 99.9% of 10000 at rank 9990 although the
// product is not exact in floating point.
func rankOf(n int, p float64) int {
	return int(math.Ceil(p/100*float64(n) - 1e-9))
}

// beyond counts the samples ranked strictly above the p'th percentile of n.
func beyond(n int, p float64) int { return n - rankOf(n, p) }

// TailPercentile picks the highest ladder percentile that still has at
// least ten of n samples beyond it; ok is false when even the lowest rung
// does not (n < 40), and the caller should report the median alone.
func TailPercentile(n int) (p float64, ok bool) {
	for _, q := range tailLadder {
		if beyond(n, q) >= minBeyond {
			p, ok = q, true
		}
	}
	return p, ok
}

// Dist summarises one timing sample: its size, median, and the tail
// percentile the size supports (TailP is 50 when none is).
type Dist struct {
	N     int
	P50   float64
	Tail  float64
	TailP float64
}

// Summarize sorts a copy of xs and reports its median and supported tail.
// An empty sample gives the zero Dist.
func Summarize(xs []float64) Dist {
	if len(xs) == 0 {
		return Dist{}
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	d := Dist{N: len(s), P50: Percentile(s, 50), TailP: 50}
	d.Tail = d.P50
	if p, ok := TailPercentile(len(s)); ok {
		d.TailP, d.Tail = p, Percentile(s, p)
	}
	return d
}

// PercentileOf is Percentile over an unsorted sample (0 when empty), for
// the per-layer rows that name a fixed percentile.
func PercentileOf(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return Percentile(s, p)
}

// Median is PercentileOf(xs, 50).
func Median(xs []float64) float64 { return PercentileOf(xs, 50) }
