package ops

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"repro/internal/tuple"
)

// registered returns every operator name New accepts, sorted.
func registered() []string {
	names := make([]string, 0, len(registry))
	for name := range registry {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// mergeStream is n raws over a few keys whose values suit every operator:
// trilat reads Vals as [x, y, rssiDBm], the others read field 0.
func mergeStream(rng *rand.Rand, n int) []tuple.Raw {
	out := make([]tuple.Raw, n)
	for i := range out {
		out[i] = tuple.Raw{
			Key:  fmt.Sprintf("s%d", rng.Intn(6)),
			Vals: []float64{float64(rng.Intn(50)), float64(rng.Intn(50)), -30 - float64(rng.Intn(60))},
		}
	}
	return out
}

// TestBatchMergeMatchesPerTuple holds every registered operator's window to
// one rule: merging tuples in batches of any size gives the Value of merging
// them one call at a time, Merge() with no tuples changes nothing, and a
// window keeps nothing of the caller's slice, which the caller overwrites
// once Merge returns (the runtime reuses its batches).
func TestBatchMergeMatchesPerTuple(t *testing.T) {
	for _, name := range registered() {
		op, err := New(name, nil)
		if err != nil {
			t.Fatalf("New(%s): %v", name, err)
		}
		for seed := int64(1); seed <= 20; seed++ {
			rng := rand.New(rand.NewSource(seed))
			stream := mergeStream(rng, rng.Intn(200))
			one, batched := op.NewWindow(), op.NewWindow()
			batched.Merge()
			if v := batched.Value(); v != nil {
				t.Fatalf("%s: Merge() on an empty window gave %v, want nil", name, v)
			}
			for _, r := range stream {
				one.Merge(r)
			}
			buf := make([]tuple.Raw, 0, 64)
			for rest := stream; len(rest) > 0; {
				n := min(rng.Intn(65), len(rest))
				buf = append(buf[:0], rest[:n]...)
				batched.Merge(buf...)
				for i := range buf {
					buf[i] = tuple.Raw{Key: "scribbled", Vals: []float64{1e9, 1e9, 0}}
				}
				rest = rest[n:]
			}
			want := one.Value()
			if got := batched.Value(); !reflect.DeepEqual(got, want) {
				t.Fatalf("%s seed %d: batched Value %v, per-tuple %v", name, seed, got, want)
			}
			batched.Merge()
			if got := batched.Value(); !reflect.DeepEqual(got, want) {
				t.Fatalf("%s seed %d: Merge() moved Value %v to %v", name, seed, want, got)
			}
		}
	}
}

// BenchmarkWindowMerge times one 64-tuple Merge(batch...) per op into each
// registered operator's window and reports it per tuple. Every 1024 ops the
// next window takes over, as a pane does when its slide closes, so the
// windows that keep their tuples stay small; the windows are made before
// the clock starts. sum, count and avg are CI-gated at 0 allocs/op.
func BenchmarkWindowMerge(b *testing.B) {
	const batch, perWindow = 64, 1024
	for _, name := range registered() {
		op, err := New(name, nil)
		if err != nil {
			b.Fatal(err)
		}
		raws := mergeStream(rand.New(rand.NewSource(1)), batch)
		b.Run(name, func(b *testing.B) {
			ws := make([]Window, b.N/perWindow+1)
			for i := range ws {
				ws[i] = op.NewWindow()
			}
			var w Window
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if i%perWindow == 0 {
					w, ws[0], ws = ws[0], nil, ws[1:]
				}
				w.Merge(raws...)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*batch), "ns/tuple")
		})
	}
}
