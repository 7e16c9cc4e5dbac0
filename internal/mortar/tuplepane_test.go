package mortar

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	goruntime "runtime"
	"sort"
	"testing"
	"time"

	"repro/internal/ops"
	"repro/internal/runtime/simrt"
	"repro/internal/tuple"
	"repro/internal/vclock"
	"repro/internal/wire"
)

// recomputed is the summary a tuple window emits when its last RangeN
// arrivals are win, which arrived at ats, computed from scratch at frame
// time now: a fresh window's Value over them, their arrival span as the
// index and their mean time since arrival as the age.
func recomputed(op ops.Operator, win []tuple.Raw, ats []time.Duration, now time.Duration) tuple.Summary {
	w := op.NewWindow()
	w.Merge(win...)
	var ageSum time.Duration
	for _, at := range ats {
		ageSum += now - at
	}
	return tuple.Summary{
		Index: tuple.Index{TB: ats[0], TE: ats[len(ats)-1] + 1},
		Value: w.Value(),
		Count: 1,
		Age:   ageSum / time.Duration(len(win)),
	}
}

// sameValue compares a pane-built window value with the recomputed one:
// sum and avg may differ by summation order, and union's order among equal
// keys is unspecified. Quantile is compared exactly, so its windows must
// stay within the sample cap.
func sameValue(name string, got, want tuple.Value) bool {
	near := func(a, b float64) bool { return math.Abs(a-b) <= 1e-9*math.Max(math.Abs(a), math.Abs(b)) }
	switch name {
	case "sum":
		return near(got.(float64), want.(float64))
	case "avg":
		g, w := got.([]float64), want.([]float64)
		return near(g[0], w[0]) && g[1] == w[1]
	case "union":
		canon := func(v tuple.Value) []string {
			var out []string
			for _, e := range v.([]wire.ScoredEntry) {
				out = append(out, fmt.Sprint(e))
			}
			sort.Strings(out)
			return out
		}
		return reflect.DeepEqual(canon(got), canon(want))
	}
	return reflect.DeepEqual(got, want)
}

// TestTupleWindowMatchesRecompute drives every operator's tuple window
// through generated arrival sequences — batches of 1 to 70 tuples sharing
// an arrival stamp, over random keys and values — and holds each emission
// to the summary recomputed from scratch over the last RangeN arrivals:
// same emissions, same index, count and age, and the same value.
func TestTupleWindowMatchesRecompute(t *testing.T) {
	specs := [][2]int{{1, 1}, {5, 3}, {10, 1}, {2, 5}, {4, 8}, {12, 4}, {7, 7}, {64, 64}, {100, 10}}
	fab, rt := testbed(t, 2, 41, DefaultConfig(), nil)
	for _, name := range []string{"avg", "bloom", "count", "distinct", "entropy", "hist", "max", "min",
		"quantile", "sum", "topk", "trilat", "union"} { // every registered operator
		op, err := ops.New(name, nil)
		if err != nil {
			t.Fatal(err)
		}
		for _, sp := range specs {
			w := tuple.WindowSpec{Kind: tuple.TupleWindow, RangeN: sp[0], SlideN: sp[1]}
			if ops.CheckWindow(op, w) != nil {
				continue // trilat over several panes is refused at install
			}
			inst, err := fab.peers[0].newInstance(QueryMeta{Name: "d", OpName: name, Window: w}, 0)
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(int64(100*sp[0] + sp[1])))
			var got, want []tuple.Summary
			var arrivals []tuple.Raw
			var arrivalAts []time.Duration // arrivals[i] arrived at arrivalAts[i]
			for len(arrivals) < 4*(sp[0]+sp[1])+100 {
				rt.RunFor(time.Duration(1+rng.Intn(40)) * time.Millisecond)
				at := inst.frameNow()
				batch := make([]tuple.Raw, 1+rng.Intn(70))
				for i := range batch {
					batch[i] = tuple.Raw{
						Key:  fmt.Sprintf("k%d", rng.Intn(9)),
						Vals: []float64{float64(rng.Intn(40)) * 0.1, float64(rng.Intn(50)), -30 - float64(rng.Intn(60))},
					}
				}
				inst.takeArrivals(batch, at, func(s tuple.Summary) { got = append(got, s) })
				for _, r := range batch {
					arrivalAts = append(arrivalAts, at)
					if arrivals = append(arrivals, r); len(arrivals)%w.SlideN == 0 {
						from := max(0, len(arrivals)-w.RangeN)
						want = append(want, recomputed(op, arrivals[from:], arrivalAts[from:], at))
					}
				}
			}
			if len(got) != len(want) {
				t.Fatalf("%s %v: %d emissions, want %d", name, sp, len(got), len(want))
			}
			for i := range want {
				g, w := got[i], want[i]
				if g.Index != w.Index || g.Count != w.Count || g.Age != w.Age || !sameValue(name, g.Value, w.Value) {
					t.Fatalf("%s %v emission %d: %v count %d age %v value %v, want %v count %d age %v value %v",
						name, sp, i, g.Index, g.Count, g.Age, g.Value, w.Index, w.Count, w.Age, w.Value)
				}
			}
		}
	}
}

// TestTupleWindowAgeOverLongSpan spreads 2^20 arrivals of one tuple window
// evenly over 2.8 hours of clocks that read 2^50 ns at start, so that
// n·(now − first arrival) > 2^63 while the sum of their ages is half that:
// the reported age is still the mean time since arrival.
func TestTupleWindowAgeOverLongSpan(t *testing.T) {
	const (
		hosts          = 4
		n, batches     = 1 << 20, 1 << 10
		first, gap     = 3400 * time.Millisecond, 10 * time.Second
		meanArrival    = 1<<50 + first + (batches-1)*gap/2 // on the peers' clocks
		arrivalsPerGap = n / batches
	)
	clocks := make([]vclock.Clock, hosts)
	for i := range clocks {
		clocks[i] = vclock.Clock{Offset: 1 << 50, Skew: 1}
	}
	fab, rt := timestampBed(t, hosts, 0, clocks)
	var results []Result
	fab.SubscribeAll(func(r Result) {
		if r.Value != nil {
			results = append(results, r)
		}
	})
	installWindowed(t, fab, rt, "sum", tuple.WindowSpec{Kind: tuple.TupleWindow, RangeN: n, SlideN: n})
	for b := time.Duration(0); b < batches; b++ {
		rt.After(first+b*gap-rt.Now(), func() {
			raws := fab.GetRawBatch(arrivalsPerGap)
			for i := 0; i < arrivalsPerGap; i++ {
				raws = append(raws, tuple.Raw{Vals: []float64{1}})
			}
			fab.InjectBatch(1, raws)
		})
	}
	rt.RunFor(3 * time.Hour)
	if len(results) != 1 || results[0].Value.(float64) != n {
		t.Fatalf("results = %+v, want one window of %d", results, n)
	}
	r := results[0]
	if d := r.Age - (r.At - meanArrival); d < -time.Millisecond || d > time.Millisecond {
		t.Fatalf("age %v at report time %v, want the %v since the mean arrival", r.Age, r.At, r.At-meanArrival)
	}
}

// TestRetainedBytesLinearInTupleWindow fills a sliding tuple window of
// every operator with one arrival per pane (SlideN 1) and a fresh key each,
// one pane past full, so the pane queue has just turned over: what the
// instance then holds stays within a bound linear in the window. A union
// or entropy value grows with its input, so a queue that kept a Combine
// per held pane for them would retain the square of the window.
func TestRetainedBytesLinearInTupleWindow(t *testing.T) {
	const rangeN, perArrival = 1024, 2 << 10
	fab, _ := testbed(t, 2, 43, DefaultConfig(), nil)
	raws := make([]tuple.Raw, rangeN+1)
	for i := range raws {
		raws[i] = tuple.Raw{Key: fmt.Sprintf("key-%d", i), Vals: []float64{float64(i), 1, -40}}
	}
	heap := func() int64 {
		goruntime.GC()
		var m goruntime.MemStats
		goruntime.ReadMemStats(&m)
		return int64(m.HeapAlloc)
	}
	for _, name := range []string{"avg", "bloom", "count", "distinct", "entropy", "hist", "max", "min",
		"quantile", "sum", "topk", "union"} { // every registered operator but one-pane trilat
		var last tuple.Summary
		before := heap()
		w := tuple.WindowSpec{Kind: tuple.TupleWindow, RangeN: rangeN, SlideN: 1}
		inst, err := fab.peers[0].newInstance(QueryMeta{Name: "r", OpName: name, Window: w}, 0)
		if err != nil {
			t.Fatal(err)
		}
		for i := range raws {
			inst.takeArrivals(raws[i:i+1], time.Duration(i), func(s tuple.Summary) { last = s })
		}
		if held := heap() - before; held > rangeN*perArrival {
			t.Errorf("%s: a %d-tuple window holds %d bytes, want at most %d", name, rangeN, held, rangeN*perArrival)
		}
		goruntime.KeepAlive(inst)
		goruntime.KeepAlive(last)
	}
}

// emitted keeps BenchmarkTupleWindowArrival's summaries observable.
var emitted tuple.Summary

// BenchmarkTupleWindowArrival times one arrival into a full tuple window
// that emits on every arrival (SlideN 1): the merge, the pane seal and
// push, and the emitted summary's value, index and age — everything short
// of the time-space list. The queue flips once every RangeN arrivals, and
// the timed run starts with one, so every run pays for at least one flip
// and ns/op is the amortised cost once b.N spans several RangeN; neither
// it nor allocs/op should grow with RangeN.
func BenchmarkTupleWindowArrival(b *testing.B) {
	for _, name := range []string{"sum", "max", "topk"} {
		for _, rangeN := range []int{100, 10_000} {
			b.Run(fmt.Sprintf("%s/%d", name, rangeN), func(b *testing.B) {
				rt := simrt.NewPaper(1, 2, simrt.TopoOptions{Stubs: 2, Transits: 1})
				fab, err := NewFabric(rt, DefaultConfig())
				if err != nil {
					b.Fatal(err)
				}
				w := tuple.WindowSpec{Kind: tuple.TupleWindow, RangeN: rangeN, SlideN: 1}
				inst, err := fab.peers[0].newInstance(QueryMeta{Name: "b", OpName: name, Window: w}, 0)
				if err != nil {
					b.Fatal(err)
				}
				rng := rand.New(rand.NewSource(1))
				raws := make([]tuple.Raw, 1024)
				for i := range raws {
					raws[i] = tuple.Raw{Key: fmt.Sprintf("k%d", rng.Intn(64)), Vals: []float64{rng.Float64()}}
				}
				emit := func(s tuple.Summary) { emitted = s }
				arrive := func(i int) {
					inst.takeArrivals(raws[i%len(raws):i%len(raws)+1], time.Duration(i), emit)
				}
				// Fill the window, so every timed arrival evicts and the
				// first one flips the queue.
				for i := 0; i < rangeN; i++ {
					arrive(i)
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					arrive(rangeN + i)
				}
			})
		}
	}
}
