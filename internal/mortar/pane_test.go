package mortar

import (
	"fmt"
	"math"
	"math/rand"
	goruntime "runtime"
	"testing"
	"time"

	"repro/internal/ops"
	"repro/internal/runtime"
	"repro/internal/runtime/simrt"
	"repro/internal/tuple"
	"repro/internal/vclock"
	"repro/internal/wire"
)

// lateRuntime is simrt with every peer timer firing `late` after it is
// due, as timers do on a loaded box: the gap between a slide boundary and
// its close timer is where a raw could be counted twice.
type lateRuntime struct {
	*simrt.Runtime
	late time.Duration
}

func (r lateRuntime) Clock(peer int) runtime.Clock {
	return lateClock{r.Runtime.Clock(peer), r.late}
}

type lateClock struct {
	runtime.Clock
	late time.Duration
}

func (c lateClock) After(d time.Duration, fn func()) runtime.Timer {
	return c.Clock.After(d+c.late, fn)
}

// timestampBed builds a fabric in timestamp-indexing mode over perfect (or
// the given) clocks, so a test knows where the slide boundaries fall: at
// whole multiples of the slide on the local clock.
func timestampBed(t *testing.T, hosts int, late time.Duration, clocks []vclock.Clock) (*Fabric, *simrt.Runtime) {
	t.Helper()
	rt := simrt.NewPaper(5, hosts, simrt.TopoOptions{Stubs: 4, Transits: 2}, clocks...)
	cfg := DefaultConfig()
	cfg.Syncless = false
	fab, err := NewFabric(lateRuntime{rt, late}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return fab, rt
}

func installWindowed(t *testing.T, fab *Fabric, rt *simrt.Runtime, op string, w tuple.WindowSpec) {
	t.Helper()
	meta := QueryMeta{Name: "q", Seq: 1, OpName: op, Window: w, Root: 0}
	def, err := fab.Compile(meta, nil, uniformCoords(fab.NumPeers(), 7), 4, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := fab.Install(0, def); err != nil {
		t.Fatal(err)
	}
}

func tumbling(slide time.Duration) tuple.WindowSpec {
	return tuple.WindowSpec{Kind: tuple.TimeWindow, Range: slide, Slide: slide}
}

// TestRawCountedInExactlyOneSlide is the regression test for the double
// count the benchmark found: with close timers running 5 ms late, raws that
// arrive on, just before and just after a slide boundary — some of them
// between the boundary and the late timer — are each counted in the one
// window their arrival stamp falls in, and the reported sums add up to
// exactly what was offered.
func TestRawCountedInExactlyOneSlide(t *testing.T) {
	const (
		hosts = 6
		late  = 5 * time.Millisecond
	)
	fab, rt := timestampBed(t, hosts, late, nil)
	got := map[int64]float64{}
	fab.SubscribeAll(func(r Result) {
		if v, ok := r.Value.(float64); ok {
			got[r.WindowIndex] += v
		}
	})
	installWindowed(t, fab, rt, "sum", tumbling(time.Second))

	offsets := []time.Duration{
		0, -1, 1, // on the boundary and a nanosecond either side
		late / 2, late - 1, // past the boundary, ahead of the late timer
		-late / 2, 400 * time.Millisecond,
	}
	want := map[int64]float64{}
	offered := 0.0
	for peer := 0; peer < hosts; peer++ {
		for b := 3; b <= 9; b++ {
			for k, off := range offsets {
				if (peer+b+k)%2 == 0 {
					continue // a different mix at every peer and boundary
				}
				at := time.Duration(b)*time.Second + off
				peer := peer
				rt.After(at-rt.Now(), func() { fab.Inject(peer, tuple.Raw{Vals: []float64{1}}) })
				want[int64(at/time.Second)]++
				offered++
			}
		}
	}
	rt.RunFor(20 * time.Second)

	var sum float64
	for _, v := range got {
		sum += v
	}
	if sum != offered {
		t.Errorf("windows sum to %v, offered %v", sum, offered)
	}
	for w, v := range want {
		if got[w] != v {
			t.Errorf("window %d reported %v, want %v", w, got[w], v)
		}
	}
}

// TestSlidingWindowCombinesPanes checks Range = 3·Slide: every window
// reports the operator's Combine over the last three slides' panes. Peer 0
// (the root) produces one tuple ever, so for three windows its value is a
// single retained pane: were its children's summaries folded into that
// value in place (as a tumbling window's are), they would leak into the
// next window.
func TestSlidingWindowCombinesPanes(t *testing.T) {
	const hosts = 6
	fab, rt := timestampBed(t, hosts, 0, nil)
	got := map[int64]float64{}
	fab.SubscribeAll(func(r Result) {
		if v, ok := r.Value.(float64); ok {
			got[r.WindowIndex] = v
		}
	})
	installWindowed(t, fab, rt, "avg",
		tuple.WindowSpec{Kind: tuple.TimeWindow, Range: 3 * time.Second, Slide: time.Second})
	// Peers 1..5 emit 1 mid-slide in every slide from 2 on; the root emits
	// 100 once, in slide 4.
	for peer := 1; peer < hosts; peer++ {
		peer := peer
		rt.After(2500*time.Millisecond-rt.Now(), func() {
			fab.Inject(peer, tuple.Raw{Vals: []float64{1}})
			rt.Every(time.Second, func() { fab.Inject(peer, tuple.Raw{Vals: []float64{1}}) })
		})
	}
	rt.After(4300*time.Millisecond-rt.Now(), func() { fab.Inject(0, tuple.Raw{Vals: []float64{100}}) })
	rt.RunFor(15 * time.Second)

	for w := int64(4); w <= 10; w++ {
		ones := float64(3 * (hosts - 1)) // three full slides of the steady peers
		want := 1.0
		if w >= 4 && w <= 6 { // the windows whose range covers slide 4
			want = (ones + 100) / (ones + 1)
		}
		if v, ok := got[w]; !ok || math.Abs(v-want) > 1e-12 {
			t.Errorf("window %d avg = %v (reported %v), want %v", w, v, ok, want)
		}
	}
}

// TestPaneAgeSurvivesLargeFrameClock runs local clocks that read 2^50 ns
// (13 days) at start and merges enough raws into one window that a sum of
// absolute arrival times would overflow int64 (n·2^50 > 2^63 from n =
// 8192), for a time window's slide and for a tuple window of n arrivals.
// The panes' accumulators hold offsets, so the reported age is still the
// time since the raws arrived (on the peers' clocks, which read 2^50 ns
// past the simulator's).
func TestPaneAgeSurvivesLargeFrameClock(t *testing.T) {
	const (
		hosts = 4
		n     = 20_000
	)
	for _, w := range []tuple.WindowSpec{
		tumbling(time.Second),
		{Kind: tuple.TupleWindow, RangeN: n, SlideN: n},
	} {
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
		installWindowed(t, fab, rt, "sum", w)
		const arrival = 3400 * time.Millisecond
		rt.After(arrival-rt.Now(), func() {
			raws := fab.GetRawBatch(n)
			for i := 0; i < n; i++ {
				raws = append(raws, tuple.Raw{Vals: []float64{1}})
			}
			fab.InjectBatch(1, raws)
		})
		rt.RunFor(10 * time.Second)
		if len(results) != 1 || results[0].Value.(float64) != n {
			t.Fatalf("results = %+v, want one window of %d", results, n)
		}
		r := results[0]
		if d := r.Age - (r.At - 1<<50 - arrival); d < -time.Millisecond || d > time.Millisecond {
			t.Fatalf("age %v at report time %v, want the %v since arrival", r.Age, r.At, r.At-1<<50-arrival)
		}
	}
}

// TestRetainedBytesIndependentOfTuplesPerSlide: what an instance holds
// after a million raws merged into one open slide is what it holds after a
// thousand.
func TestRetainedBytesIndependentOfTuplesPerSlide(t *testing.T) {
	fab, rt := timestampBed(t, 2, 0, nil)
	installWindowed(t, fab, rt, "sum", tumbling(time.Hour))
	rt.RunFor(time.Second)
	vals := []float64{1}
	merge := func(n int) uint64 {
		for ; n > 0; n -= 64 {
			raws := fab.GetRawBatch(64)
			for i := 0; i < 64; i++ {
				raws = append(raws, tuple.Raw{Vals: vals})
			}
			fab.InjectBatch(1, raws)
		}
		goruntime.GC()
		var m goruntime.MemStats
		goruntime.ReadMemStats(&m)
		return m.HeapAlloc
	}
	after1k := merge(1 << 10)
	after1M := merge(1<<20 - 1<<10)
	if grown := int64(after1M) - int64(after1k); grown > 64<<10 {
		t.Fatalf("heap grew %d bytes between 1k and 1M raws in one slide", grown)
	}
	if got := fab.Stats.TuplesIngested.Load(); got != 1<<20 {
		t.Fatalf("ingested %d tuples", got)
	}
}

// TestSlidingTopKMatchesWholeRange holds a sliding window over an operator
// that is not a running sum to the value computed over the whole range at
// once: the top three keys by best score among every raw of the window's
// three slides, however the raws fall into panes and peers.
func TestSlidingTopKMatchesWholeRange(t *testing.T) {
	const hosts, first, last = 6, 2, 10
	fab, rt := timestampBed(t, hosts, 0, nil)
	got := map[int64][]wire.ScoredEntry{}
	fab.SubscribeAll(func(r Result) {
		if v, ok := r.Value.([]wire.ScoredEntry); ok {
			got[r.WindowIndex] = v
		}
	})
	installWindowed(t, fab, rt, "topk",
		tuple.WindowSpec{Kind: tuple.TimeWindow, Range: 3 * time.Second, Slide: time.Second})
	rng := rand.New(rand.NewSource(11))
	bySlide := map[int64][]tuple.Raw{}
	for slide := int64(first); slide <= last; slide++ {
		for peer := 0; peer < hosts; peer++ {
			for _, frac := range []time.Duration{300, 600} {
				peer := peer
				raw := tuple.Raw{Key: fmt.Sprintf("k%d", rng.Intn(8)), Vals: []float64{rng.Float64()}}
				bySlide[slide] = append(bySlide[slide], raw)
				at := time.Duration(slide)*time.Second + frac*time.Millisecond
				rt.After(at-rt.Now(), func() { fab.Inject(peer, raw) })
			}
		}
	}
	rt.RunFor((last + 5) * time.Second)

	for w := int64(first + 2); w <= last; w++ {
		whole := ops.TopK{K: 3}.NewWindow()
		for slide := w - 2; slide <= w; slide++ {
			for _, raw := range bySlide[slide] {
				whole.Merge(raw)
			}
		}
		want := whole.Value().([]wire.ScoredEntry)
		if len(got[w]) != len(want) {
			t.Fatalf("window %d: %d entries, want %d", w, len(got[w]), len(want))
		}
		for i := range want {
			if got[w][i].Key != want[i].Key || got[w][i].Score != want[i].Score {
				t.Errorf("window %d entry %d = %s %v, want %s %v",
					w, i, got[w][i].Key, got[w][i].Score, want[i].Key, want[i].Score)
			}
		}
	}
}

// TestSlidingWindowNeedsCombinablePartials: trilat's Combine keeps one of
// two positions, so a window of several panes over it has no value; the
// install is refused rather than answered from one pane. A tuple window is
// one pane when its range divides its slide.
func TestSlidingWindowNeedsCombinablePartials(t *testing.T) {
	fab, _ := timestampBed(t, 6, 0, nil)
	for w, wantErr := range map[tuple.WindowSpec]bool{
		{Kind: tuple.TimeWindow, Range: time.Second, Slide: time.Second}:     false,
		{Kind: tuple.TimeWindow, Range: 2 * time.Second, Slide: time.Second}: true,
		{Kind: tuple.TupleWindow, RangeN: 3, SlideN: 3}:                      false,
		{Kind: tuple.TupleWindow, RangeN: 6, SlideN: 3}:                      true,
		{Kind: tuple.TupleWindow, RangeN: 4, SlideN: 8}:                      false,
	} {
		meta := QueryMeta{Name: "pos", Seq: 1, OpName: "trilat", Root: 0, Window: w}
		def, err := fab.Compile(meta, nil, uniformCoords(fab.NumPeers(), 7), 4, 2)
		if err == nil {
			err = def.Validate()
		}
		if (err != nil) != wantErr {
			t.Errorf("trilat over %+v: err = %v, want error %v", w, err, wantErr)
		}
	}
}
