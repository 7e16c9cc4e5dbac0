package mortar

import (
	"testing"
	"time"

	"repro/internal/runtime/simrt"
	"repro/internal/tuple"
	"repro/internal/wire"
)

// tupleWinQuery installs a tuple-window query: the topk of the last RangeN
// tuples from each source, sliding every SlideN tuples (§4.1: "Mortar's
// query operators process the last n tuples from each source").
func tupleWinQuery(t *testing.T, fab *Fabric, rt *simrt.Runtime, rangeN, slideN int) {
	t.Helper()
	meta := QueryMeta{
		Name:   "tw",
		Seq:    1,
		OpName: "max",
		Window: tuple.WindowSpec{Kind: tuple.TupleWindow, RangeN: rangeN, SlideN: slideN},
		Root:   0,
	}
	def, err := fab.Compile(meta, nil, uniformCoords(fab.NumPeers(), 7), 4, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := fab.Install(0, def); err != nil {
		t.Fatal(err)
	}
}

func TestTupleWindowEmitsPerSlideCount(t *testing.T) {
	fab, rt := testbed(t, 12, 21, DefaultConfig(), nil)
	var results []Result
	fab.SubscribeAll(func(r Result) { results = append(results, r) })
	tupleWinQuery(t, fab, rt, 4, 4)
	// Each peer emits one tuple per second with increasing values.
	for i := 0; i < 12; i++ {
		i := i
		n := 0
		phase := time.Duration(137*(i+1)%997) * time.Millisecond
		rt.After(phase, func() {
			rt.Every(time.Second, func() {
				n++
				fab.Inject(i, tuple.Raw{Vals: []float64{float64(n)}})
			})
		})
	}
	rt.RunFor(30 * time.Second)
	if len(results) == 0 {
		t.Fatal("no tuple-window results")
	}
	// Results reflect the max over the last 4 tuples of each source, so
	// values must grow over time and completeness should cover many peers
	// once intervals merge.
	last := results[len(results)-1]
	if last.Value.(float64) < 10 {
		t.Fatalf("final max = %v, want the latest tuples", last.Value)
	}
	best := 0
	for _, r := range results {
		if r.Count > best {
			best = r.Count
		}
	}
	if best < 8 {
		t.Fatalf("max completeness %d of 12; interval merging failed", best)
	}
}

func TestTupleWindowIntervalsValid(t *testing.T) {
	fab, rt := testbed(t, 8, 22, DefaultConfig(), nil)
	var results []Result
	fab.SubscribeAll(func(r Result) { results = append(results, r) })
	tupleWinQuery(t, fab, rt, 6, 3)
	for i := 0; i < 8; i++ {
		i := i
		phase := time.Duration(211*(i+1)%997) * time.Millisecond
		rt.After(phase, func() {
			rt.Every(500*time.Millisecond, func() {
				fab.Inject(i, tuple.Raw{Vals: []float64{1}})
			})
		})
	}
	rt.RunFor(20 * time.Second)
	for _, r := range results {
		if r.Index.Empty() {
			t.Fatalf("empty validity interval in result %+v", r)
		}
		// Arrival spans of 6 tuples at 500ms spacing are ~2.5s, plus
		// overlap splits can produce smaller pieces — but never larger
		// than the span plus boundary extension.
		if r.Index.Duration() > 10*time.Second {
			t.Fatalf("interval %v implausibly long", r.Index)
		}
	}
}

func TestTupleWindowStallBoundaryExtends(t *testing.T) {
	fab, rt := testbed(t, 4, 23, DefaultConfig(), nil)
	tupleWinQuery(t, fab, rt, 2, 2)
	// Only peer 1 produces data, then stalls; boundary tuples must keep
	// the pipeline alive without fabricating values.
	for k := 0; k < 4; k++ {
		k := k
		rt.After(time.Duration(k)*time.Second, func() {
			fab.Inject(1, tuple.Raw{Vals: []float64{float64(k)}})
		})
	}
	var results []Result
	fab.SubscribeAll(func(r Result) { results = append(results, r) })
	rt.RunFor(30 * time.Second)
	if len(results) == 0 {
		t.Fatal("no results")
	}
	for _, r := range results {
		if r.Value != nil && r.Value.(float64) > 3 {
			t.Fatalf("fabricated value %v", r.Value)
		}
	}
}

// The Wi-Fi scenario's natural form: a tuple window over the last frames
// per sniffer rather than a time window.
func TestTupleWindowTopK(t *testing.T) {
	fab, rt := testbed(t, 6, 24, DefaultConfig(), nil)
	meta := QueryMeta{
		Name:   "twk",
		Seq:    1,
		OpName: "topk",
		OpArgs: []string{"2", "0"},
		Window: tuple.WindowSpec{Kind: tuple.TupleWindow, RangeN: 3, SlideN: 3},
		Root:   0,
	}
	def, err := fab.Compile(meta, nil, uniformCoords(6, 3), 3, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := fab.Install(0, def); err != nil {
		t.Fatal(err)
	}
	var got []wire.ScoredEntry
	fab.SubscribeAll(func(r Result) {
		if r.Value != nil {
			got = r.Value.([]wire.ScoredEntry)
		}
	})
	for i := 0; i < 6; i++ {
		i := i
		phase := time.Duration(93*(i+1)) * time.Millisecond
		rt.After(phase, func() {
			rt.Every(time.Second, func() {
				fab.Inject(i, tuple.Raw{Key: "s" + string(rune('a'+i)), Vals: []float64{float64(10 * i)}})
			})
		})
	}
	rt.RunFor(25 * time.Second)
	if len(got) == 0 {
		t.Fatal("no topk results")
	}
	if got[0].Score < 40 {
		t.Fatalf("topk missed the loudest source: %+v", got)
	}
}
