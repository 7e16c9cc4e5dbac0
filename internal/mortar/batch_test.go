package mortar

import (
	"reflect"
	"sort"
	"testing"
	"time"

	"repro/internal/tuple"
)

// TestBatchIngestMatchesPerTuple feeds two identical federations the same
// mixed-key tuples, to one as a single InjectBatch per peer and tick and to
// the other as single Injects in the same turn, and holds their result
// streams identical. Every peer hosts five instances that read one batch in
// turn: a select on Key grouped by SubKey, an unfiltered histogram (grouped
// by SubKey where a tuple has one), an unfiltered sum, a sliding avg and a
// tuple-window max. An instance that wrote a Key into the shared batch, or
// merged a time window's batch other than as its tuples one by one would,
// shows here; the two histograms' keys pin what each instance selected.
func TestBatchIngestMatchesPerTuple(t *testing.T) {
	const peers = 12
	second := time.Second
	queries := []QueryMeta{
		{Name: "sel", OpName: "hist", FilterKey: "wanted",
			Window: tuple.WindowSpec{Kind: tuple.TimeWindow, Range: second, Slide: second}},
		{Name: "keys", OpName: "hist",
			Window: tuple.WindowSpec{Kind: tuple.TimeWindow, Range: second, Slide: second}},
		{Name: "sum", OpName: "sum",
			Window: tuple.WindowSpec{Kind: tuple.TimeWindow, Range: second, Slide: second}},
		{Name: "slide", OpName: "avg",
			Window: tuple.WindowSpec{Kind: tuple.TimeWindow, Range: 3 * second, Slide: second}},
		{Name: "tw", OpName: "max",
			Window: tuple.WindowSpec{Kind: tuple.TupleWindow, RangeN: 5, SlideN: 3}},
	}
	// tick is peer i's n'th batch: keys the select matches and drops, with
	// and without sub-keys, and values that differ per tuple.
	tick := func(i, n int) []tuple.Raw {
		v := func(k int) []float64 { return []float64{float64((i*31 + n*7 + k*13) % 23)} }
		return []tuple.Raw{
			{Key: "wanted", SubKey: "a", Vals: v(0)},
			{Key: "other", SubKey: "b", Vals: v(1)},
			{Key: "wanted", Vals: v(2)},
			{Vals: v(3)},
			{Key: "wanted", SubKey: "c", Vals: v(4)},
			{Key: "x", Vals: v(5)},
		}
	}
	type row struct {
		Query  string
		Window int64
		Index  tuple.Index
		Count  int
		Value  tuple.Value
		Age    time.Duration
	}
	run := func(batched bool) []row {
		fab, rt := testbed(t, peers, 31, DefaultConfig(), nil)
		var rows []row
		fab.SubscribeAll(func(r Result) {
			rows = append(rows, row{r.Query, r.WindowIndex, r.Index, r.Count, r.Value, r.Age})
		})
		for qi, meta := range queries {
			meta.Seq, meta.Root = uint64(qi+1), 0
			def, err := fab.Compile(meta, nil, uniformCoords(peers, 9), 3, 2)
			if err != nil {
				t.Fatal(err)
			}
			if err := fab.Install(0, def); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < peers; i++ {
			i, n := i, 0
			phase := time.Duration(137*(i+1)%997)*time.Millisecond + 500*time.Microsecond
			rt.After(phase, func() {
				rt.Every(250*time.Millisecond, func() {
					n++
					raws := tick(i, n)
					if batched {
						fab.InjectBatch(i, append(fab.GetRawBatch(len(raws)), raws...))
						return
					}
					for _, r := range raws {
						fab.Inject(i, r)
					}
				})
			})
		}
		rt.RunFor(15 * time.Second)
		return rows
	}
	perTuple, batched := run(false), run(true)
	if len(perTuple) == 0 {
		t.Fatal("no results")
	}
	last := map[string]tuple.Value{}
	for _, r := range perTuple {
		if r.Value != nil {
			last[r.Query] = r.Value
		}
	}
	for _, q := range queries {
		if last[q.Name] == nil {
			t.Fatalf("query %s reported no value", q.Name)
		}
	}
	for q, want := range map[string][]string{"sel": {"a", "c", "wanted"}, "keys": {"", "a", "b", "c", "wanted", "x"}} {
		var got []string
		for k := range last[q].(map[string]float64) {
			got = append(got, k)
		}
		sort.Strings(got)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("query %s grouped keys %q, want %q", q, got, want)
		}
	}
	if len(batched) != len(perTuple) {
		t.Fatalf("batched ingest reported %d results, per-tuple %d", len(batched), len(perTuple))
	}
	for i := range perTuple {
		if !reflect.DeepEqual(batched[i], perTuple[i]) {
			t.Fatalf("result %d: batched %+v, per-tuple %+v", i, batched[i], perTuple[i])
		}
	}
}

// TestInjectAllocatesNothing pins Inject's steady state: a tuple rides a
// pooled one-slot batch into the peer, so Inject into a sum instance,
// between slide closes, allocates nothing. Every tuple still reaches the
// root.
func TestInjectAllocatesNothing(t *testing.T) {
	fab, rt := testbed(t, 2, 17, DefaultConfig(), nil)
	var mass float64
	fab.SubscribeAll(func(r Result) {
		if v, ok := r.Value.(float64); ok {
			mass += v
		}
	})
	installWindowed(t, fab, rt, "sum", tumbling(10*time.Second))
	rt.RunFor(time.Second) // wire the trees
	vals := []float64{1}
	inject := func() { fab.Inject(1, tuple.Raw{Vals: vals}) }
	inject() // fill the batch and job pools
	const runs = 100
	if allocs := testing.AllocsPerRun(runs, inject); allocs != 0 {
		t.Fatalf("Inject allocates %v times per call, want 0", allocs)
	}
	rt.RunFor(20 * time.Second)
	if want := float64(1 + runs + 1); mass != want { // AllocsPerRun adds a warm-up call
		t.Fatalf("root reported %v of %v tuples", mass, want)
	}
}
