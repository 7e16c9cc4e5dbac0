package mortar

import (
	"testing"
	"time"

	"repro/internal/runtime/simrt"
	"repro/internal/tuple"
	"repro/internal/wire"
)

// lossyTestbed builds a fabric whose links drop a fraction of packets —
// Mortar is best-effort and must degrade gracefully, not wedge.
func lossyTestbed(t *testing.T, hosts int, loss float64, seed int64) (*Fabric, *simrt.Runtime) {
	t.Helper()
	rt := simrt.NewPaper(seed, hosts, simrt.TopoOptions{Stubs: 8, Transits: 2, Loss: loss})
	fab, err := NewFabric(rt, nil, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	return fab, rt
}

func TestLossyNetworkDegradesGracefully(t *testing.T) {
	// 1% per-link loss compounds over ~10-link physical paths per overlay
	// hop; best-effort Mortar must keep reporting with degraded
	// completeness, never wedge.
	fab, rt := lossyTestbed(t, 40, 0.01, 31)
	var results []Result
	fab.OnResult = func(r Result) { results = append(results, r) }
	sumQuery(t, fab, rt, 4, 4)
	rt.RunFor(60 * time.Second)
	if len(results) < 30 {
		t.Fatalf("only %d results under 1%% loss", len(results))
	}
	var tail float64
	for _, r := range results[len(results)-10:] {
		tail += float64(r.Count)
	}
	tail /= 10
	if tail < 28 {
		t.Fatalf("mean completeness %.1f of 40 under 1%% loss", tail)
	}
}

func TestConcurrentQueriesShareHeartbeats(t *testing.T) {
	fab, rt := testbed(t, 40, 32, DefaultConfig(), nil)
	counts := map[string]int{}
	fab.OnResult = func(r Result) {
		if r.Count == 40 {
			counts[r.Query]++
		}
	}
	coords := uniformCoords(40, 5)
	for qi, op := range []string{"sum", "max", "avg"} {
		meta := QueryMeta{
			Name:      op + "-q",
			Seq:       uint64(qi + 1),
			OpName:    op,
			Window:    tuple.WindowSpec{Kind: tuple.TimeWindow, Range: time.Second, Slide: time.Second},
			Root:      0,
			IssuedSim: rt.Now(),
		}
		def, err := fab.Compile(meta, nil, coords, 8, 2)
		if err != nil {
			t.Fatal(err)
		}
		if err := fab.Install(0, def); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 40; i++ {
		startSensor(fab, rt, i)
	}
	rt.RunFor(40 * time.Second)
	for _, op := range []string{"sum-q", "max-q", "avg-q"} {
		if counts[op] < 10 {
			t.Fatalf("query %s reached full completeness only %d times", op, counts[op])
		}
	}
	// Heartbeat traffic must be shared: with 3 queries over similar trees,
	// control bytes should be well under 3x a single query's.
	ctl3 := rt.ControlBytes()

	fab1, rt1 := testbed(t, 40, 32, DefaultConfig(), nil)
	meta := QueryMeta{
		Name: "solo", Seq: 1, OpName: "sum",
		Window:    tuple.WindowSpec{Kind: tuple.TimeWindow, Range: time.Second, Slide: time.Second},
		Root:      0,
		IssuedSim: rt1.Now(),
	}
	def, _ := fab1.Compile(meta, nil, coords, 8, 2)
	if err := fab1.Install(0, def); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 40; i++ {
		startSensor(fab1, rt1, i)
	}
	rt1.RunFor(40 * time.Second)
	ctl1 := rt1.ControlBytes()
	// Trees planned over the same coordinates are similar but not
	// identical (k-means seeding is randomized), so sharing is partial:
	// well under 3x, not 1x.
	if float64(ctl3) > 2.8*float64(ctl1) {
		t.Fatalf("3 queries cost %d control bytes vs %d for 1 — heartbeats not shared", ctl3, ctl1)
	}
}

func TestReinstallHigherSeqReplaces(t *testing.T) {
	fab, rt := testbed(t, 20, 33, DefaultConfig(), nil)
	coords := uniformCoords(20, 9)
	mk := func(seq uint64, op string) *QueryDef {
		meta := QueryMeta{
			Name: "q", Seq: seq, OpName: op,
			Window:    tuple.WindowSpec{Kind: tuple.TimeWindow, Range: time.Second, Slide: time.Second},
			Root:      0,
			IssuedSim: rt.Now(),
		}
		def, err := fab.Compile(meta, nil, coords, 4, 2)
		if err != nil {
			t.Fatal(err)
		}
		return def
	}
	if err := fab.Install(0, mk(1, "sum")); err != nil {
		t.Fatal(err)
	}
	rt.RunFor(5 * time.Second)
	// Re-issue the query under the same name with a higher sequence.
	if err := fab.Install(0, mk(3, "max")); err != nil {
		t.Fatal(err)
	}
	rt.RunFor(10 * time.Second)
	replaced := 0
	for i := 0; i < 20; i++ {
		if inst, ok := fab.Peer(i).insts[instKey{name: "q"}]; ok && inst.meta.Seq == 3 {
			replaced++
		}
	}
	if replaced != 20 {
		t.Fatalf("only %d/20 peers upgraded to seq 3", replaced)
	}
	// A stale lower-seq install arriving later must not downgrade.
	fab.Peer(5).installLocal(mk(2, "sum").Meta, nil, nil)
	if fab.Peer(5).insts[instKey{name: "q"}].meta.Seq != 3 {
		t.Fatal("stale install downgraded the query")
	}
}

func TestRemoveSupersedesLaterLowSeqInstall(t *testing.T) {
	fab, rt := testbed(t, 20, 34, DefaultConfig(), nil)
	coords := uniformCoords(20, 9)
	meta := QueryMeta{
		Name: "q", Seq: 1, OpName: "sum",
		Window:    tuple.WindowSpec{Kind: tuple.TimeWindow, Range: time.Second, Slide: time.Second},
		Root:      0,
		IssuedSim: rt.Now(),
	}
	def, _ := fab.Compile(meta, nil, coords, 4, 2)
	if err := fab.Install(0, def); err != nil {
		t.Fatal(err)
	}
	rt.RunFor(3 * time.Second)
	if err := fab.Remove(0, "q", 2); err != nil {
		t.Fatal(err)
	}
	rt.RunFor(5 * time.Second)
	// The cached removal (seq 2) must beat a replayed install (seq 1).
	fab.Peer(7).installLocal(meta, nil, nil)
	if _, ok := fab.Peer(7).insts[instKey{name: "q"}]; ok {
		t.Fatal("removed query re-installed by a stale message")
	}
	if got, _ := fab.Counts("q", wire.AllEpochs); got != 0 {
		t.Fatalf("%d peers still host the removed query", got)
	}
}

func TestResultAgesArePlausible(t *testing.T) {
	fab, rt := testbed(t, 30, 35, DefaultConfig(), nil)
	var results []Result
	fab.OnResult = func(r Result) { results = append(results, r) }
	sumQuery(t, fab, rt, 4, 2)
	rt.RunFor(40 * time.Second)
	for _, r := range results[5:] {
		if r.Age <= 0 || r.Age > 15*time.Second {
			t.Fatalf("result age %v implausible", r.Age)
		}
		if r.Hops < 0 || r.Hops > 12 {
			t.Fatalf("hops %d implausible", r.Hops)
		}
	}
}

// A summary whose value has not its operator's shape is dropped on arrival
// and counted, at an interior operator and at the root alike, and the
// window it reached is reported from the well-formed contributions. Each
// of these values once panicked the peer it reached: avg's Combine indexes
// a [sum, count] pair, sum's asserts a float64, and a 1-word register array
// arriving first in a distinct window's entry kept its length through
// Combine until the root's Finalize read all 32 words.
func TestMalformedSummaryValueDropped(t *testing.T) {
	for _, c := range []struct {
		op   string
		bad  tuple.Value
		want func(v tuple.Value) bool
	}{
		{"avg", []float64{1}, func(v tuple.Value) bool { return v == any(1.0) }},
		{"sum", "text", func(v tuple.Value) bool { return v == any(30.0) }},
		{"distinct", []uint64{1}, func(v tuple.Value) bool { return v.(float64) > 0.9 && v.(float64) < 1.1 }},
	} {
		t.Run(c.op, func(t *testing.T) {
			fab, rt := testbed(t, 30, 11, DefaultConfig(), nil)
			var results []Result
			fab.OnResult = func(r Result) { results = append(results, r) }
			meta := sumMeta("q", 0)
			meta.OpName = c.op
			installQuery(t, fab, rt, meta, 4, 2)
			for i := 0; i < 30; i++ {
				startSensor(fab, rt, i)
			}
			rt.RunFor(10 * time.Second)
			p, inst := interiorPeer(t, fab, "q")
			root := fab.Peer(0)
			rootInst := root.insts[instKey{name: "q"}]
			// Just past a slide boundary, at age 0, the value is the first
			// arrival of the window each operator has just opened.
			rt.RunFor(time.Second - inst.frameNow()%time.Second + time.Millisecond)
			dropped := fab.Stats.Dropped.Load()
			for _, to := range []struct {
				p    *Peer
				from int
			}{{p, inst.nb.Children[0][0]}, {root, rootInst.nb.Children[0][0]}} {
				to.p.deliver(to.from, &envelope{
					S:      tuple.Summary{Query: "q", Value: c.bad, Count: 1, Levels: []int16{0, 0}},
					SentAt: rt.Now(),
				}, 0)
			}
			reported := len(results)
			rt.RunFor(5 * time.Second)
			if got := fab.Stats.Dropped.Load() - dropped; got != 2 {
				t.Fatalf("%d summaries dropped, want the two malformed ones", got)
			}
			if len(results)-reported < 4 {
				t.Fatalf("%d windows reported after the malformed summaries", len(results)-reported)
			}
			for _, r := range results[reported:] {
				if r.Count != 30 || !c.want(r.Value) {
					t.Fatalf("window %d: count %d value %v, want all 30 members' well-formed value", r.WindowIndex, r.Count, r.Value)
				}
			}
		})
	}
}
