package mortar

import (
	"fmt"
	"hash/fnv"
	"testing"
	"time"

	"repro/internal/metrics"
	"repro/internal/runtime"
	"repro/internal/runtime/simrt"
	"repro/internal/tuple"
	"repro/internal/wire"
)

// When the root reports a window: the moment every member is counted, in
// index order, otherwise on its dynamic timeout. These tests pin both paths
// on the deterministic backend. Values marked "parent" were recorded by
// running the same scenario at the commit before the complete path existed
// (ff66e2b), where evictExpired was the only thing that ever reported.

const reportSlide = 250 * time.Millisecond

// reportFed is bench/'s fanin-wan shape on simrt: 64 peers, bf-4 trees, a
// tree set of 2, one sum query over 250 ms tumbling windows rooted at peer
// 0, every peer's sensor emitting 1 every 50 ms (five raws a window) at its
// own phase. leafDown disconnects one leaf of the plan before the install.
func reportFed(t *testing.T, seed int64, peers, bf, d int, leafDown bool) (*Fabric, *simrt.Runtime, *[]Result) {
	t.Helper()
	fab, rt := testbed(t, peers, seed, DefaultConfig(), nil)
	results := new([]Result)
	fab.OnResult = func(r Result) { *results = append(*results, r) }
	meta := QueryMeta{
		Name:      "rep",
		Seq:       1,
		OpName:    "sum",
		Window:    tuple.WindowSpec{Kind: tuple.TimeWindow, Range: reportSlide, Slide: reportSlide},
		Root:      0,
		IssuedSim: rt.Now(),
	}
	def, err := fab.Compile(meta, nil, uniformCoords(peers, 7), bf, d)
	if err != nil {
		t.Fatal(err)
	}
	if leafDown {
		fab.SetDown(leafOf(t, def), true)
	}
	if err := fab.Install(0, def); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < peers; i++ {
		i := i
		phase := time.Duration(137*(i+1)%50)*time.Millisecond + 500*time.Microsecond
		rt.After(phase, func() {
			rt.Every(50*time.Millisecond, func() { fab.Inject(i, tuple.Raw{Vals: []float64{1}}) })
		})
	}
	return fab, rt, results
}

// leafOf returns a member that parents nobody in any tree of the plan.
func leafOf(t *testing.T, def *QueryDef) int {
	t.Helper()
	for mi := len(def.Members) - 1; mi > 0; mi-- {
		leaf := true
		for _, kids := range neighborsFor(def, mi).Children {
			leaf = leaf && len(kids) == 0
		}
		if leaf {
			return def.Members[mi]
		}
	}
	t.Fatal("plan has no leaf")
	return -1
}

func medianAge(rs []Result) time.Duration {
	ages := make([]float64, len(rs))
	for i, r := range rs {
		ages[i] = float64(r.Age)
	}
	return time.Duration(metrics.Percentile(ages, 50))
}

// (a) All 64 members live: every warm window leaves the root on the complete
// path with everyone counted, in order, nothing late, and half as old as it
// was when the root waited out its timer.
func TestCompleteWindowsReportAtOnce(t *testing.T) {
	const (
		warm = 5 * time.Second
		// parentMedianAge is what this scenario's warm windows read at the
		// parent, every one of them reported by evictExpired.
		parentMedianAge = 1237111 * time.Microsecond
	)
	fab, rt, results := reportFed(t, 1, 64, 4, 2, false)
	rt.RunFor(warm)
	n0 := len(*results)
	late0 := fab.Stats.LateAtRoot.Load()
	rep0, fast0 := fab.Stats.ResultsReported.Load(), fab.Stats.ReportedComplete.Load()
	rt.RunFor(25 * time.Second)
	warmed := (*results)[n0:]
	if len(warmed) < 95 {
		t.Fatalf("%d windows in 25 s of 250 ms slides", len(warmed))
	}
	for i, r := range warmed {
		if r.Count != 64 || r.Value.(float64) != 5*64 {
			t.Fatalf("window %d: count %d value %v, want 64 members and 320", r.WindowIndex, r.Count, r.Value)
		}
		if i > 0 && r.WindowIndex != warmed[i-1].WindowIndex+1 {
			t.Fatalf("window %d reported after %d", r.WindowIndex, warmed[i-1].WindowIndex)
		}
	}
	if late := fab.Stats.LateAtRoot.Load() - late0; late != 0 {
		t.Fatalf("%d summaries late at the root", late)
	}
	rep, fast := fab.Stats.ResultsReported.Load()-rep0, fab.Stats.ReportedComplete.Load()-fast0
	if rep != uint64(len(warmed)) || fast != rep {
		t.Fatalf("%d results, %d reported, %d of them on the complete path", len(warmed), rep, fast)
	}
	got := medianAge(warmed)
	t.Logf("median Result.Age %v (parent %v)", got, parentMedianAge)
	if float64(got) > 0.65*float64(parentMedianAge) {
		t.Fatalf("median Result.Age %v, want at most 0.65 of the parent's %v", got, parentMedianAge)
	}
}

// (b) One leaf down from before the install: no window ever counts all 64,
// the complete path never fires, and the timer path reports what it
// reported at the parent, to the nanosecond.
func TestTimerPathUnchangedWhenAMemberIsMissing(t *testing.T) {
	const (
		// Recorded at the parent for seed 1: how many results 30 s give and
		// the FNV-1a digest of every result's WindowIndex, At, Count and Value.
		parentResults = 115
		parentDigest  = 0xb74ef8ccbf8983a2
	)
	fab, rt, results := reportFed(t, 1, 64, 4, 2, true)
	rt.RunFor(30 * time.Second)
	if fast := fab.Stats.ReportedComplete.Load(); fast != 0 {
		t.Fatalf("%d results took the complete path with a member down", fast)
	}
	h := fnv.New64a()
	for _, r := range *results {
		if r.Count >= 64 {
			t.Fatalf("window %d counted %d with a member down", r.WindowIndex, r.Count)
		}
		fmt.Fprintln(h, r.WindowIndex, int64(r.At), r.Count, r.Value)
	}
	if len(*results) != parentResults || h.Sum64() != uint64(parentDigest) {
		t.Fatalf("timer path moved: %d results, digest %#x; the parent gave %d, %#x",
			len(*results), h.Sum64(), parentResults, uint64(parentDigest))
	}
}

// holdFrame re-registers the root's delivery handler so that the first
// summary frame peer from sends it at or after sim time at is delivered
// delay late — and, when dup is set, on time as well.
func holdFrame(fab *Fabric, rt *simrt.Runtime, from int, at, delay time.Duration, dup bool) {
	root := fab.Peer(0)
	done := false
	rt.Handle(0, func(src int, payload any, size int) {
		if !done && src == from && rt.Now() >= at && summaryFrame(payload) {
			done = true
			rt.After(delay, func() { root.deliver(src, payload, size) })
			if !dup {
				return
			}
		}
		root.deliver(src, payload, size)
	})
}

func summaryFrame(payload any) bool {
	if fr, ok := payload.(*runtime.Frame); ok {
		payload = fr.Payload
	}
	switch payload.(type) {
	case *envelope, *wire.EnvelopeBatch:
		return true
	}
	return false
}

// starFed is a root with seven direct children (one bf-8 tree), warmed up,
// so that one held frame is one member's one window.
func starFed(t *testing.T) (*Fabric, *simrt.Runtime, *[]Result) {
	t.Helper()
	fab, rt, results := reportFed(t, 1, 8, 8, 1, false)
	rt.RunFor(5 * time.Second)
	*results = (*results)[:0]
	return fab, rt, results
}

// (c) In order: one member's window n is held back past the root's timeout,
// so n+1 is complete while n is still open. n+1 waits; n goes out on its
// timer one member short; n+1 follows in the same instant, and only the
// straggler itself is late.
func TestCompleteWindowWaitsForOlderOpenWindow(t *testing.T) {
	fab, rt, results := starFed(t)
	late0, fast0 := fab.Stats.LateAtRoot.Load(), fab.Stats.ReportedComplete.Load()
	holdFrame(fab, rt, 3, rt.Now()+time.Second, 600*time.Millisecond, false)
	rt.RunFor(5 * time.Second)
	short := -1
	for i, r := range *results {
		if i > 0 && r.WindowIndex != (*results)[i-1].WindowIndex+1 {
			t.Fatalf("window %d reported after %d", r.WindowIndex, (*results)[i-1].WindowIndex)
		}
		if r.Count == 8 {
			continue
		}
		if r.Count != 7 || short >= 0 {
			t.Fatalf("window %d counted %d; want one window one member short", r.WindowIndex, r.Count)
		}
		short = i
	}
	if short < 1 || short+2 >= len(*results) {
		t.Fatalf("short window at position %d of %d", short, len(*results))
	}
	n, next := (*results)[short], (*results)[short+1]
	if wait := n.At - (*results)[short-1].At; wait < reportSlide+50*time.Millisecond {
		t.Fatalf("window %d reported %v after its predecessor: not on its timer", n.WindowIndex, wait)
	}
	if next.At != n.At {
		t.Fatalf("window %d reported at %v, not the instant window %d's timer fired (%v)",
			next.WindowIndex, next.At, n.WindowIndex, n.At)
	}
	if late := fab.Stats.LateAtRoot.Load() - late0; late != 1 {
		t.Fatalf("%d summaries late at the root, want the one straggler", late)
	}
	if fast := fab.Stats.ReportedComplete.Load() - fast0; fast != uint64(len(*results)-1) {
		t.Fatalf("%d of %d results on the complete path, want all but the short window", fast, len(*results))
	}
}

// (d) A frame delivered twice, the second copy after its window was reported
// on completeness: the copy is counted late and no window counts a ninth
// member because of it.
func TestDuplicateAfterCompleteReportIsLate(t *testing.T) {
	fab, rt, results := starFed(t)
	late0 := fab.Stats.LateAtRoot.Load()
	holdFrame(fab, rt, 3, rt.Now()+time.Second, 600*time.Millisecond, true)
	rt.RunFor(5 * time.Second)
	if len(*results) < 18 {
		t.Fatalf("%d windows in 5 s", len(*results))
	}
	for _, r := range *results {
		if r.Count != 8 || r.Value.(float64) != 5*8 {
			t.Fatalf("window %d: count %d value %v, want 8 members and 40", r.WindowIndex, r.Count, r.Value)
		}
	}
	if late := fab.Stats.LateAtRoot.Load() - late0; late != 1 {
		t.Fatalf("%d summaries late at the root, want the one duplicate", late)
	}
	if rep, fast := fab.Stats.ResultsReported.Load(), fab.Stats.ReportedComplete.Load(); rep-fast > 5 {
		t.Fatalf("%d of %d results waited out the timer", rep-fast, rep)
	}
}
