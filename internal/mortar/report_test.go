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

// When a window leaves an operator: the moment its entry has counted the
// operator's whole subtree on the window's tree — the root's report when
// every member is in — in index order, otherwise on its dynamic timeout.
// These tests pin both paths on the deterministic backend. Values marked
// "PR 14" were recorded at commit 5108743, where only the root left its
// timer; "PR 17" at commit b256145, where every hop still parked a summary
// for 20 ms before sending it.

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
	sizes := def.subtreeSizes()
	for mi := len(def.Members) - 1; mi > 0; mi-- {
		leaf := true
		for _, kids := range neighborsFor(def, sizes, mi).Children {
			leaf = leaf && len(kids) == 0
		}
		if leaf {
			return def.Members[mi]
		}
	}
	t.Fatal("plan has no leaf")
	return -1
}

// repInst is peer i's operator of reportFed's query.
func repInst(fab *Fabric, i int) *instance { return fab.Peer(i).insts[instKey{name: "rep"}] }

// resultDigest is the FNV-1a digest of the WindowIndex, Count and Value of
// every result for windows lo to hi.
func resultDigest(rs []Result, lo, hi int64) uint64 {
	h := fnv.New64a()
	for _, r := range rs {
		if r.WindowIndex >= lo && r.WindowIndex <= hi {
			fmt.Fprintln(h, r.WindowIndex, r.Count, r.Value)
		}
	}
	return h.Sum64()
}

func medianAge(rs []Result) time.Duration {
	ages := make([]float64, len(rs))
	for i, r := range rs {
		ages[i] = float64(r.Age)
	}
	return time.Duration(metrics.Percentile(ages, 50))
}

// requireExact fails unless every result counts `members` members with five
// raws each, in index order with none skipped or repeated.
func requireExact(t *testing.T, rs []Result, members int) {
	t.Helper()
	for i, r := range rs {
		if r.Count != members || r.Value.(float64) != float64(5*members) {
			t.Fatalf("window %d: count %d value %v, want %d members and %d", r.WindowIndex, r.Count, r.Value, members, 5*members)
		}
		if i > 0 && r.WindowIndex != rs[i-1].WindowIndex+1 {
			t.Fatalf("window %d reported after %d", r.WindowIndex, rs[i-1].WindowIndex)
		}
	}
}

// (a) All 64 members live: every warm window leaves every operator on the
// complete path. The root reports it with everyone counted, in order, nothing
// late; nothing is relayed and exactly one summary per non-root member is
// staged per window — in-network aggregation by definition (PR 14: 153 and 90
// a window) — and the result is well under half as old as when only the root
// left its timer: 247.05 ms, half a window plus the network (PR 17: 317.09 ms,
// the same plus 20 ms of staging hold at each hop). Same answers, sooner: every
// window's (WindowIndex, Count, Value) is PR 17's.
func TestCompleteWindowsReportAtOnce(t *testing.T) {
	const (
		warm = 5 * time.Second
		// pr14MedianAge is what this scenario's warm windows read at PR 14.
		pr14MedianAge = 669100 * time.Microsecond
		// pr17Digest is resultDigest over windows 0 to 114 at PR 17.
		pr17Digest = 0xec8e35923034a939
	)
	fab, rt, results := reportFed(t, 1, 64, 4, 2, false)
	rt.RunFor(warm)
	n0 := len(*results)
	late0 := fab.Stats.LateAtRoot.Load()
	rep0, fast0 := fab.Stats.ResultsReported.Load(), fab.Stats.ReportedComplete.Load()
	staged0, relayed0 := fab.Stats.SummariesStaged.Load(), fab.Stats.Relayed.Load()
	rt.RunFor(25 * time.Second)
	warmed := (*results)[n0:]
	if len(warmed) < 95 {
		t.Fatalf("%d windows in 25 s of 250 ms slides", len(warmed))
	}
	requireExact(t, warmed, 64)
	if late := fab.Stats.LateAtRoot.Load() - late0; late != 0 {
		t.Fatalf("%d summaries late at the root", late)
	}
	rep, fast := fab.Stats.ResultsReported.Load()-rep0, fab.Stats.ReportedComplete.Load()-fast0
	if rep != uint64(len(warmed)) || fast != rep {
		t.Fatalf("%d results, %d reported, %d of them on the complete path", len(warmed), rep, fast)
	}
	staged, relayed := fab.Stats.SummariesStaged.Load()-staged0, fab.Stats.Relayed.Load()-relayed0
	if relayed != 0 || staged != 63*rep {
		t.Fatalf("%d summaries staged and %d relayed over %d windows, want 63 a window and none", staged, relayed, rep)
	}
	if d := resultDigest(*results, 0, 114); d != pr17Digest {
		t.Fatalf("windows 0-114 moved: digest %#x, PR 17 gave %#x", d, uint64(pr17Digest))
	}
	got := medianAge(warmed)
	t.Logf("median Result.Age %v (PR 14 %v)", got, pr14MedianAge)
	if float64(got) > 0.40*float64(pr14MedianAge) {
		t.Fatalf("median Result.Age %v, want at most 0.40 of PR 14's %v", got, pr14MedianAge)
	}
}

// (b) One leaf down from before the install: no window ever counts all 64 and
// the root never reports on the complete path, yet every operator without a
// dead descendant still forwards on completeness — 63 summaries staged a
// window and one relayed, the partial the dead leaf's parent timed out with
// (PR 14: 151 and 89). And no hold stacks: an interior operator learns
// netDist only from the windows it completed, so the dead leaf's ancestors
// keep the hold their live subtrees taught them. Were they to learn from
// in-time arrivals, the partial (as old as its sender's hold) would teach
// each level a longer hold than the one below: interior netDist up to 1158 ms,
// the root's 1884 ms, results 1957 ms old.
func TestTimerPathUnchangedWhenAMemberIsMissing(t *testing.T) {
	const (
		warm = 5 * time.Second
		// Recorded at PR 14 for seed 1: the FNV-1a digest of every result's
		// WindowIndex, Count and Value for windows 2 to 114 (the first two
		// windows count more members now, and 30 s fit one more), and the
		// warm windows' median age.
		pr14Digest    = 0x977176b4766416e5
		pr14MedianAge = 1237100 * time.Microsecond
		// At PR 17 the relayed partial reached the root 40 ms older — two
		// hops' staging hold — and the root's netDist, which adopts the
		// oldest straggler and is multiplied by TimeoutFactor, read 580.8 ms
		// where it now reads 540.8.
		pr17MedianAge = 1065330 * time.Microsecond
	)
	fab, rt, results := reportFed(t, 1, 64, 4, 2, true)
	rt.RunFor(warm)
	n0 := len(*results)
	staged0, relayed0 := fab.Stats.SummariesStaged.Load(), fab.Stats.Relayed.Load()
	rt.RunFor(25 * time.Second)
	if fast := fab.Stats.ReportedComplete.Load(); fast != 0 {
		t.Fatalf("%d results took the complete path with a member down", fast)
	}
	for _, r := range *results {
		if r.Count >= 64 {
			t.Fatalf("window %d counted %d with a member down", r.WindowIndex, r.Count)
		}
	}
	if d := resultDigest(*results, 2, 114); d != pr14Digest {
		t.Fatalf("windows 2-114 moved: digest %#x, PR 14 gave %#x", d, uint64(pr14Digest))
	}
	warmed := (*results)[n0:]
	requireExact(t, warmed, 63)
	w := uint64(len(warmed))
	staged, relayed := fab.Stats.SummariesStaged.Load()-staged0, fab.Stats.Relayed.Load()-relayed0
	if staged != 63*w || relayed != w {
		t.Fatalf("%d summaries staged and %d relayed over %d windows, want 63 and 1 a window", staged, relayed, w)
	}
	for i := 1; i < fab.NumPeers(); i++ {
		if inst := repInst(fab, i); inst != nil && inst.netDist > 300*time.Millisecond {
			t.Fatalf("peer %d holds for a netDist of %v: holds are stacking", i, inst.netDist)
		}
	}
	got := medianAge(warmed)
	t.Logf("median Result.Age %v (PR 14 %v, PR 17 %v), root netDist %v", got, pr14MedianAge, pr17MedianAge, repInst(fab, 0).netDist)
	if got >= pr17MedianAge {
		t.Fatalf("median Result.Age %v, want under PR 17's %v: a straggler's age carries a hold again", got, pr17MedianAge)
	}
}

// interiorOf returns a non-root peer with at least kids0 children on tree 0
// and kids1 on tree 1, and its operator.
func interiorOf(t *testing.T, fab *Fabric, kids0, kids1 int) (int, *instance) {
	t.Helper()
	for i := 1; i < fab.NumPeers(); i++ {
		if inst := repInst(fab, i); len(inst.nb.Children[0]) >= kids0 && len(inst.nb.Children[1]) >= kids1 {
			return i, inst
		}
	}
	t.Fatalf("no interior operator with %d and %d children on the two trees", kids0, kids1)
	return -1, nil
}

// (c) An interior operator dies after warm-up. Its children on that tree
// re-stripe their windows to their parent on the sibling tree, whose entry
// for the window expects a different subtree: the foreign summary inflates
// its count, so it may forward before its own subtree is in and relay the
// rest. Nothing is lost to that: once liveness has noticed, every window the
// root reports is exact over the 63 live members.
func TestRestripedSummaryLosesNothing(t *testing.T) {
	fab, rt, results := reportFed(t, 1, 64, 4, 2, false)
	rt.RunFor(5 * time.Second)
	victim, inst := interiorOf(t, fab, 1, 0)
	child := inst.nb.Children[0][0]
	if foster := repInst(fab, child).nb.Parents[1]; foster < 0 || foster == victim {
		// The child's sibling-tree parent must be someone else for the
		// scenario to be a re-stripe at all; the seed gives one.
		t.Fatalf("peer %d's child %d has sibling-tree parent %d", victim, child, foster)
	}
	fab.SetDown(victim, true)
	rt.RunFor(10 * time.Second) // liveness times out, the root's hold settles
	n0 := len(*results)
	late0, relayed0 := fab.Stats.LateAtRoot.Load(), fab.Stats.Relayed.Load()
	rt.RunFor(15 * time.Second)
	settled := (*results)[n0:]
	if len(settled) < 55 {
		t.Fatalf("%d windows in 15 s of 250 ms slides", len(settled))
	}
	requireExact(t, settled, 63)
	if late := fab.Stats.LateAtRoot.Load() - late0; late != 0 {
		t.Fatalf("%d summaries late at the root", late)
	}
	if fab.Stats.Relayed.Load() == relayed0 {
		t.Fatal("nothing relayed: the dead operator's ancestors cannot have completed their windows")
	}
}

// (d) An operator whose frame runs one slide ahead of everyone else's — what
// a mis-aged install or a drifting oscillator does — numbers every window
// one off, so it expects each on the other tree than the one its children
// sent it on. Its windows fall back to the timer and relay paths; nothing is
// lost and nothing is reported twice.
func TestFrameOneSlideOffFallsBackToTimer(t *testing.T) {
	fab, rt, results := reportFed(t, 1, 64, 4, 2, false)
	rt.RunFor(5 * time.Second)
	_, inst := interiorOf(t, fab, 2, 2)
	inst.refBase += reportSlide
	rt.RunFor(5 * time.Second) // the root's hold stretches to the relayed stragglers
	n0 := len(*results)
	late0, relayed0 := fab.Stats.LateAtRoot.Load(), fab.Stats.Relayed.Load()
	rt.RunFor(20 * time.Second)
	settled := (*results)[n0:]
	if len(settled) < 75 {
		t.Fatalf("%d windows in 20 s of 250 ms slides", len(settled))
	}
	requireExact(t, settled, 64)
	for i, r := range *results {
		if i > 0 && r.WindowIndex <= (*results)[i-1].WindowIndex {
			t.Fatalf("window %d reported after %d", r.WindowIndex, (*results)[i-1].WindowIndex)
		}
	}
	if late := fab.Stats.LateAtRoot.Load() - late0; late != 0 {
		t.Fatalf("%d summaries late at the root", late)
	}
	if fab.Stats.Relayed.Load() == relayed0 {
		t.Fatal("nothing relayed: the shifted operator cannot have been out of step")
	}
}

// An operator holds an evict timer only while it holds an entry. A leaf's
// summary leaves on the complete path at slide close, so in steady state its
// timer is never armed. An operator wired without subtree counts — what a v4
// install decodes to — has only its timer: the next insert arms it, the
// window waits it out, and its summaries, relayed as stragglers, still reach
// the root. Given its counts back, the operator's held windows leave with the
// next insert and the timer is cancelled, not left to fire into an empty list.
func TestEvictTimerArmedOnlyWhileHolding(t *testing.T) {
	fab, rt, results := reportFed(t, 1, 64, 4, 2, false)
	rt.RunFor(5*time.Second + 10*time.Millisecond) // just past a slide boundary
	leaf := repInst(fab, leafOf(t, repInst(fab, 0).def))
	if leaf.ts.Len() != 0 || leaf.evictTimer != nil {
		t.Fatalf("leaf holds %d entries and an evict timer (%v); want neither", leaf.ts.Len(), leaf.evictTimer != nil)
	}

	counts := leaf.nb.Subtree
	leaf.nb.Subtree = nil
	rt.RunFor(reportSlide)
	if leaf.ts.Len() != 1 || leaf.evictTimer.Stopped() {
		t.Fatalf("leaf without subtree counts holds %d entries, evict timer stopped=%v; want its window on an armed timer",
			leaf.ts.Len(), leaf.evictTimer.Stopped())
	}
	cfg := fab.Cfg
	if wait := leaf.evictTimer.When() - rt.Now(); wait < cfg.MinTimeout || wait > cfg.MinTimeout+cfg.TimeoutSlack {
		t.Fatalf("evict timer due in %v, want a timeout of up to %v", wait, cfg.MinTimeout+cfg.TimeoutSlack)
	}
	rt.RunFor(5 * time.Second)
	n0 := len(*results)
	rt.RunFor(5 * time.Second)
	requireExact(t, (*results)[n0:], 64)

	// Mid-slide the leaf holds one window, due well after the next boundary.
	rt.RunFor(150 * time.Millisecond)
	if due := leaf.evictTimer.When() - rt.Now(); leaf.ts.Len() != 1 || due < 150*time.Millisecond {
		t.Fatalf("leaf holds %d entries due in %v; want one, due after the next slide closes", leaf.ts.Len(), due)
	}
	leaf.nb.Subtree = counts
	rt.RunFor(100 * time.Millisecond) // past the boundary, short of the armed deadline
	if leaf.ts.Len() != 0 || !leaf.evictTimer.Stopped() {
		t.Fatalf("leaf holds %d entries, evict timer stopped=%v; want none and the timer cancelled",
			leaf.ts.Len(), leaf.evictTimer.Stopped())
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
