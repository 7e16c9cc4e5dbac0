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
// dead descendant still forwards on completeness, and every window's answer is
// the one recorded at commit 5108743. Counted over a span from just past one
// slide boundary to just past another, every live non-root member stages
// exactly one summary of its own a slide — 62 — and everything else staged is
// a relay: the dead leaf's ancestors' partials, which reach an ancestor after
// its own timeout, going on toward the root. And no hold stacks: an interior operator learns netDist only from the
// windows it completed, so the dead leaf's ancestors keep the lag their live
// subtrees taught them. Were they to learn from in-time arrivals, the partial
// (as late as its sender's hold) would teach each level a longer hold than the
// one below: at commit b256145 that read interior netDist up to 1158 ms, the
// root's 1884 ms, results 1957 ms old.
func TestTimerPathUnchangedWhenAMemberIsMissing(t *testing.T) {
	const (
		warm = 5 * time.Second
		span = 25 * time.Second
		// Recorded at PR 14 for seed 1: the FNV-1a digest of every result's
		// WindowIndex, Count and Value for windows 2 to 114 (the first two
		// windows count more members now, and 30 s fit one more).
		pr14Digest = 0x977176b4766416e5
	)
	fab, rt, results := reportFed(t, 1, 64, 4, 2, true)
	rt.RunFor(warm + 10*time.Millisecond) // just past a slide boundary
	n0 := len(*results)
	staged0, relayed0 := fab.Stats.SummariesStaged.Load(), fab.Stats.Relayed.Load()
	rt.RunFor(span)
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
	requireExact(t, (*results)[n0:], 63)
	slides := uint64(span / reportSlide)
	staged, relayed := fab.Stats.SummariesStaged.Load()-staged0, fab.Stats.Relayed.Load()-relayed0
	if relayed == 0 || staged-relayed != 62*slides {
		t.Fatalf("%d summaries staged, %d of them relays, over %d slides; want 62 of the members' own a slide, and the partials relayed", staged, relayed, slides)
	}
	for i := 1; i < fab.NumPeers(); i++ {
		if inst := repInst(fab, i); inst != nil && inst.netDist > 300*time.Millisecond {
			t.Fatalf("peer %d holds for a netDist of %v: holds are stacking", i, inst.netDist)
		}
	}
}

// A dead leaf no longer costs a second. Its ancestors cannot complete a
// window on its tree, so those windows go up on the timer path; but a window
// now waits for the lag its operator's complete windows taught it, from the
// window's end, and never less than MinTimeout — not 1.5 × (netDist − age) +
// 250 ms on top of a root netDist that jumped to the slowest arrival, which
// at commit 8fb806c made this scenario's warm results 1005 ms old (now 302).
// Nothing is given up for it: every warm window counts the 63 live members
// exactly, and nothing reaches the root after its window was reported.
func TestDeadLeafCostsNoSecond(t *testing.T) {
	const oldMedianAge = 1005330416 * time.Nanosecond // commit 8fb806c
	fab, rt, results := reportFed(t, 1, 64, 4, 2, true)
	rt.RunFor(5 * time.Second)
	n0 := len(*results)
	late0 := fab.Stats.LateAtRoot.Load()
	rt.RunFor(25 * time.Second)
	warmed := (*results)[n0:]
	requireExact(t, warmed, 63)
	if late := fab.Stats.LateAtRoot.Load() - late0; late != 0 {
		t.Fatalf("%d summaries late at the root", late)
	}
	got := medianAge(warmed)
	t.Logf("median Result.Age %v (commit 8fb806c: %v)", got, oldMedianAge)
	if float64(got) >= 0.6*float64(oldMedianAge) {
		t.Fatalf("median Result.Age %v, want under 0.6 of the previous rule's %v", got, oldMedianAge)
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
// install decodes to — has only its timer: the next insert arms it and the
// window waits it out, MinTimeout from its opening (the leaf's windows,
// complete the instant they opened, taught it a lag of zero); the timer fires,
// and with the list empty nothing re-arms it. Its summaries, relayed as
// stragglers, still reach the root. Given its counts back while it holds a
// window — behind a MinTimeout raised past a slide, so the window is still
// held when the next slide closes — the held window leaves with that insert
// and the timer is cancelled, not left to fire into an empty list.
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
	opened := rt.Now() - 10*time.Millisecond
	if due := leaf.evictTimer.When() - opened; due < fab.Cfg.MinTimeout || due > fab.Cfg.MinTimeout+time.Millisecond {
		t.Fatalf("evict timer due %v after the window opened, want MinTimeout (%v)", due, fab.Cfg.MinTimeout)
	}
	rt.RunFor(fab.Cfg.MinTimeout)
	if leaf.ts.Len() != 0 || !leaf.evictTimer.Stopped() {
		t.Fatalf("leaf holds %d entries, evict timer stopped=%v once its window timed out; want none and no timer",
			leaf.ts.Len(), leaf.evictTimer.Stopped())
	}
	rt.RunFor(5 * time.Second)
	n0 := len(*results)
	rt.RunFor(5 * time.Second)
	requireExact(t, (*results)[n0:], 64)

	// A slide later the leaf holds one window, due after the next one closes.
	fab.Cfg.MinTimeout = 2 * reportSlide
	rt.RunFor(reportSlide)
	if due := leaf.evictTimer.When() - rt.Now(); leaf.ts.Len() != 1 || due < 150*time.Millisecond {
		t.Fatalf("leaf holds %d entries due in %v; want one, due after the next slide closes", leaf.ts.Len(), due)
	}
	leaf.nb.Subtree = counts
	rt.RunFor(reportSlide) // past the boundary, short of the armed deadline
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

// (c) In order: the root holds a window for longer than a slide once a
// straggler has taught it to — here a copy of one frame delivered 2 s late,
// whose original made its window on time. One member's window n is then held
// back past that hold, so n+1 is complete while n is still open. n+1 waits; n
// goes out on its timer one member short; n+1 follows in the same instant,
// and only the straggler and the late copy are late.
func TestCompleteWindowWaitsForOlderOpenWindow(t *testing.T) {
	fab, rt, results := starFed(t)
	late0, fast0 := fab.Stats.LateAtRoot.Load(), fab.Stats.ReportedComplete.Load()
	holdFrame(fab, rt, 3, rt.Now()+time.Second, 2*time.Second, true)
	rt.RunFor(3500 * time.Millisecond) // the late copy has arrived and been folded in
	holdFrame(fab, rt, 3, rt.Now(), 2*time.Second, false)
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
	if late := fab.Stats.LateAtRoot.Load() - late0; late != 2 {
		t.Fatalf("%d summaries late at the root, want the late copy and the straggler", late)
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

// The deadline ignores where in the slide a window's data fell. In two
// identical sensorless federations the root is taught the same lag; then the
// same window is opened at each root, just after its end, by a summary whose
// raws sat at the start of the slide in one and at its end in the other. Both
// windows are equally far from in, and the two deadlines agree. The previous
// rule timed a window out from netDist − age, and age carries the data's
// phase: there the two differed by up to 1.5 × a slide.
func TestDeadlineIgnoresDataPhase(t *testing.T) {
	const slide = time.Second
	deadline := func(atStart bool) time.Duration {
		fab, rt := testbed(t, 30, 11, DefaultConfig(), nil)
		installQuery(t, fab, rt, sumMeta("sum0", 0), 4, 1)
		rt.RunFor(10 * time.Second) // wired; without sensors the only data is ours
		root := fab.Peer(0)
		inst := root.insts[instKey{name: "sum0"}]
		deliver := func(age time.Duration) {
			root.deliver(inst.nb.Children[0][0], &envelope{
				S:      tuple.Summary{Query: "sum0", Value: 1.0, Count: 1, Age: age},
				SentAt: rt.Now(),
			}, 0)
		}
		// toPhase runs to phase past the next slide boundary of the root's
		// frame and returns that boundary.
		toPhase := func(phase time.Duration) time.Duration {
			now := inst.frameNow()
			b := (now/slide + 1) * slide
			rt.RunFor(b + phase - now)
			return b
		}
		toPhase(200 * time.Millisecond)
		deliver(200*time.Millisecond + slide/2) // 200 ms past its window's end
		te := toPhase(5 * time.Millisecond)     // folded at the boundary
		now := inst.frameNow()
		if atStart {
			deliver(now - (te - slide + time.Millisecond))
		} else {
			deliver(now - (te - time.Millisecond))
		}
		for _, e := range inst.ts.Entries() {
			if e.Index.TE == te {
				return e.Deadline - te
			}
		}
		t.Fatalf("no entry for the window ending at %v", te)
		return 0
	}
	start, end := deadline(true), deadline(false)
	t.Logf("deadline past the window's end: %v with the raws at its start, %v at its end", start, end)
	if d := start - end; d < -time.Millisecond || d > time.Millisecond {
		t.Fatalf("deadlines %v and %v past the window's end differ by the data's phase", start, end)
	}
}

// One straggler teaches one EWMA step. A member's window held back 2 s reaches
// the root as a straggler, and the root samples it like any arrival; the next
// window the root opens waits longer, but by at most 5·NetDistAlpha of the
// straggler's excess over netDist — one step of the mean and four of the
// deviation — not by all of it. The previous rule jumped the root's netDist to
// the slowest arrival and added 1.5 × of it to the next deadline.
func TestStragglerTeachesOneEWMAStep(t *testing.T) {
	fab, rt, _ := starFed(t)
	root := repInst(fab, 0)
	// newest runs to 1 ms past the next slide boundary of the root's frame
	// and returns how long past its end the window opened there waits.
	newest := func() time.Duration {
		now := root.frameNow()
		b := (now/reportSlide + 1) * reportSlide
		rt.RunFor(b + time.Millisecond - now)
		es := root.ts.Entries()
		if len(es) == 0 || es[len(es)-1].Index.TE != b {
			t.Fatalf("root holds no entry for the window ending at %v", b)
		}
		return es[len(es)-1].Deadline - b
	}
	before := newest()
	holdFrame(fab, rt, 3, rt.Now(), 2*time.Second, false)
	for i := 0; root.sampleMax < 2*time.Second; i++ {
		if i == 300 {
			t.Fatal("no straggler reached the root")
		}
		rt.RunFor(10 * time.Millisecond)
	}
	excess := root.sampleMax - root.netDist
	after := newest()
	bound := time.Duration(5 * fab.Cfg.NetDistAlpha * float64(excess))
	t.Logf("next deadline %v -> %v past the window's end; straggler excess %v, bound %v", before, after, excess, bound)
	if after <= before || after-before > bound {
		t.Fatalf("one straggler %v over netDist moved the next deadline from %v to %v, want a move of at most %v", excess, before, after, bound)
	}
}

// A peer's first, partial slide is counted once. A leaf whose operator starts
// mid-slide with a frame a few ms behind its parent's — an install whose age
// was under-estimated — has one raw in that slide, 1 ms before its end.
// Anchored at that raw, the first summary's age would place it a few ms past
// the window's end in the parent's frame: in the next window, beside the
// leaf's own summary for it. Anchored mid-slide, as a stalled source's is, it
// lands in its own window, and every window counts the leaf exactly once.
func TestFirstPartialSlideCountedOnce(t *testing.T) {
	const peers, mark = 8, 1000.0 // the leaf's raws carry mark, everyone else's 1
	fab, rt := testbed(t, peers, 1, DefaultConfig(), nil)
	var results []Result
	fab.OnResult = func(r Result) { results = append(results, r) }
	meta := QueryMeta{
		Name:      "rep",
		Seq:       1,
		OpName:    "sum",
		Window:    tuple.WindowSpec{Kind: tuple.TimeWindow, Range: reportSlide, Slide: reportSlide},
		Root:      0,
		IssuedSim: rt.Now(),
	}
	def, err := fab.Compile(meta, nil, uniformCoords(peers, 7), peers, 1) // a star
	if err != nil {
		t.Fatal(err)
	}
	if err := fab.Install(0, def); err != nil {
		t.Fatal(err)
	}
	id := leafOf(t, def)
	for i := 0; i < peers; i++ {
		if i == id {
			continue
		}
		i := i
		phase := time.Duration(137*(i+1)%50)*time.Millisecond + 500*time.Microsecond
		rt.After(phase, func() {
			rt.Every(50*time.Millisecond, func() { fab.Inject(i, tuple.Raw{Vals: []float64{1}}) })
		})
	}
	rt.RunFor(100 * time.Millisecond)
	leaf := repInst(fab, id)
	if leaf == nil || !leaf.wired {
		t.Fatalf("leaf %d not installed and wired after 100 ms", id)
	}
	leaf.slideTimer.Cancel()
	leaf.refBase -= 3 * time.Millisecond
	leaf.start()
	inject := func() { fab.Inject(id, tuple.Raw{Vals: []float64{mark}}) }
	rt.After(time.Duration(leaf.curSlide+1)*reportSlide-time.Millisecond-leaf.frameNow(), func() {
		inject()
		rt.After(reportSlide/2+time.Millisecond, func() { // mid-slide from now on
			inject()
			rt.Every(reportSlide, inject)
		})
	})
	rt.RunFor(5 * time.Second)
	if len(results) < 15 {
		t.Fatalf("%d windows in 5 s of 250 ms slides", len(results))
	}
	for _, r := range results {
		v := r.Value.(float64)
		if r.Count != peers || v < mark || v >= 2*mark {
			t.Fatalf("window %d: count %d value %v, want all %d members and the leaf's %v once", r.WindowIndex, r.Count, v, peers, mark)
		}
	}
	if late := fab.Stats.LateAtRoot.Load(); late != 0 {
		t.Fatalf("%d summaries late at the root", late)
	}
}
