package mortar

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"repro/internal/tuple"
)

// coalesceRun executes the §7.2 microbenchmark with three co-hosted sum
// queries (the multi-tenant shape where hold-and-merge pays: every peer
// emits several summaries per window) and returns the fabric for counter
// inspection plus the per-query sums observed once warm.
func coalesceRun(t *testing.T, cfg Config) (*Fabric, map[string]float64, map[string]int) {
	t.Helper()
	fab, rt := testbed(t, 60, 11, cfg, nil)
	sums := map[string]float64{}
	counts := map[string]int{}
	fab.OnResult = func(r Result) {
		// Keep the last warm result per query.
		if r.At > 20*time.Second {
			sums[r.Query] = r.Value.(float64)
			counts[r.Query] = r.Count
		}
	}
	for qi := 0; qi < 3; qi++ {
		meta := QueryMeta{
			Name:      fmt.Sprintf("sum%d", qi),
			Seq:       1,
			OpName:    "sum",
			Window:    tuple.WindowSpec{Kind: tuple.TimeWindow, Range: time.Second, Slide: time.Second},
			Root:      0,
			IssuedSim: rt.Now(),
		}
		// A pinned planning rng gives every query the same trees — the
		// multi-tenant shape where co-hosted queries share next-hops and
		// their summaries ride one frame.
		def, err := fab.CompileWith(meta, nil, uniformCoords(fab.NumPeers(), 7), 4, 2,
			rand.New(rand.NewSource(42)))
		if err != nil {
			t.Fatal(err)
		}
		if err := fab.Install(0, def); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < fab.NumPeers(); i++ {
		startSensor(fab, rt, i)
	}
	rt.RunFor(30 * time.Second)
	return fab, sums, counts
}

// Staging at the unit level: with hold-and-merge on, a multi-query
// federation moves at least 2.5x fewer data-class frames than the
// flush-at-once reference while reporting the identical warm results.
// Summaries must actually merge in staging buffers and leave in
// multi-summary batches, not merely be delayed. The factor was 5.3x (2546
// frames against 13440) while operators held every window to their timeout:
// most of what staging merged then were stragglers relayed unmerged, which
// subtree-complete forwarding no longer produces — the time-space list merges
// them — so the reference run itself must now send far fewer frames than
// that era's, and what staging still saves is the three co-planned tenants
// sharing a frame.
func TestCoalescingSavesFrames(t *testing.T) {
	// The flush-at-once run's data frames before operators forwarded on
	// completeness (commit 5108743).
	const timerEraOffFrames = 13440
	off := DefaultConfig()
	off.SummaryHold = -1 // reference: every summary flushes the moment it parks
	fabOff, sumsOff, countsOff := coalesceRun(t, off)

	// A batch-oriented hold: wide enough that an interior peer's window
	// boundary work — its own eviction plus every child's summaries for
	// the three queries — lands in one staging cycle. The default hold is
	// deliberately smaller (latency first); the knob trades the two.
	onCfg := DefaultConfig()
	onCfg.SummaryHold = 200 * time.Millisecond
	fabOn, sumsOn, countsOn := coalesceRun(t, onCfg)

	for qi := 0; qi < 3; qi++ {
		q := fmt.Sprintf("sum%d", qi)
		if countsOn[q] != 60 || countsOff[q] != 60 {
			t.Fatalf("%s warm completeness: staged %d, unstaged %d, want 60", q, countsOn[q], countsOff[q])
		}
		if sumsOn[q] != sumsOff[q] {
			t.Fatalf("%s warm sum diverged: staged %v, unstaged %v", q, sumsOn[q], sumsOff[q])
		}
	}

	if c, b := fabOff.Stats.SummariesCoalesced.Load(), fabOff.Stats.BatchFrames.Load(); c != 0 || b != 0 {
		t.Fatalf("reference run coalesced %d summaries and sent %d batches, want 0 and 0", c, b)
	}
	if fabOn.Stats.SummariesStaged.Load() == 0 {
		t.Fatal("coalescing run staged nothing")
	}
	if fabOn.Stats.SummariesCoalesced.Load() == 0 {
		t.Fatal("no summary merged in a staging buffer")
	}
	if fabOn.Stats.BatchFrames.Load() == 0 {
		t.Fatal("no multi-summary batch left a staging buffer")
	}
	on, offFrames := fabOn.Stats.DataFrames.Load(), fabOff.Stats.DataFrames.Load()
	t.Logf("staged=%d coalesced=%d batchframes=%d batched=%d on=%d off=%d",
		fabOn.Stats.SummariesStaged.Load(), fabOn.Stats.SummariesCoalesced.Load(),
		fabOn.Stats.BatchFrames.Load(), fabOn.Stats.BatchedSummaries.Load(), on, offFrames)
	if on == 0 || offFrames == 0 {
		t.Fatalf("missing data frames: staged %d, unstaged %d", on, offFrames)
	}
	if 5*on > 2*offFrames {
		t.Fatalf("coalescing saved too little: %d frames vs %d unstaged (want >= 2.5x fewer)", on, offFrames)
	}
	if 2*offFrames > timerEraOffFrames {
		t.Fatalf("flush-at-once run sent %d frames, want under half the %d it sent when every straggler was relayed",
			offFrames, timerEraOffFrames)
	}
	// The accounting behind the frames-saved counter: every summary that
	// entered a buffer merged away, left in a frame, or is still parked at
	// snapshot time — so the flushed population can never exceed what was
	// staged, and batches can never outnumber data frames.
	staged := fabOn.Stats.SummariesStaged.Load()
	coalesced := fabOn.Stats.SummariesCoalesced.Load()
	batched := fabOn.Stats.BatchedSummaries.Load()
	batchFrames := fabOn.Stats.BatchFrames.Load()
	if coalesced+batched > staged {
		t.Fatalf("flushed more than was staged: staged=%d coalesced=%d batched=%d",
			staged, coalesced, batched)
	}
	if batchFrames > on {
		t.Fatalf("batch frames %d exceed data frames %d", batchFrames, on)
	}
}

// The hold knob: a negative hold sends every summary through the staging
// path alone in its own frame and reports what the held run reports, a
// zero hold picks the default, and out-of-range settings are rejected up
// front.
func TestCoalescingKnobs(t *testing.T) {
	run := func(t *testing.T, cfg Config) (*Fabric, map[int64]float64) {
		t.Helper()
		fab, rt := testbed(t, 40, 5, cfg, nil)
		var last Result
		sums := map[int64]float64{}
		fab.OnResult = func(r Result) {
			last = r
			sums[r.WindowIndex] = r.Value.(float64)
		}
		sumQuery(t, fab, rt, 4, 2)
		rt.RunFor(25 * time.Second)
		if last.Count != 40 {
			t.Fatalf("warm completeness %d, want 40", last.Count)
		}
		return fab, sums
	}

	t.Run("negative-hold-flushes-at-once", func(t *testing.T) {
		cfg := DefaultConfig()
		cfg.SummaryHold = -time.Millisecond
		fab, sums := run(t, cfg)
		staged, frames := fab.Stats.SummariesStaged.Load(), fab.Stats.DataFrames.Load()
		if staged == 0 || frames != staged {
			t.Fatalf("%d data frames for %d staged summaries, want one each", frames, staged)
		}
		if b, c := fab.Stats.BatchFrames.Load(), fab.Stats.SummariesCoalesced.Load(); b != 0 || c != 0 {
			t.Fatalf("flush-at-once fabric sent %d batches and coalesced %d summaries", b, c)
		}
		// The two runs stop mid-report, so their last window may differ;
		// every window both reported must carry the same sum.
		_, held := run(t, DefaultConfig())
		shared := 0
		for w, v := range sums {
			if hv, ok := held[w]; ok {
				shared++
				if hv != v {
					t.Fatalf("window %d: flush-at-once sum %v, held sum %v", w, v, hv)
				}
			}
		}
		if shared < 15 {
			t.Fatalf("only %d windows reported by both runs", shared)
		}
	})

	t.Run("rejects-nonsense", func(t *testing.T) {
		c := DefaultConfig()
		c.SummaryBatchBytes = -1
		if _, err := c.Validate(); err == nil {
			t.Fatalf("invalid config accepted: %+v", c)
		}
	})

	t.Run("zero-hold-defaults", func(t *testing.T) {
		c := DefaultConfig()
		c.SummaryHold = 0
		v, err := c.Validate()
		if err != nil {
			t.Fatal(err)
		}
		if want := c.HeartbeatPeriod / 100; v.SummaryHold != want {
			t.Fatalf("zero hold normalized to %v, want %v", v.SummaryHold, want)
		}
	})
}

// The epoch-retirement barrier: migrating a query to a new plan epoch
// with coalescing on must not strand the old epoch's last windows in a
// staging buffer. Warm completeness must hold straight through the
// migration. (The make-before-break mechanics themselves are covered by
// the epoch tests; this pins the interaction with staged summaries.)
func TestMigrationFlushesStagedSummaries(t *testing.T) {
	fab, rt := testbed(t, 40, 13, DefaultConfig(), nil)
	winMax := map[int64]int{}
	fab.OnResult = func(r Result) {
		if r.Count > winMax[r.WindowIndex] {
			winMax[r.WindowIndex] = r.Count
		}
	}
	def := sumQuery(t, fab, rt, 4, 2)
	rt.RunFor(15 * time.Second)

	// Replan the same query into epoch 1 (same issue time, so window
	// indexes align across epochs) and let the migration complete.
	meta := def.Meta
	meta.Seq++
	meta.Epoch++
	next, err := fab.Compile(meta, nil, uniformCoords(fab.NumPeers(), 8), 4, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := fab.Install(0, next); err != nil {
		t.Fatal(err)
	}
	rt.RunFor(40 * time.Second)

	if fab.Stats.SummariesStaged.Load() == 0 {
		t.Fatal("migration test ran without staging anything")
	}
	if got := fab.Stats.EpochsRetired.Load(); got != 1 {
		t.Fatalf("EpochsRetired = %d, want 1", got)
	}
	// Completeness never dips: once warm, every window up to the tail
	// reaches full completeness in at least one epoch's report.
	var first, last int64 = -1, -1
	for w, c := range winMax {
		if c == 40 && (first < 0 || w < first) {
			first = w
		}
		if w > last {
			last = w
		}
	}
	if first < 0 {
		t.Fatal("no fully complete window at all")
	}
	for w := first; w <= last-5; w++ {
		if winMax[w] != 40 {
			t.Fatalf("window %d best completeness %d across the migration, want 40", w, winMax[w])
		}
	}
}
