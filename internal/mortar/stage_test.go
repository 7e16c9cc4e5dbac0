package mortar

import (
	"fmt"
	"math/rand"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/runtime"
	"repro/internal/runtime/livert"
	"repro/internal/runtime/simrt"
	"repro/internal/tuple"
	"repro/internal/wire"
)

// Per-turn batching (stage.go): a summary parks only until the turn that
// routed it ends, and what one turn parked for one next hop shares a frame.
// These tests pin that rule on the deterministic backend, and its first half
// on the live one.

// parked counts what peer p holds in staging. Between turns it must be zero.
func parked(p *Peer) int {
	n := len(p.staged)
	for _, buf := range p.stage {
		n += len(buf.entries)
	}
	return n
}

// installQuery compiles and installs a tumbling-window query over all peers
// from a pinned planning seed: queries installed with the same seed, bf and d
// get the same trees — co-planned tenants, which share every next hop.
func installQuery(t *testing.T, fab *Fabric, rt *simrt.Runtime, meta QueryMeta, bf, d int) *QueryDef {
	t.Helper()
	meta.Seq = 1
	meta.IssuedSim = rt.Now()
	def, err := fab.CompileWith(meta, nil, uniformCoords(fab.NumPeers(), 7), bf, d, rand.New(rand.NewSource(42)))
	if err != nil {
		t.Fatal(err)
	}
	if err := fab.Install(meta.Root, def); err != nil {
		t.Fatal(err)
	}
	return def
}

func sumMeta(name string, root int) QueryMeta {
	return QueryMeta{
		Name:   name,
		OpName: "sum",
		Window: tuple.WindowSpec{Kind: tuple.TimeWindow, Range: time.Second, Slide: time.Second},
		Root:   root,
	}
}

// interiorPeer returns a non-root peer that parents somebody on tree 0 of
// the named query and has a parent there, with its operator.
func interiorPeer(t *testing.T, fab *Fabric, name string) (*Peer, *instance) {
	t.Helper()
	for i := 0; i < fab.NumPeers(); i++ {
		inst := fab.Peer(i).insts[instKey{name: name}]
		if inst != nil && inst.wired && inst.nb.Parents[0] >= 0 && len(inst.nb.Children[0]) > 0 {
			return fab.Peer(i), inst
		}
	}
	t.Fatalf("no interior operator of %q", name)
	return nil, nil
}

// tapSummaries re-registers peer to's delivery handler to record, before
// handing it on, every summary frame peer from sends it: one slice of
// envelopes per frame.
func tapSummaries(fab *Fabric, rt *simrt.Runtime, from, to int) *[][]envelope {
	frames := new([][]envelope)
	rt.Handle(to, func(src int, payload any, size int) {
		if src == from {
			inner := payload
			if fr, ok := payload.(*runtime.Frame); ok {
				inner = fr.Payload
			}
			switch m := inner.(type) {
			case *envelope:
				*frames = append(*frames, []envelope{*m})
			case *wire.EnvelopeBatch:
				*frames = append(*frames, append([]envelope(nil), m.Envelopes...))
			}
		}
		fab.Peer(to).deliver(src, payload, size)
	})
	return frames
}

// There is no hold to set: the only SummaryHold Validate accepts is 0, which
// is the default, and any other value is refused by name rather than silently
// ignored. The byte ceiling is the one staging knob left.
func TestCoalescingKnobs(t *testing.T) {
	t.Run("rejects-nonsense", func(t *testing.T) {
		c := DefaultConfig()
		c.SummaryBatchBytes = -1
		if _, err := c.Validate(); err == nil {
			t.Fatalf("invalid config accepted: %+v", c)
		}
		for _, hold := range []time.Duration{-1, 1} {
			c := DefaultConfig()
			c.SummaryHold = hold
			if _, err := c.Validate(); err == nil || !strings.Contains(err.Error(), "SummaryHold") {
				t.Fatalf("SummaryHold %v: err = %v, want a refusal naming the field", hold, err)
			}
		}
	})

	t.Run("zero-hold-defaults", func(t *testing.T) {
		if hold := DefaultConfig().SummaryHold; hold != 0 {
			t.Fatalf("DefaultConfig().SummaryHold = %v, want 0", hold)
		}
		v, err := Config{}.Validate()
		if err != nil || v.SummaryHold != 0 {
			t.Fatalf("zero config validated to SummaryHold %v, err %v; want 0 and none", v.SummaryHold, err)
		}
	})
}

// Migrating a query to a new plan epoch must not strand the old epoch's last
// windows in a staging buffer: warm completeness holds straight through the
// migration. (The make-before-break mechanics themselves are covered by the
// epoch tests; this pins the interaction with staged summaries.)
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

// (a) Nothing parks across turns. A federation running a time-window and a
// tuple-window query is driven one simulator event at a time through a
// lossless phase, a leaf and an interior peer going down, a source going
// quiet, and an epoch migration; after every event every peer's staging is
// empty. An entry point that routes a summary without ending in flushStages
// fails here at the first event that leaves through it.
func TestNothingParksAcrossTurns(t *testing.T) {
	const peers = 40
	fab, rt := testbed(t, peers, 13, DefaultConfig(), nil)
	def := installQuery(t, fab, rt, sumMeta("sum1", 0), 4, 2)
	tupleWinQuery(t, fab, rt, 4, 2)
	quiet := make([]bool, peers)
	for i := 0; i < peers; i++ {
		i := i
		phase := time.Duration(137*(i+1)%997)*time.Millisecond + 500*time.Microsecond
		rt.After(phase, func() {
			rt.Every(time.Second, func() {
				if !quiet[i] {
					fab.Inject(i, tuple.Raw{Vals: []float64{1}})
				}
			})
		})
	}
	sim := rt.Sim()
	stepTo := func(until time.Duration, phase string) {
		t.Helper()
		for rt.Now() < until && sim.Step() {
			for i := 0; i < peers; i++ {
				if n := parked(fab.Peer(i)); n != 0 {
					t.Fatalf("%s, t=%v: peer %d still holds %d staged entries after the event that parked them",
						phase, rt.Now(), i, n)
				}
			}
		}
	}

	stepTo(10*time.Second, "lossless")
	if fab.Stats.SummariesStaged.Load() == 0 || fab.Stats.ResultsReported.Load() == 0 {
		t.Fatal("nothing staged or reported in the lossless phase")
	}

	interior, _ := interiorPeer(t, fab, "sum1")
	leaf := leafOf(t, def)
	fab.SetDown(leaf, true)
	fab.SetDown(interior.id, true)
	relayed0 := fab.Stats.Relayed.Load()
	stepTo(25*time.Second, "leaf and interior down")
	if fab.Stats.Relayed.Load() == relayed0 {
		t.Fatal("nothing relayed with an interior operator down")
	}
	fab.SetDown(leaf, false)
	fab.SetDown(interior.id, false)

	// A source goes quiet: its tuple-window operator's stall tick extends
	// its last summary with boundary tuples.
	quiet[peers-1] = true
	stepTo(35*time.Second, "stalled source")

	meta := def.Meta
	meta.Seq++
	meta.Epoch++
	next, err := fab.Compile(meta, nil, uniformCoords(peers, 8), 4, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := fab.Install(0, next); err != nil {
		t.Fatal(err)
	}
	stepTo(75*time.Second, "epoch migration")
	if got := fab.Stats.EpochsRetired.Load(); got != 1 {
		t.Fatalf("EpochsRetired = %d, want 1", got)
	}
}

// (b) A turn's summaries share a frame. One envelope batch whose entries
// complete three co-planned tenants' windows at an interior operator leaves
// for the parent as exactly one three-entry batch, stamped with the arrival's
// own simulator time; and one evictExpired that expires two windows sends one
// two-entry batch. The federation has no sensors, so these are its only data
// frames.
func TestTurnSharesAFrame(t *testing.T) {
	const tenants = 3
	setup := func(t *testing.T) (*Fabric, *simrt.Runtime, *Peer, []*instance, *[][]envelope) {
		fab, rt := testbed(t, 30, 11, DefaultConfig(), nil)
		for qi := 0; qi < tenants; qi++ {
			installQuery(t, fab, rt, sumMeta(fmt.Sprintf("sum%d", qi), 0), 4, 1)
		}
		rt.RunFor(10 * time.Second) // wired, and every parent heard from
		p, _ := interiorPeer(t, fab, "sum0")
		insts := make([]*instance, tenants)
		for qi := range insts {
			insts[qi] = p.insts[instKey{name: fmt.Sprintf("sum%d", qi)}]
			if insts[qi].nb.Parents[0] != insts[0].nb.Parents[0] {
				t.Fatalf("tenants are not co-planned: parents %d and %d", insts[qi].nb.Parents[0], insts[0].nb.Parents[0])
			}
		}
		if n := fab.Stats.DataFrames.Load(); n != 0 {
			t.Fatalf("%d data frames in a federation without sensors", n)
		}
		return fab, rt, p, insts, tapSummaries(fab, rt, p.id, insts[0].nb.Parents[0])
	}
	requireOneBatch := func(t *testing.T, fab *Fabric, frames [][]envelope, n int, sentAt time.Duration) {
		t.Helper()
		s := &fab.Stats
		if st, df, bf, bs := s.SummariesStaged.Load(), s.DataFrames.Load(), s.BatchFrames.Load(), s.BatchedSummaries.Load(); st != uint64(n) || df != 1 || bf != 1 || bs != uint64(n) {
			t.Fatalf("staged=%d data_frames=%d batch_frames=%d batched=%d, want %d summaries in one batch frame", st, df, bf, bs, n)
		}
		if len(frames) != 1 || len(frames[0]) != n {
			t.Fatalf("parent received %d frames (%v), want one of %d entries", len(frames), frames, n)
		}
		for _, e := range frames[0] {
			if e.SentAt != sentAt {
				t.Fatalf("entry of %q stamped %v, want the turn's own time %v", e.S.Query, e.SentAt, sentAt)
			}
		}
	}

	t.Run("batch-completing-tenants", func(t *testing.T) {
		fab, rt, p, insts, frames := setup(t)
		child := insts[0].nb.Children[0][0]
		var arrived time.Duration
		rt.After(37*time.Millisecond, func() {
			arrived = rt.Now()
			b := &wire.EnvelopeBatch{SentAt: arrived}
			for _, inst := range insts {
				// A partial counting the operator's whole subtree completes
				// its window on arrival.
				b.Envelopes = append(b.Envelopes, envelope{
					S:      tuple.Summary{Query: inst.meta.Name, Value: 1.0, Count: inst.nb.Subtree[0], Age: 400 * time.Millisecond},
					SentAt: arrived,
				})
			}
			p.deliver(child, b, 0)
		})
		rt.RunFor(time.Second)
		requireOneBatch(t, fab, *frames, tenants, arrived)
		seen := map[string]bool{}
		for _, e := range (*frames)[0] {
			seen[e.S.Query] = true
		}
		if len(seen) != tenants {
			t.Fatalf("batch carries %v, want one summary per tenant", seen)
		}
	})

	t.Run("timer-expiring-two-windows", func(t *testing.T) {
		fab, rt, _, insts, frames := setup(t)
		inst := insts[0]
		// Two windows one member short, each more than a slide past its
		// end, opened in the same instant: both deadlines clamp to
		// MinTimeout from now, so they share it and one evictExpired pops
		// both.
		now := inst.frameNow()
		for w := int64(0); w < 2; w++ {
			n := int64(now/time.Second) - 2 - w
			inst.absorb(tuple.Summary{
				Query: inst.meta.Name,
				Index: tuple.Index{TB: time.Duration(n) * time.Second, TE: time.Duration(n+1) * time.Second},
				Value: 1.0,
				Count: 1,
			})
		}
		if inst.ts.Len() != 2 || inst.evictTimer.Stopped() {
			t.Fatalf("operator holds %d entries, evict timer stopped=%v; want two on an armed timer", inst.ts.Len(), inst.evictTimer.Stopped())
		}
		fires := inst.evictTimer.When()
		rt.RunFor(time.Second)
		requireOneBatch(t, fab, *frames, 2, fires)
	})
}

// (c) A byte-ceiling flush mid-turn followed by another park for the same hop
// sends both and strands neither: with the ceiling at two summaries, three
// parked in one turn leave as a two-entry batch and a single envelope.
func TestCeilingFlushMidTurnStrandsNothing(t *testing.T) {
	s := tuple.Summary{Query: "sum0", Value: 1.0, Count: 1, Levels: []int16{1}}
	cfg := DefaultConfig()
	cfg.SummaryBatchBytes = 2 * wire.SummaryWireSize(&s)
	fab, rt := testbed(t, 30, 11, cfg, nil)
	installQuery(t, fab, rt, sumMeta("sum0", 0), 4, 1)
	rt.RunFor(10 * time.Second)
	p, inst := interiorPeer(t, fab, "sum0")
	to := inst.nb.Parents[0]
	frames := tapSummaries(fab, rt, p.id, to)
	for i := 0; i < 3; i++ {
		s.Levels = []int16{1}
		p.stageSummary(inst, s, 0, to, 0)
	}
	if n := len(p.stage[to].entries); n != 1 {
		t.Fatalf("%d entries parked after three summaries against a ceiling of two, want the third alone", n)
	}
	p.flushStages()
	if n := parked(p); n != 0 {
		t.Fatalf("%d entries stranded after the turn's flush", n)
	}
	rt.RunFor(time.Second)
	// The smaller frame may overtake the larger on the simulated link.
	if len(*frames) != 2 || len((*frames)[0])+len((*frames)[1]) != 3 {
		t.Fatalf("parent received %v, want a two-entry batch and a single envelope", *frames)
	}
	if df, bf, bs := fab.Stats.DataFrames.Load(), fab.Stats.BatchFrames.Load(), fab.Stats.BatchedSummaries.Load(); df != 2 || bf != 1 || bs != 2 {
		t.Fatalf("data_frames=%d batch_frames=%d batched=%d, want 2, 1 and 2", df, bf, bs)
	}
}

// (d) A result subscriber that injects into the reporting peer (Chain)
// re-enters injectRawBatch — and its flushStages — inside the turn that
// reported, on the simulator. Nothing is lost or sent twice by that: with the
// upstream query's results chained into a downstream sum whose operator at the
// reporting peer is an interior one, the downstream total is exactly the
// sensors' raws plus the upstream results.
func TestChainReentryLosesAndDuplicatesNothing(t *testing.T) {
	const peers = 30
	fab, rt := testbed(t, peers, 5, DefaultConfig(), nil)
	up := sumMeta("up", 0)
	up.FilterKey = "s" // sensor raws only: the chained results carry no key
	installQuery(t, fab, rt, up, 4, 2)
	down := sumMeta("down", 1)
	installQuery(t, fab, rt, down, 4, 2)
	var upTotal, downTotal float64
	var injected int
	fab.OnResult = func(r Result) {
		v, _ := r.Value.(float64)
		if r.Query == "up" {
			upTotal += v
		} else {
			downTotal += v
		}
	}
	defer fab.Chain("up", 0)()
	sensing := true
	rt.RunFor(5 * time.Second) // installed and wired before the first raw
	if inst := fab.Peer(0).insts[instKey{name: "down"}]; inst == nil || len(inst.nb.Children[0])+len(inst.nb.Children[1]) == 0 {
		t.Fatal("the reporting peer's downstream operator is not an interior one")
	}
	for i := 0; i < peers; i++ {
		i := i
		phase := time.Duration(137*(i+1)%997)*time.Millisecond + 500*time.Microsecond
		rt.After(phase, func() {
			rt.Every(time.Second, func() {
				if sensing {
					injected++
					fab.Inject(i, tuple.Raw{Key: "s", Vals: []float64{1}})
				}
			})
		})
	}
	rt.RunFor(30 * time.Second)
	sensing = false
	rt.RunFor(15 * time.Second) // both queries drain
	if upTotal != float64(injected) {
		t.Fatalf("upstream query summed %v of %d sensor raws", upTotal, injected)
	}
	if want := upTotal + float64(injected); downTotal != want {
		t.Fatalf("downstream query summed %v, want %v: %d sensor raws plus the %v chained in", downTotal, want, injected, upTotal)
	}
	if late, dropped := fab.Stats.LateAtRoot.Load(), fab.Stats.Dropped.Load(); late != 0 || dropped != 0 {
		t.Fatalf("%d late at a root, %d dropped", late, dropped)
	}
}

// (e) The same rule on the live backend, under -race: a function posted to a
// peer's mailbox runs between two of its turns, and finds nothing staged
// however the goroutines interleave.
func TestLiveNothingParksBetweenTurns(t *testing.T) {
	const peers = 20
	rt := livert.New(peers, livert.Options{Seed: 7, MinDelay: 200 * time.Microsecond, MaxDelay: 3 * time.Millisecond})
	defer rt.Shutdown()
	cfg := DefaultConfig()
	cfg.HeartbeatPeriod = 50 * time.Millisecond
	cfg.MinTimeout = 20 * time.Millisecond
	fab, err := NewFabric(rt, nil, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var reported atomic.Int64
	fab.OnResult = func(Result) { reported.Add(1) }
	meta := sumMeta("live", 0)
	meta.Seq = 1
	meta.Window = tuple.WindowSpec{Kind: tuple.TimeWindow, Range: 100 * time.Millisecond, Slide: 100 * time.Millisecond}
	meta.IssuedSim = rt.Clock(0).Now()
	def, err := fab.Compile(meta, nil, uniformCoords(peers, 9), 4, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := fab.Install(0, def); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < peers; i++ {
		i := i
		rt.Clock(i).Every(20*time.Millisecond, func() { fab.Inject(i, tuple.Raw{Vals: []float64{1}}) })
	}
	deadline := time.Now().Add(20 * time.Second)
	for sweeps := 0; reported.Load() < 10 || sweeps < 50; sweeps++ {
		if time.Now().After(deadline) {
			t.Fatalf("%d results after 20 s", reported.Load())
		}
		for i := 0; i < peers; i++ {
			var n int
			if !runtime.ExecWait(rt, i, func() { n = parked(fab.Peer(i)) }) {
				t.Fatal("runtime refused Exec")
			}
			if n != 0 {
				t.Fatalf("peer %d holds %d staged entries between turns", i, n)
			}
		}
	}
	if fab.Stats.SummariesStaged.Load() == 0 {
		t.Fatal("nothing was staged")
	}
}
