package mortar

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"time"

	"repro/internal/runtime/simrt"
	"repro/internal/tuple"
	"repro/internal/wire"
)

// The upstream send path (instance.send): a routed summary leaves at once,
// as one data frame of its own. These tests pin that rule on the
// deterministic backend, where frames can be counted exactly.

// installQuery compiles and installs a tumbling-window query over all peers
// from a pinned planning seed: queries installed with the same seed, bf and d
// get the same trees — co-planned tenants, which share every next hop. A
// meta without a Seq installs at Seq 1; tenants of one fabric each need
// their own.
func installQuery(t *testing.T, fab *Fabric, rt *simrt.Runtime, meta QueryMeta, bf, d int) *QueryDef {
	t.Helper()
	if meta.Seq == 0 {
		meta.Seq = 1
	}
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
		if m, ok := payload.(*envelope); src == from && ok {
			*frames = append(*frames, []envelope{*m})
		}
		fab.Peer(to).deliver(src, payload, size)
	})
	return frames
}

// There is no hold to set: the only SummaryHold Validate accepts is 0, which
// is the default, and any other value is refused by name rather than silently
// ignored.
func TestCoalescingKnobs(t *testing.T) {
	t.Run("rejects-nonsense", func(t *testing.T) {
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
// windows: warm completeness holds straight through the migration. (The
// make-before-break mechanics themselves are covered by the epoch tests; this
// pins the interaction with the summaries both epochs send.)
func TestMigrationFlushesStagedSummaries(t *testing.T) {
	fab, rt := testbed(t, 40, 13, DefaultConfig(), nil)
	winMax := map[int64]int{}
	fab.SubscribeAll(func(r Result) {
		if r.Count > winMax[r.WindowIndex] {
			winMax[r.WindowIndex] = r.Count
		}
	})
	def := sumQuery(t, fab, rt, 4, 2)
	rt.RunFor(15 * time.Second)

	// Replan the same query into epoch 1 (the root starts it in its
	// running epoch's frame, so window indexes align across epochs) and let
	// the migration complete.
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

// Each summary is one frame, whatever else its turn routes to the same next
// hop. Three envelopes arriving in one turn that complete three co-planned
// tenants' windows at an interior operator send the parent three single
// envelopes, each stamped with the arrival's own simulator time; and one
// evictExpired that expires two windows sends two. An envelope batch, which
// no peer sends, is dropped and counted. The federation has no sensors, so
// these are its only data frames.
func TestEachSummaryIsOneFrame(t *testing.T) {
	const tenants = 3
	setup := func(t *testing.T) (*Fabric, *simrt.Runtime, *Peer, []*instance, *[][]envelope) {
		fab, rt := testbed(t, 30, 11, DefaultConfig(), nil)
		for qi := 0; qi < tenants; qi++ {
			meta := sumMeta(fmt.Sprintf("sum%d", qi), 0)
			meta.Seq = uint64(qi + 1)
			installQuery(t, fab, rt, meta, 4, 1)
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
	requireFrames := func(t *testing.T, fab *Fabric, frames [][]envelope, n int, sentAt time.Duration) {
		t.Helper()
		if st, df := fab.Stats.SummariesStaged.Load(), fab.Stats.DataFrames.Load(); st != uint64(n) || df != st {
			t.Fatalf("staged=%d data_frames=%d, want %d summaries in %d frames", st, df, n, n)
		}
		if len(frames) != n {
			t.Fatalf("parent received %d frames (%v), want %d", len(frames), frames, n)
		}
		for _, f := range frames {
			if len(f) != 1 {
				t.Fatalf("parent received a frame of %d entries (%v), want one summary a frame", len(f), frames)
			}
			if f[0].SentAt != sentAt {
				t.Fatalf("entry of Seq %d stamped %v, want the turn's own time %v", f[0].Seq, f[0].SentAt, sentAt)
			}
		}
	}

	t.Run("batch-completing-tenants", func(t *testing.T) {
		fab, rt, p, insts, frames := setup(t)
		child := insts[0].nb.Children[0][0]
		var arrived time.Duration
		rt.After(37*time.Millisecond, func() {
			arrived = rt.Now()
			for _, inst := range insts {
				// A partial counting the operator's whole subtree completes
				// its window on arrival.
				p.deliver(child, &envelope{
					S:      tuple.Summary{Value: 1.0, Count: inst.nb.Subtree[0], Age: 400 * time.Millisecond},
					Seq:    inst.meta.Seq,
					SentAt: arrived,
				}, 0)
			}
		})
		rt.RunFor(time.Second)
		requireFrames(t, fab, *frames, tenants, arrived)
		seen := map[uint64]bool{}
		for _, f := range *frames {
			seen[f[0].Seq] = true
		}
		if len(seen) != tenants {
			t.Fatalf("frames carry %v, want one summary per tenant", seen)
		}
	})

	t.Run("batch-dropped", func(t *testing.T) {
		fab, rt, p, insts, frames := setup(t)
		child := insts[0].nb.Children[0][0]
		dropped := fab.Stats.Dropped.Load()
		rt.After(37*time.Millisecond, func() {
			b := &wire.EnvelopeBatch{SentAt: rt.Now()}
			for _, inst := range insts {
				b.Envelopes = append(b.Envelopes, envelope{
					S:      tuple.Summary{Query: inst.meta.Name, Value: 1.0, Count: inst.nb.Subtree[0], Age: 400 * time.Millisecond},
					SentAt: rt.Now(),
				})
			}
			p.deliver(child, b, 0)
		})
		rt.RunFor(time.Second)
		if d := fab.Stats.Dropped.Load() - dropped; d != 1 {
			t.Fatalf("a received batch counted %d drops, want 1", d)
		}
		requireFrames(t, fab, *frames, 0, 0)
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
		fires := rt.Now() + inst.evictDue - inst.frameNow()
		rt.RunFor(time.Second)
		requireFrames(t, fab, *frames, 2, fires)
	})
}

// A result subscriber that injects into the reporting peer (Chain) re-enters
// injectRawBatch, and the sends it makes, inside the turn that reported, on
// the simulator. Nothing is lost or sent twice by that: with the
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
	down.Seq = 2
	installQuery(t, fab, rt, down, 4, 2)
	var upTotal, downTotal float64
	var injected int
	fab.SubscribeAll(func(r Result) {
		v, _ := r.Value.(float64)
		if r.Query == "up" {
			upTotal += v
		} else {
			downTotal += v
		}
	})
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
