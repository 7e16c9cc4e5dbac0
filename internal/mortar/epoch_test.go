package mortar

import (
	"testing"
	"time"

	"repro/internal/tuple"
	"repro/internal/wire"
)

// epochQuery compiles a seq/epoch-versioned sum query over all peers with
// the given coordinate seed. Installed at a root running another epoch of
// it, it takes that epoch's frame, so window indices of successive epochs
// agree (a replan reinstalls the same logical query, not a new one).
func epochQuery(t *testing.T, fab *Fabric, seq uint64, epoch uint32, coordSeed int64) *QueryDef {
	t.Helper()
	meta := QueryMeta{
		Name:   "mig",
		Seq:    seq,
		Epoch:  epoch,
		OpName: "sum",
		Window: tuple.WindowSpec{Kind: tuple.TimeWindow, Range: time.Second, Slide: time.Second},
		Root:   0,
	}
	def, err := fab.Compile(meta, nil, uniformCoords(fab.NumPeers(), coordSeed), 4, 2)
	if err != nil {
		t.Fatal(err)
	}
	return def
}

// The epoch-lifecycle acceptance on the deterministic backend: installing
// the next epoch of a live query runs both epochs side by side, the root
// retires the old epoch once every member acks the new one, the old
// epoch's state drains to zero on every peer — and per-window completeness
// (the max across epochs) never dips below full during the whole
// migration. Make-before-break, end to end.
func TestEpochMigrationMakeBeforeBreak(t *testing.T) {
	const peers = 30
	fab, rt := testbed(t, peers, 91, DefaultConfig(), nil)
	winMax := map[int64]int{}
	epochSeen := map[uint32]bool{}
	fab.SubscribeAll(func(r Result) {
		epochSeen[r.Epoch] = true
		if r.Count > winMax[r.WindowIndex] {
			winMax[r.WindowIndex] = r.Count
		}
	})
	if err := fab.Install(0, epochQuery(t, fab, 1, 0, 7)); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < peers; i++ {
		startSensor(fab, rt, i)
	}
	rt.RunFor(20 * time.Second)
	if _, got := fab.Counts("mig", 0); got != peers {
		t.Fatalf("epoch 0 wired on %d of %d peers before migration", got, peers)
	}

	// Replan: same query, next epoch, different coordinates (a drifted
	// embedding plans different trees).
	if err := fab.Install(0, epochQuery(t, fab, 2, 1, 8)); err != nil {
		t.Fatal(err)
	}
	rt.RunFor(40 * time.Second)

	if got := fab.Stats.EpochsRetired.Load(); got != 1 {
		t.Fatalf("EpochsRetired = %d, want 1", got)
	}
	if got, _ := fab.Counts("mig", 0); got != 0 {
		t.Fatalf("epoch 0 still installed on %d peers after retirement", got)
	}
	if _, got := fab.Counts("mig", 1); got != peers {
		t.Fatalf("epoch 1 wired on %d of %d peers", got, peers)
	}
	if got, _ := fab.Counts("mig", wire.AllEpochs); got != peers {
		t.Fatalf("installed (any epoch) = %d, want %d", got, peers)
	}
	if !epochSeen[0] || !epochSeen[1] {
		t.Fatalf("results seen per epoch: %v — both epochs must report", epochSeen)
	}

	// Completeness never dips: once warm, every window up to the tail
	// reaches full completeness in at least one epoch's report.
	var first, last int64 = -1, -1
	for w, c := range winMax {
		if c == peers && (first < 0 || w < first) {
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
		if winMax[w] != peers {
			t.Fatalf("window %d best completeness %d of %d — dipped during migration", w, winMax[w], peers)
		}
	}
}

// Fabric.Remove with a stale seq is a documented no-op at every peer: a
// replayed or delayed removal can never undo a newer install of the same
// query.
func TestStaleRemoveIsNoOp(t *testing.T) {
	const peers = 20
	fab, rt := testbed(t, peers, 92, DefaultConfig(), nil)
	def := epochQuery(t, fab, 5, 0, 7)
	if err := fab.Install(0, def); err != nil {
		t.Fatal(err)
	}
	rt.RunFor(10 * time.Second)
	if got, _ := fab.Counts("mig", wire.AllEpochs); got != peers {
		t.Fatalf("installed on %d of %d peers", got, peers)
	}
	// seq 5 == install seq: stale (removal must carry a NEWER seq to win).
	if err := fab.Remove(0, "mig", 5); err != nil {
		t.Fatal(err)
	}
	rt.RunFor(20 * time.Second)
	if got, _ := fab.Counts("mig", wire.AllEpochs); got != peers {
		t.Fatalf("stale remove tore down the query: %d of %d peers still host it", got, peers)
	}
	if _, got := fab.Counts("mig", wire.AllEpochs); got != peers {
		t.Fatalf("stale remove unwired the query: %d of %d", got, peers)
	}
}

// A delayed old-epoch removal — even one with an absurdly high seq — can
// never tear down a newer epoch: the epoch scope caps what it covers, and
// the newer epoch's reinstalls stay adoptable through reconciliation.
func TestDelayedOldEpochRemoveSparesNewEpoch(t *testing.T) {
	const peers = 20
	fab, rt := testbed(t, peers, 93, DefaultConfig(), nil)
	if err := fab.Install(0, epochQuery(t, fab, 1, 0, 7)); err != nil {
		t.Fatal(err)
	}
	rt.RunFor(10 * time.Second)
	if err := fab.Install(0, epochQuery(t, fab, 2, 1, 8)); err != nil {
		t.Fatal(err)
	}
	rt.RunFor(30 * time.Second) // migration completes, epoch 0 retired

	// A delayed epoch-0 removal replays on every peer with a huge seq.
	for i := 0; i < peers; i++ {
		i := i
		rt.Exec(i, func() { fab.Peer(i).removeLocal("mig", 99, 0) })
	}
	rt.RunFor(20 * time.Second)
	if _, got := fab.Counts("mig", 1); got != peers {
		t.Fatalf("delayed old-epoch remove damaged epoch 1: wired on %d of %d peers", got, peers)
	}
	// The removal mark must not have poisoned epoch-1 adoption either: a
	// reconciliation-style reinstall of the epoch-1 meta still lands.
	inst := fab.Peer(0).insts[instKey{name: "mig", epoch: 1}]
	if inst == nil {
		t.Fatal("root lost epoch 1")
	}
	meta := inst.meta
	rt.Exec(5, func() {
		p := fab.Peer(5)
		if p.covered("mig", meta.Seq, meta.Epoch) {
			t.Errorf("removal marks %+v cover the live epoch's meta (seq %d, epoch %d)", p.removed["mig"], meta.Seq, meta.Epoch)
		}
	})
	rt.RunFor(time.Second)
}

// Removal marks form a non-dominated set per name: a whole-query removal
// and a later epoch-scoped retirement cover incomparable rectangles, and
// BOTH must keep suppressing the installs they cover — collapsing to
// either single mark would let some replayed install resurrect a zombie.
func TestRemovalMarksKeepIncomparableCoverage(t *testing.T) {
	fab, rt := testbed(t, 10, 95, DefaultConfig(), nil)
	done := make(chan struct{})
	rt.Exec(5, func() {
		defer close(done)
		p := fab.Peer(5)
		// History: old incarnation whole-removed at seq 5; re-created
		// (seq 6, epoch 0); replanned (seq 7, epoch 1) whose retirement
		// removes epoch 0 at seq 7.
		p.removeLocal("z", 5, wire.AllEpochs)
		p.removeLocal("z", 7, 0)
		// Stale meta from the dead incarnation (seq 4, epoch 2): only the
		// AllEpochs mark covers it.
		if !p.covered("z", 4, 2) {
			t.Errorf("whole-removal coverage lost: stale epoch-2 meta adoptable")
		}
		// Replayed install of the re-created epoch 0 (seq 6): only the
		// retirement mark covers it.
		if !p.covered("z", 6, 0) {
			t.Errorf("retirement coverage lost: retired epoch-0 reinstall adoptable")
		}
		// The live epoch 1 (seq 7) is covered by neither.
		if p.covered("z", 7, 1) {
			t.Errorf("marks %+v over-suppress the live epoch", p.removed["z"])
		}
		// Duplicate deliveries stay no-ops and the set stays minimal.
		p.removeLocal("z", 5, wire.AllEpochs)
		p.removeLocal("z", 6, 0) // dominated by {7, 0}
		if n := len(p.removed["z"]); n != 2 {
			t.Errorf("mark set has %d entries, want the 2 non-dominated marks: %+v", n, p.removed["z"])
		}
	})
	<-done
	rt.RunFor(time.Second)
}

// A whole-query removal still covers every epoch, exactly as the v2 wire
// format's removals did.
func TestWholeRemoveCoversBothEpochs(t *testing.T) {
	const peers = 20
	fab, rt := testbed(t, peers, 94, DefaultConfig(), nil)
	if err := fab.Install(0, epochQuery(t, fab, 1, 0, 7)); err != nil {
		t.Fatal(err)
	}
	rt.RunFor(8 * time.Second)
	if err := fab.Install(0, epochQuery(t, fab, 2, 1, 8)); err != nil {
		t.Fatal(err)
	}
	rt.RunFor(4 * time.Second) // mid-migration: both epochs live somewhere
	if err := fab.Remove(0, "mig", 3); err != nil {
		t.Fatal(err)
	}
	rt.RunFor(30 * time.Second)
	if got, _ := fab.Counts("mig", wire.AllEpochs); got != 0 {
		t.Fatalf("%d peers still host the removed query", got)
	}
	if got := fab.Stats.EpochsRetired.Load(); got > 1 {
		t.Fatalf("EpochsRetired = %d after whole-query removal", got)
	}
}
