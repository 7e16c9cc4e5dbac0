package mortar

import (
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/tuple"
	"repro/internal/wire"
)

// runSeeded executes the §7.2 microbenchmark over the simulated backend
// and returns the full root result stream.
func runSeeded(t *testing.T, seed int64) []Result {
	t.Helper()
	fab, rt := testbed(t, 40, seed, DefaultConfig(), nil)
	var results []Result
	fab.OnResult = func(r Result) { results = append(results, r) }
	sumQuery(t, fab, rt, 4, 2)
	rt.RunFor(30 * time.Second)
	if len(results) < 10 {
		t.Fatalf("only %d results", len(results))
	}
	return results
}

// The simulated backend must stay bit-for-bit deterministic through the
// runtime abstraction: the same seed yields the identical result stream —
// values, completeness counts, hop counts, and report times. This is the
// property the figure experiments rely on, and the regression guard for
// any future change to the simrt adapter.
func TestSimBackendDeterministic(t *testing.T) {
	a := runSeeded(t, 77)
	b := runSeeded(t, 77)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same seed diverged: run1 %d results, run2 %d results", len(a), len(b))
	}
	c := runSeeded(t, 78)
	if reflect.DeepEqual(a, c) {
		t.Fatal("different seeds produced identical streams; seeding is broken")
	}
}

// Zero-valued configs must pick up paper defaults instead of dividing by
// zero or ticking at 0s; nonsense values must be rejected.
func TestConfigValidate(t *testing.T) {
	got, err := Config{}.Validate()
	if err != nil {
		t.Fatal(err)
	}
	def := DefaultConfig()
	def.Syncless = false // bools cannot be defaulted; zero keeps timestamp mode
	def.TTLDownMax = 0   // zero is the flex-down-disabled ablation, preserved
	if got != def {
		t.Fatalf("zero config normalized to %+v, want paper defaults", got)
	}

	ok := DefaultConfig()
	ok.TTLDownMax = 0 // ablation setting: flex-down disabled, not defaulted
	if v, err := ok.Validate(); err != nil || v.TTLDownMax != 0 {
		t.Fatalf("TTLDownMax 0 not preserved: %+v, %v", v, err)
	}

	bad := []Config{
		func() Config { c := DefaultConfig(); c.HeartbeatPeriod = -time.Second; return c }(),
		func() Config { c := DefaultConfig(); c.ReconcileEveryBeats = -1; return c }(),
		func() Config { c := DefaultConfig(); c.MaxStage = 7; return c }(),
		func() Config { c := DefaultConfig(); c.MaxStage = -2; return c }(),
		func() Config { c := DefaultConfig(); c.InstallChunks = -4; return c }(),
		func() Config { c := DefaultConfig(); c.NetDistAlpha = 1.5; return c }(),
		func() Config { c := DefaultConfig(); c.MaxTimeout = time.Millisecond; return c }(),
		func() Config { c := DefaultConfig(); c.TTLDownMax = -1; return c }(),
	}
	for i, c := range bad {
		if _, err := c.Validate(); err == nil {
			t.Fatalf("bad config %d accepted: %+v", i, c)
		}
	}

	// There is no slack to set: the deadline carries its own margin, and any
	// TimeoutSlack but 0 is refused by name rather than silently ignored.
	for _, slack := range []time.Duration{-1, time.Millisecond} {
		c := DefaultConfig()
		c.TimeoutSlack = slack
		if _, err := c.Validate(); err == nil || !strings.Contains(err.Error(), "TimeoutSlack") {
			t.Fatalf("TimeoutSlack %v: err = %v, want a refusal naming the field", slack, err)
		}
	}
}

// The fabric constructor must apply Validate: a zero-value config yields a
// working federation, an invalid one an error.
func TestNewFabricValidatesConfig(t *testing.T) {
	fab, rt := testbed(t, 20, 55, Config{}, nil)
	if fab.Cfg.HeartbeatPeriod != 2*time.Second || fab.Cfg.InstallChunks != 16 {
		t.Fatalf("fabric config not normalized: %+v", fab.Cfg)
	}
	sumQuery(t, fab, rt, 4, 2)
	rt.RunFor(10 * time.Second)
	if fab.Stats.ResultsReported.Load() == 0 {
		t.Fatal("zero-value config produced no results")
	}

	bad := DefaultConfig()
	bad.MaxStage = 9
	// Config validation runs before any handler registration, so probing
	// with the same runtime is safe.
	if _, err := NewFabric(fab.Rt, nil, bad); err == nil {
		t.Fatal("invalid config accepted by NewFabric")
	}
}

// Removing a query must prune the liveness and duplicate-suppression maps
// its tree edges populated — otherwise long-lived peers leak an entry per
// former neighbor under churn.
func TestRemovePrunesNeighborState(t *testing.T) {
	fab, rt := testbed(t, 30, 66, DefaultConfig(), nil)
	sumQuery(t, fab, rt, 4, 2)
	rt.RunFor(10 * time.Second)

	populated := 0
	for i := 0; i < fab.NumPeers(); i++ {
		if fab.Peer(i).NeighborStateSize() > 0 {
			populated++
		}
	}
	if populated < fab.NumPeers()/2 {
		t.Fatalf("only %d peers track neighbor state while the query runs", populated)
	}

	if err := fab.Remove(0, "sum1", 2); err != nil {
		t.Fatal(err)
	}
	rt.RunFor(30 * time.Second)
	if got, _ := fab.Counts("sum1", wire.AllEpochs); got != 0 {
		t.Fatalf("%d peers still host the removed query", got)
	}
	for i := 0; i < fab.NumPeers(); i++ {
		if n := fab.Peer(i).LivenessEntries(); n != 0 {
			t.Fatalf("peer %d retains %d liveness entries after removal", i, n)
		}
		// Heartbeat dedup seqs may leave a residue for the final in-flight
		// heartbeats (kept so their duplicates stay suppressed), bounded
		// by the ex-parent count — one per tree.
		if n := fab.Peer(i).NeighborStateSize(); n > 2 {
			t.Fatalf("peer %d retains %d neighbor-state entries after removal", i, n)
		}
	}
}

// Replacing a query with a higher-seq reinstall rewires trees; neighbors
// only the old wiring referenced must not linger forever. (The new trees
// are planned over the same coordinates, so most edges persist — this
// checks the maps stay bounded by the current neighbor sets, not that
// they empty.)
func TestReinstallBoundsNeighborState(t *testing.T) {
	fab, rt := testbed(t, 20, 67, DefaultConfig(), nil)
	coords := uniformCoords(20, 9)
	mk := func(seq uint64) *QueryDef {
		meta := QueryMeta{
			Name: "q", Seq: seq, OpName: "sum",
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
	if err := fab.Install(0, mk(1)); err != nil {
		t.Fatal(err)
	}
	rt.RunFor(10 * time.Second)
	if err := fab.Install(0, mk(2)); err != nil {
		t.Fatal(err)
	}
	rt.RunFor(10 * time.Second)
	for i := 0; i < fab.NumPeers(); i++ {
		p := fab.Peer(i)
		bound := len(p.uniqueChildren()) + len(p.uniqueParents())
		// lastHeard + hbSeqSeen each track at most the current neighbor
		// set (hbSeqSeen only senders, lastHeard both directions).
		if n := p.NeighborStateSize(); n > 2*bound {
			t.Fatalf("peer %d neighbor state %d exceeds 2x current neighbors %d", i, n, bound)
		}
	}
}
