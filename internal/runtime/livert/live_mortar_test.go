package livert_test

import (
	"sync"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/mortar"
	"repro/internal/runtime/livert"
	"repro/internal/tuple"
	"repro/internal/wire"
)

// liveConfig shrinks the paper's timing constants so a live federation
// converges within a second or two of wall time.
func liveConfig() mortar.Config {
	cfg := mortar.DefaultConfig()
	cfg.HeartbeatPeriod = 50 * time.Millisecond
	cfg.MinTimeout = 20 * time.Millisecond
	cfg.MaxTimeout = 2 * time.Second
	return cfg
}

func uniformCoords(n int, seed int64) []cluster.Point {
	out := make([]cluster.Point, n)
	s := seed
	for i := range out {
		s = s*6364136223846793005 + 1442695040888963407
		out[i] = cluster.Point{float64(uint64(s)>>40) / float64(1<<24) * 100,
			float64(uint64(s*31)>>40) / float64(1<<24) * 100}
	}
	return out
}

// A whole Mortar federation on the live runtime: peers run concurrently on
// goroutines, the transport injects loss and control-plane duplicates, and
// the run must produce sane windowed results and shut down cleanly. Run
// with -race this covers concurrent delivery, duplicate suppression
// (heartbeat sequence numbers and idempotent control handlers), and clean
// shutdown.
func TestLiveFederationEndToEnd(t *testing.T) {
	const peers = 30
	rt := livert.New(peers, livert.Options{
		Seed:     42,
		MinDelay: 200 * time.Microsecond,
		MaxDelay: 3 * time.Millisecond,
		Loss:     0.02,
		CtrlDup:  0.25,
	})
	fab, err := mortar.NewFabric(rt, liveConfig())
	if err != nil {
		t.Fatal(err)
	}

	var mu sync.Mutex
	var results []mortar.Result
	fab.SubscribeAll(func(r mortar.Result) {
		mu.Lock()
		results = append(results, r)
		mu.Unlock()
	})

	meta := mortar.QueryMeta{
		Name:   "live-sum",
		Seq:    1,
		OpName: "sum",
		Window: tuple.WindowSpec{Kind: tuple.TimeWindow, Range: 200 * time.Millisecond, Slide: 200 * time.Millisecond},
		Root:   0,
	}
	def, err := fab.Compile(meta, nil, uniformCoords(peers, 9), 4, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := fab.Install(0, def); err != nil {
		t.Fatal(err)
	}

	// Every peer emits value 1 every 50ms from its own goroutine.
	for i := 0; i < peers; i++ {
		i := i
		rt.Clock(i).Every(50*time.Millisecond, func() {
			fab.Inject(i, tuple.Raw{Vals: []float64{1}})
		})
	}

	time.Sleep(1500 * time.Millisecond)
	rt.Shutdown()

	// Post-shutdown the runtime is quiescent: aggregate inspection is safe.
	if got, _ := fab.Counts("live-sum", wire.AllEpochs); got != peers {
		t.Fatalf("installed on %d of %d peers", got, peers)
	}
	if _, got := fab.Counts("live-sum", wire.AllEpochs); got != peers {
		t.Fatalf("wired on %d of %d peers", got, peers)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(results) < 3 {
		t.Fatalf("only %d results from the live federation", len(results))
	}
	best := 0
	for i := 1; i < len(results); i++ {
		if results[i].WindowIndex <= results[i-1].WindowIndex {
			t.Fatalf("window indices not increasing: %d then %d",
				results[i-1].WindowIndex, results[i].WindowIndex)
		}
		if results[i].Count > peers {
			// More participants than peers would mean duplicate data
			// summaries were double-counted somewhere.
			t.Fatalf("completeness %d exceeds federation size %d", results[i].Count, peers)
		}
		if results[i].Count > best {
			best = results[i].Count
		}
	}
	if best < peers/2 {
		t.Fatalf("best completeness %d of %d; live federation never converged", best, peers)
	}
	if fab.Stats.ResultsReported.Load() == 0 {
		t.Fatal("stats counters silent")
	}

	// Removal on the quiesced runtime must refuse cleanly, not hang.
	if err := fab.Remove(0, "live-sum", 2); err == nil {
		t.Fatal("Remove succeeded after Shutdown")
	}

	sent, delivered, dropped, duplicated := rt.Stats()
	if duplicated == 0 {
		t.Fatal("transport injected no duplicates; the dup-suppression path went unexercised")
	}
	if delivered+dropped != sent+duplicated {
		t.Fatalf("ledger does not reconcile: sent=%d delivered=%d dropped=%d duplicated=%d",
			sent, delivered, dropped, duplicated)
	}
}

// Query removal must propagate across live goroutine peers and prune the
// per-peer liveness/dedup state the tree edges had created.
func TestLiveRemovePrunesNeighborState(t *testing.T) {
	const peers = 12
	rt := livert.New(peers, livert.Options{
		Seed:     7,
		MinDelay: 100 * time.Microsecond,
		MaxDelay: time.Millisecond,
	})
	fab, err := mortar.NewFabric(rt, liveConfig())
	if err != nil {
		t.Fatal(err)
	}
	meta := mortar.QueryMeta{
		Name:   "q",
		Seq:    1,
		OpName: "count",
		Window: tuple.WindowSpec{Kind: tuple.TimeWindow, Range: 200 * time.Millisecond, Slide: 200 * time.Millisecond},
		Root:   0,
	}
	def, err := fab.Compile(meta, nil, uniformCoords(peers, 3), 3, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := fab.Install(0, def); err != nil {
		t.Fatal(err)
	}
	time.Sleep(300 * time.Millisecond)
	if err := fab.Remove(0, "q", 2); err != nil {
		t.Fatal(err)
	}
	time.Sleep(300 * time.Millisecond)
	rt.Shutdown()
	if got, _ := fab.Counts("q", wire.AllEpochs); got != 0 {
		t.Fatalf("%d peers still host the removed query", got)
	}
	for i := 0; i < peers; i++ {
		if n := fab.Peer(i).LivenessEntries(); n != 0 {
			t.Fatalf("peer %d retains %d liveness entries after removal", i, n)
		}
		// A bounded heartbeat-dedup residue (one seq per ex-parent, kept
		// to suppress late duplicates) is allowed; growth is not.
		if n := fab.Peer(i).NeighborStateSize(); n > 2 {
			t.Fatalf("peer %d retains %d neighbor-state entries after removal", i, n)
		}
	}
}
