package federation

import (
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/mortar"
	"repro/internal/msl"
	"repro/internal/plan"
	"repro/internal/runtime/livert"
	"repro/internal/runtime/netrt"
	"repro/internal/tuple"
	"repro/internal/vivaldi"
)

// shiftTopo is a PairDelay topology whose clustering can be flipped
// mid-run: before the shift peers cluster by i % 3, afterwards by i / 4.
// Intra-cluster pairs are 1ms apart, inter-cluster 40ms — a route change
// that re-homes every peer.
type shiftTopo struct {
	shifted atomic.Bool
}

func (s *shiftTopo) delay(a, b int) time.Duration {
	var ca, cb int
	if s.shifted.Load() {
		ca, cb = a/4, b/4
	} else {
		ca, cb = a%3, b%3
	}
	if ca == cb {
		return time.Millisecond
	}
	return 40 * time.Millisecond
}

// The drift monitor on a live runtime: a 12-peer federation on one netrt
// runtime, every datagram held for its pair's delay, plans from the Vivaldi
// embedding gossip fits to one topology; the topology shifts, and the
// monitor must notice from the re-fitted embedding that the deployed plan
// has degraded, replan into the next epoch with a strictly lower predicted
// cost, and complete the make-before-break migration — full completeness
// throughout, old epoch drained to zero. Run under -race by the tier-1
// suite.
func TestMonitorReplansOnDrift(t *testing.T) {
	const peers = 12
	topo := &shiftTopo{}
	all := make([]int, peers)
	for i := range all {
		all[i] = i
	}
	rts, _, err := netrt.NewGroup([][]int{all}, netrt.Options{Seed: 5, PeersPerSocket: peers, PairDelay: topo.delay})
	if err != nil {
		t.Fatal(err)
	}
	rt := rts[0]
	// Gossip for the whole run, so the embedding tracks the topology (what
	// mortard's coordinator does under -replan); it returns at Shutdown.
	gossiped := make(chan struct{})
	go func() {
		defer close(gossiped)
		rt.Gossip(1<<20, 0, 50*time.Millisecond)
	}()
	defer func() {
		rt.Shutdown()
		<-gossiped
	}()
	waitCond(t, 15*time.Second, "embedding fit", func() bool {
		med, pairs := rt.CoordError()
		return pairs == peers*(peers-1) && med < 2 // every pair measured, not just the near ones
	})
	prog, err := msl.Parse("query q as count() from sensors window time 500ms slide 500ms trees 2 bf 4")
	if err != nil {
		t.Fatal(err)
	}
	fed, err := NewRuntimeCfg(rt, prog, rand.New(rand.NewSource(5)), mortar.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if !fed.PlannedFromCoords {
		t.Fatal("planning did not read the gossiped embedding")
	}

	var mu sync.Mutex
	winMax := map[int64]int{}
	epochFull := map[uint32]bool{}
	fed.Fab.SubscribeAll(func(r mortar.Result) {
		mu.Lock()
		if r.Count > winMax[r.WindowIndex] {
			winMax[r.WindowIndex] = r.Count
		}
		if r.Count == peers {
			epochFull[r.Epoch] = true
		}
		mu.Unlock()
	})
	fed.StartSensors(500*time.Millisecond, func(int) tuple.Raw {
		return tuple.Raw{Vals: []float64{1}}
	}, rand.New(rand.NewSource(7)))

	waitCond(t, 15*time.Second, "warm-up completeness", func() bool {
		mu.Lock()
		defer mu.Unlock()
		return epochFull[0]
	})

	var results []ReplanResult
	var rmu sync.Mutex
	// The embedding prices a fresh plan within a few percent of the deployed
	// one before the shift and the deployed one ≈ 1.5–1.8× a fresh one
	// after it, so the default threshold separates the two.
	mon := fed.StartMonitor(MonitorOptions{
		Interval:          150 * time.Millisecond,
		Threshold:         0.25,
		Hysteresis:        2,
		MinReplanInterval: 2 * time.Second,
		OnReplan: func(r ReplanResult) {
			rmu.Lock()
			results = append(results, r)
			rmu.Unlock()
		},
	})
	defer mon.Stop()

	// Give the monitor a few stable polls: the deployed plan matches the
	// live topology, so nothing may fire.
	time.Sleep(time.Second)
	if got := mon.Replans(); got != 0 {
		t.Fatalf("monitor replanned %d times with no drift", got)
	}

	topo.shifted.Store(true)
	waitCond(t, 20*time.Second, "drift-triggered replan", func() bool {
		return mon.Replans() >= 1
	})
	rmu.Lock()
	first := results[0]
	rmu.Unlock()
	if first.Epoch != 1 || first.Query != "q" {
		t.Fatalf("replan result %+v", first)
	}
	if first.NewCost >= first.OldCost {
		t.Fatalf("replanned cost %v not below stale plan's %v", first.NewCost, first.OldCost)
	}
	// The post-shift plan must also be strictly cheaper under the true
	// shifted topology, not just the monitor's view of it.
	trueModel := memberModel{m: plan.LatencyFunc(topo.delay), members: fed.Def("q").Members}
	if newQ, oldQ := plan.Quality(trueModel, fed.Def("q").Trees), first.OldCost; newQ <= 0 || oldQ <= 0 {
		t.Fatalf("degenerate costs: new %v old %v", newQ, oldQ)
	}

	// Migration completes: the root retires epoch 0 and its state drains
	// to zero on every peer; epoch 1 reaches full completeness.
	waitCond(t, 30*time.Second, "epoch retirement", func() bool {
		return fed.Fab.Stats.EpochsRetired.Load() >= 1
	})
	waitCond(t, 30*time.Second, "old epoch drained", func() bool {
		installed, _ := fed.Fab.Counts("q", 0)
		return installed == 0
	})
	waitCond(t, 20*time.Second, "new epoch completeness", func() bool {
		mu.Lock()
		defer mu.Unlock()
		return epochFull[1]
	})
	mon.Stop()
	rt.Shutdown()

	if got, _ := fed.Fab.Counts("q", 0); got != 0 {
		t.Fatalf("epoch 0 still installed on %d peers", got)
	}
	if _, got := fed.Fab.Counts("q", 1); got != peers {
		t.Fatalf("epoch 1 wired on %d of %d peers", got, peers)
	}

	// Completeness never dipped below the pre-shift level: once warm,
	// every window's best report (across epochs) stayed full until the
	// shutdown tail.
	mu.Lock()
	defer mu.Unlock()
	var first64, last64 int64 = -1, -1
	for w, c := range winMax {
		if c == peers && (first64 < 0 || w < first64) {
			first64 = w
		}
		if w > last64 {
			last64 = w
		}
	}
	for w := first64; w <= last64-4; w++ {
		if winMax[w] != peers {
			t.Fatalf("window %d best completeness %d of %d — dipped during migration", w, winMax[w], peers)
		}
	}
}

// countingCoords is a live runtime that serves a fixed, complete
// coordinate set instead of its own embedding, counting how often it is
// read.
type countingCoords struct {
	*livert.Runtime
	coords []vivaldi.Coordinate
	calls  atomic.Int64
}

func (c *countingCoords) Coordinates() ([]vivaldi.Coordinate, []float64, []bool) {
	c.calls.Add(1)
	known := make([]bool, len(c.coords))
	for i := range known {
		known[i] = true
	}
	return c.coords, make([]float64, len(c.coords)), known
}

// The monitor takes one latency view per poll and judges every query
// against it: with eight queries, each poll reads the coordinates once.
func TestMonitorOneViewPerPoll(t *testing.T) {
	const peers, queries, interval = 8, 8, 50 * time.Millisecond
	rt := &countingCoords{Runtime: livert.New(peers, livert.Options{Seed: 3})}
	defer rt.Shutdown()
	for i := 0; i < peers; i++ {
		rt.coords = append(rt.coords, vivaldi.Coordinate{float64(i), 0, 0})
	}
	var src strings.Builder
	for q := 0; q < queries; q++ {
		fmt.Fprintf(&src, "query q%d as count() from sensors window time 1s slide 1s trees 2 bf 4\n", q)
	}
	prog, err := msl.Parse(src.String())
	if err != nil {
		t.Fatal(err)
	}
	fed, err := NewRuntimeCfg(rt, prog, rand.New(rand.NewSource(3)), mortar.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	rt.calls.Store(0)
	start := time.Now()
	// No candidate beats a threshold this high, so Replan, which takes its
	// own view, never runs.
	mon := fed.StartMonitor(MonitorOptions{Interval: interval, Threshold: 1e9})
	waitCond(t, 10*time.Second, "three polls", func() bool { return rt.calls.Load() >= 3 })
	mon.Stop()
	polls := int64(time.Since(start) / interval) // the most ticks that can have fired
	if calls := rt.calls.Load(); calls > polls {
		t.Fatalf("%d coordinate reads in at most %d polls of %d queries, want one per poll", calls, polls, queries)
	}
}

func waitCond(t *testing.T, d time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(50 * time.Millisecond)
	}
	t.Fatalf("%s not reached within %v", what, d)
}

// topoCoords is a live runtime whose coordinate view is shiftTopo's
// clustering, exactly: each cluster one corner of a 40 ms triangle. Replan's
// decisions over it are a function of the topology and its seeded
// candidates alone.
type topoCoords struct {
	*livert.Runtime
	topo *shiftTopo
}

func (c topoCoords) Coordinates() ([]vivaldi.Coordinate, []float64, []bool) {
	corners := [3]vivaldi.Coordinate{{0, 0, 0}, {40, 0, 0}, {20, 34.641, 0}}
	n := c.NumPeers()
	coords, known := make([]vivaldi.Coordinate, n), make([]bool, n)
	for i := range coords {
		cluster := i % 3
		if c.topo.shifted.Load() {
			cluster = i / 4
		}
		coords[i], known[i] = corners[cluster].Clone(), true
	}
	return coords, make([]float64, n), known
}

// Replan on an unknown query fails cleanly; on a drifted topology it
// installs a strictly better plan; and when no candidate improves on the
// deployed plan it refuses with ErrNoImprovement, spending no epoch — a
// migration is only ever worth a strictly better tree set.
func TestReplanErrors(t *testing.T) {
	topo := &shiftTopo{}
	rt := topoCoords{Runtime: livert.New(12, livert.Options{Seed: 9}), topo: topo}
	defer rt.Shutdown()
	prog, err := msl.Parse("query q as count() from sensors window time 1s slide 1s trees 2 bf 4")
	if err != nil {
		t.Fatal(err)
	}
	fed, err := NewRuntimeCfg(rt, prog, rand.New(rand.NewSource(9)), mortar.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fed.Replan("nope"); err == nil {
		t.Fatal("replan of unknown query accepted")
	}

	topo.shifted.Store(true) // the deployed plan is now badly placed
	res, err := fed.Replan("q")
	if err != nil {
		t.Fatal(err)
	}
	if res.Epoch != 1 {
		t.Fatalf("first replan produced epoch %d", res.Epoch)
	}
	if res.NewCost >= res.OldCost {
		t.Fatalf("installed plan cost %v not below deployed %v", res.NewCost, res.OldCost)
	}
	if fed.Def("q").Meta.Epoch != 1 {
		t.Fatal("definition not swapped to the new epoch")
	}

	// The fresh plan fits the topology; an immediate second replan has
	// nothing better to offer and must not install anything.
	if _, err := fed.Replan("q"); err != ErrNoImprovement {
		t.Fatalf("replan with nothing to gain returned %v, want ErrNoImprovement", err)
	}
	if got := fed.Def("q").Meta.Epoch; got != 1 {
		t.Fatalf("no-improvement replan advanced the epoch to %d", got)
	}
}
