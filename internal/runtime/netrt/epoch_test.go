package netrt_test

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/federation"
	"repro/internal/mortar"
	"repro/internal/msl"
	"repro/internal/plan"
	"repro/internal/runtime/netrt"
	"repro/internal/tuple"
)

// The two latency topologies of the drift tests: 9 peers in three 1ms
// clusters with 25ms between clusters. Before the shift peers cluster by
// thirds ({0,1,2}, {3,4,5}, {6,7,8}); after it by residue ({0,3,6},
// {1,4,7}, {2,5,8}) — a route change that re-homes every peer, small
// enough relative to the protocol's timeout slack that the shift itself
// cannot dent completeness.
func delayByThirds(a, b int) time.Duration {
	if a/3 == b/3 {
		return time.Millisecond
	}
	return 25 * time.Millisecond
}

func delayByResidue(a, b int) time.Duration {
	if a%3 == b%3 {
		return time.Millisecond
	}
	return 25 * time.Millisecond
}

// gossipUntilStopped keeps every runtime's Vivaldi gossip running in the
// background so the coordinator's view tracks the embedding for the whole
// run (what mortard's workers do). Gossip returns on Shutdown.
func gossipUntilStopped(rts []*netrt.Runtime, stop <-chan struct{}, wg *sync.WaitGroup) {
	for _, rt := range rts {
		wg.Add(1)
		go func(rt *netrt.Runtime) {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				rt.Gossip(1, 0, 50*time.Millisecond)
			}
		}(rt)
	}
}

func waitUntil(t *testing.T, d time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(100 * time.Millisecond)
	}
	t.Fatalf("%s not reached within %v", what, d)
}

// The tentpole acceptance test: a 9-peer, 3-runtime loopback federation
// plans from gossiped coordinates under one PairDelay topology; the
// topology shifts mid-run; the drift monitor detects it from the moving
// embedding, replans into epoch 1, the query migrates make-before-break —
// per-window completeness (max across epochs) never drops below the
// pre-shift level — the old epoch's state drains to zero on every
// runtime, and the new plan is strictly cheaper than the stale one under
// the true shifted topology. Race-clean (the tier-1 suite runs -race).
func TestDriftReplanMigratesEpoch(t *testing.T) {
	const peers = 9
	rts, _, err := netrt.NewGroup([][]int{{0, 1, 2}, {3, 4, 5}, {6, 7, 8}},
		netrt.Options{Seed: 71, PairDelay: delayByThirds})
	if err != nil {
		t.Fatal(err)
	}
	stopGossip := make(chan struct{})
	var gwg sync.WaitGroup
	defer func() {
		for _, rt := range rts {
			rt.Shutdown()
		}
		close(stopGossip)
		gwg.Wait()
	}()

	// Workers before any traffic, so their handlers exist when the install
	// multicast lands.
	w1, err := federation.NewWorker(rts[1])
	if err != nil {
		t.Fatal(err)
	}
	w2, err := federation.NewWorker(rts[2])
	if err != nil {
		t.Fatal(err)
	}
	gossipUntilStopped(rts, stopGossip, &gwg)
	waitUntil(t, 15*time.Second, "initial embedding coverage", func() bool {
		_, _, known := rts[0].Coordinates()
		for _, k := range known {
			if !k {
				return false
			}
		}
		med, pairs := rts[0].CoordError()
		return pairs > 0 && med < 6.0
	})

	prog, err := msl.Parse("query q as count() from sensors window time 500ms slide 500ms trees 2 bf 4")
	if err != nil {
		t.Fatal(err)
	}
	fed, err := federation.NewRuntimeCfg(rts[0], prog, rand.New(rand.NewSource(2)), mortar.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if !fed.PlannedFromCoords {
		t.Fatal("planning fell back to the coordinator-local embedding")
	}
	oldDef := fed.Def("q")

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
	for i, f := range []*federation.Federation{fed, w1, w2} {
		f.StartSensors(500*time.Millisecond, func(int) tuple.Raw {
			return tuple.Raw{Vals: []float64{1}}
		}, rand.New(rand.NewSource(int64(40+i))))
	}
	waitUntil(t, 20*time.Second, "pre-shift completeness", func() bool {
		mu.Lock()
		defer mu.Unlock()
		return epochFull[0]
	})

	// The route change: every runtime's outgoing datagrams now see the
	// residue clustering. Passive RTT echoes re-measure, Vivaldi
	// re-embeds, gossip spreads the moved coordinates.
	for _, rt := range rts {
		rt.SetPairDelay(delayByResidue)
	}

	// Threshold note: with the root pinned at peer 0, even the optimal
	// post-shift tree still pays inter-cluster hops to reach it, so the
	// deployed-versus-candidate cost ratio settles near 1.4 once the
	// embedding re-converges — the default 0.25 threshold detects that
	// steady state; a 0.5 threshold would only fire on the transient.
	var replans []federation.ReplanResult
	var rmu sync.Mutex
	mon := fed.StartMonitor(federation.MonitorOptions{
		Interval:          250 * time.Millisecond,
		Threshold:         0.25,
		Hysteresis:        2,
		MinReplanInterval: 10 * time.Second,
		OnReplan: func(r federation.ReplanResult) {
			rmu.Lock()
			replans = append(replans, r)
			rmu.Unlock()
		},
	})
	defer mon.Stop()

	waitUntil(t, 45*time.Second, "drift-triggered replan", func() bool {
		return mon.Replans() >= 1
	})
	rmu.Lock()
	first := replans[0]
	rmu.Unlock()
	if first.Epoch != 1 || !first.FromCoords {
		t.Fatalf("replan result %+v — want epoch 1 planned from gossiped coordinates", first)
	}
	if first.NewCost >= first.OldCost {
		t.Fatalf("replanned cost %v not below stale plan's %v", first.NewCost, first.OldCost)
	}

	// Migration completes across all three runtimes.
	waitUntil(t, 60*time.Second, "epoch retirement at the root", func() bool {
		return fed.Fab.Stats.EpochsRetired.Load() >= 1
	})
	feds := []*federation.Federation{fed, w1, w2}
	waitUntil(t, 30*time.Second, "old epoch drained everywhere", func() bool {
		for _, f := range feds {
			if installed, _ := f.Fab.Counts("q", 0); installed != 0 {
				return false
			}
		}
		return true
	})
	waitUntil(t, 30*time.Second, "new epoch completeness", func() bool {
		mu.Lock()
		defer mu.Unlock()
		return epochFull[1]
	})
	newDef := fed.Def("q")
	mon.Stop()
	for _, rt := range rts {
		rt.Shutdown()
	}

	// Post-shutdown state: old epoch fully gone, new epoch wired on every
	// runtime's local peers (each fabric sees only the 3 peers it hosts).
	for gi, f := range feds {
		if got, _ := f.Fab.Counts("q", 0); got != 0 {
			t.Fatalf("runtime %d: epoch 0 still installed on %d peers", gi, got)
		}
		if _, got := f.Fab.Counts("q", 1); got != 3 {
			t.Fatalf("runtime %d: epoch 1 wired on %d of its 3 peers", gi, got)
		}
	}

	// The migrated plan must beat the stale plan under the TRUE shifted
	// topology — not merely under the embedding's view of it.
	trueModel := plan.LatencyFunc(delayByResidue)
	staleQ := plan.Quality(trueModel, oldDef.Trees)
	newQ := plan.Quality(trueModel, newDef.Trees)
	if newQ >= staleQ {
		t.Fatalf("post-migration tree cost %v not strictly below the stale plan's %v under the shifted topology", newQ, staleQ)
	}

	// Completeness never dropped below the pre-shift level: from the first
	// full window to the shutdown tail, every window's best report reached
	// all 9 peers.
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
	if first64 < 0 {
		t.Fatal("no fully complete window")
	}
	for w := first64; w <= last64-6; w++ {
		if winMax[w] != peers {
			t.Fatalf("window %d best completeness %d of %d — dipped during migration", w, winMax[w], peers)
		}
	}
}

// Churn during migration: the federation replans while two peers (one per
// worker runtime) are down, so their install chunks and acks are lost
// mid-migration. Reconciliation re-adopts the new epoch on recovery, the
// re-ack path completes the retirement, and the run still reaches full
// completeness on the new epoch with the old epoch's state fully drained.
func TestReplanUnderChurnReachesCompleteness(t *testing.T) {
	const peers = 9
	rts, _, err := netrt.NewGroup([][]int{{0, 1, 2}, {3, 4, 5}, {6, 7, 8}},
		netrt.Options{Seed: 72, PairDelay: delayByThirds})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		for _, rt := range rts {
			rt.Shutdown()
		}
	}()
	w1, err := federation.NewWorker(rts[1])
	if err != nil {
		t.Fatal(err)
	}
	w2, err := federation.NewWorker(rts[2])
	if err != nil {
		t.Fatal(err)
	}
	prog, err := msl.Parse("query q as count() from sensors window time 500ms slide 500ms trees 2 bf 4")
	if err != nil {
		t.Fatal(err)
	}
	fed, err := federation.NewRuntimeCfg(rts[0], prog, rand.New(rand.NewSource(3)), mortar.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}

	var mu sync.Mutex
	epochFull := map[uint32]bool{}
	var bestNew atomic.Int64
	fed.Fab.SubscribeAll(func(r mortar.Result) {
		mu.Lock()
		if r.Count == peers {
			epochFull[r.Epoch] = true
		}
		mu.Unlock()
		if r.Epoch == 1 && int64(r.Count) > bestNew.Load() {
			bestNew.Store(int64(r.Count))
		}
	})
	for i, f := range []*federation.Federation{fed, w1, w2} {
		f.StartSensors(500*time.Millisecond, func(int) tuple.Raw {
			return tuple.Raw{Vals: []float64{1}}
		}, rand.New(rand.NewSource(int64(50+i))))
	}
	waitUntil(t, 20*time.Second, "pre-churn completeness", func() bool {
		mu.Lock()
		defer mu.Unlock()
		return epochFull[0]
	})

	// Shift the topology and let every process measure it — ten gossip
	// rounds, as mortard's processes run before anyone plans — so the replan
	// decides from a fitted view. (Left to the passive echoes of the first
	// windows, the view depended on which window completed first: one
	// measured pair when it was window 1, six a window later, and under one
	// pair every candidate ties with the deployed plan. A GC cycle inside the
	// set-up above stretches it from 8 ms to 30 and moves the sensors' fixed
	// phases across that line.) Then replan with two peers down — their
	// install chunks and acks vanish mid-migration (FailRandom on the worker
	// runtimes: the owning runtime's gate blocks both directions).
	for _, rt := range rts {
		rt.SetPairDelay(delayByResidue)
	}
	var fit sync.WaitGroup
	for _, rt := range rts {
		fit.Add(1)
		go func(rt *netrt.Runtime) {
			defer fit.Done()
			rt.Gossip(10, 0, 100*time.Millisecond)
		}(rt)
	}
	fit.Wait()
	downed := []struct{ rt, peer int }{{1, 4}, {2, 7}}
	for _, d := range downed {
		rts[d.rt].SetDown(d.peer, true)
	}
	res, err := fed.Replan("q")
	if err != nil {
		t.Fatal(err)
	}
	if res.Epoch != 1 || !res.FromCoords {
		t.Fatalf("replan produced epoch %d (from gossiped coordinates: %v)", res.Epoch, res.FromCoords)
	}
	time.Sleep(2 * time.Second) // migration proceeds against the holes
	if fed.Fab.Stats.EpochsRetired.Load() != 0 {
		t.Fatal("retirement fired while members were down — make-before-break violated")
	}
	for _, d := range downed {
		rts[d.rt].SetDown(d.peer, false)
	}

	// Recovery: reconciliation re-adopts, re-acks complete the hand-off.
	waitUntil(t, 90*time.Second, "retirement after recovery", func() bool {
		return fed.Fab.Stats.EpochsRetired.Load() >= 1
	})
	waitUntil(t, 30*time.Second, "post-churn completeness on the new epoch", func() bool {
		mu.Lock()
		defer mu.Unlock()
		return epochFull[1]
	})
	feds := []*federation.Federation{fed, w1, w2}
	waitUntil(t, 30*time.Second, "old epoch drained everywhere", func() bool {
		for _, f := range feds {
			if installed, _ := f.Fab.Counts("q", 0); installed != 0 {
				return false
			}
		}
		return true
	})
	for _, rt := range rts {
		rt.Shutdown()
	}
	for gi, f := range feds {
		if got, _ := f.Fab.Counts("q", 0); got != 0 {
			t.Fatalf("runtime %d: epoch 0 survived the churned migration on %d peers", gi, got)
		}
	}
}
