package netrt_test

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"repro/internal/federation"
	"repro/internal/mortar"
	"repro/internal/msl"
	"repro/internal/runtime/netrt"
	"repro/internal/tuple"
)

// Processes start at different instants, so each netrt runtime's clock
// counts from its own start. A worker must still index windows in the
// coordinator's frame: it takes its frame from the install's age plus the
// measured flight (§5.1), never from a clock reading another process made.
// The coordinator and a worker run in two runtimes whose starts are Δ
// apart, the worker's earlier, as a worker started first reads. Every
// member injects the value k twice in window k of the root's frame, at
// 0.2 and 0.6 of the window, so a member whose windows are shifted by half
// a window merges a value of window k with one of window k+1 and the sum
// of window k misses 12k. A whole-window Δ would not show: re-indexing by
// age puts a shifted window's summary back where it belongs. Nor would a
// count.
func TestWorkerFrameIgnoresProcessStart(t *testing.T) {
	const w = 500 * time.Millisecond
	for _, delta := range []time.Duration{0, w / 2, 5 * w / 2} {
		t.Run(fmt.Sprint(delta), func(t *testing.T) { checkStaggeredFrames(t, w, delta) })
	}
}

func checkStaggeredFrames(t *testing.T, w, delta time.Duration) {
	const (
		peers   = 6
		windows = 7 // windows 1..windows carry data
	)
	prog, err := msl.Parse(fmt.Sprintf("query w as sum() from sensors window time %v slide %v trees 2 bf 2", w, w))
	if err != nil {
		t.Fatal(err)
	}
	restore := netrt.StaggerStarts(delta)
	rts, _, err := netrt.NewGroup([][]int{{0, 1, 2}, {3, 4, 5}}, netrt.Options{Seed: 11})
	restore()
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		for _, rt := range rts {
			rt.Shutdown()
		}
	}()
	c := rts[0].Clock(0).Now()
	if lead := rts[1].Clock(3).Now() - c; lead < delta || lead > delta+50*time.Millisecond {
		t.Fatalf("worker clock leads the coordinator's by %v, want %v", lead, delta)
	}
	worker, err := federation.NewWorker(rts[1])
	if err != nil {
		t.Fatal(err)
	}
	gossipAll(rts, 3)
	coord, err := federation.NewRuntimeCfg(rts[0], prog, rand.New(rand.NewSource(1)), mortar.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	// The root's frame reads 0 at its install, the last thing
	// NewRuntimeCfg does.
	origin := rts[0].Clock(0).Now()
	feds := []*federation.Federation{coord, coord, coord, worker, worker, worker}

	for k := 1; k <= windows; k++ {
		for _, at := range []time.Duration{w / 5, 3 * w / 5} {
			time.Sleep(origin + time.Duration(k)*w + at - rts[0].Clock(0).Now())
			for p, fed := range feds {
				fed.Fab.Inject(p, tuple.Raw{Vals: []float64{float64(k)}})
			}
		}
	}
	waitUntil(t, 5*time.Second, "the last window's report", func() bool {
		last, _ := coord.Ledger.Latest("w")
		return last >= windows
	})
	for _, rt := range rts {
		rt.Shutdown()
	}

	got := map[int64]mortar.Result{}
	rs, _ := coord.Ledger.Windows("w")
	for _, r := range rs {
		got[r.WindowIndex] = r
	}
	for k := int64(1); k <= windows; k++ {
		r, ok := got[k]
		if want := float64(2 * peers * k); !ok || r.Value != want || r.Count != peers {
			t.Errorf("Δ %v, window %d: sum %v over %d members (reported %v), want %v over %d", delta, k, r.Value, r.Count, ok, want, peers)
		}
	}
}
