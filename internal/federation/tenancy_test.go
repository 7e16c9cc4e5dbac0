package federation

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/eventsim"
	"repro/internal/mortar"
	"repro/internal/msl"
	"repro/internal/netem"
	"repro/internal/runtime/livert"
	"repro/internal/runtime/simrt"
	"repro/internal/tuple"
	"repro/internal/wire"
)

// countStatements builds an MSL program of q identical count queries.
func countStatements(q, trees, bf int) string {
	var b strings.Builder
	for i := 0; i < q; i++ {
		fmt.Fprintf(&b, "query q%02d as count() from sensors window time 1s slide 1s trees %d bf %d\n", i, trees, bf)
	}
	return b.String()
}

// The multi-tenant lifecycle under real concurrency: ~32 queries
// installed from parallel goroutines over one livert mesh, replanned and
// removed while the rest keep running. Every surviving query must reach
// and hold full completeness, every removed query must stop reporting and
// drain. Run under -race by the tier-1 suite.
func TestConcurrentQueryLifecycle(t *testing.T) {
	const peers = 8
	const installs = 32
	cfg := mortar.DefaultConfig()
	cfg.HeartbeatPeriod = 50 * time.Millisecond
	cfg.MinTimeout = 20 * time.Millisecond
	cfg.MaxTimeout = 2 * time.Second
	rt := livert.New(peers, livert.Options{Seed: 21, MinDelay: time.Millisecond, MaxDelay: 5 * time.Millisecond})
	defer rt.Shutdown()
	fed, err := NewRuntimeCfg(rt, nil, rand.New(rand.NewSource(21)), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got := fed.QueryCount(); got != 0 {
		t.Fatalf("nil program installed %d queries", got)
	}

	// Completeness watch: per query, the best count per window.
	var mu sync.Mutex
	winMax := map[string]map[int64]int{}
	lastFull := map[string]time.Time{}
	fed.Fab.SubscribeAll(func(r mortar.Result) {
		mu.Lock()
		if winMax[r.Query] == nil {
			winMax[r.Query] = map[int64]int{}
		}
		if r.Count > winMax[r.Query][r.WindowIndex] {
			winMax[r.Query][r.WindowIndex] = r.Count
		}
		if r.Count == peers {
			lastFull[r.Query] = time.Now()
		}
		mu.Unlock()
	})
	fed.StartSensors(250*time.Millisecond, func(int) tuple.Raw {
		return tuple.Raw{Vals: []float64{1}}
	}, rand.New(rand.NewSource(23)))

	spec := func(name string) QuerySpec {
		return QuerySpec{
			Name: name, Op: "count",
			Window: tuple.WindowSpec{Kind: tuple.TimeWindow, Range: 250 * time.Millisecond, Slide: 250 * time.Millisecond},
			Trees:  2, BF: 4,
		}
	}

	// Parallel installs.
	var wg sync.WaitGroup
	errs := make(chan error, installs)
	for i := 0; i < installs; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if err := fed.InstallQuery(spec(fmt.Sprintf("q%02d", i))); err != nil {
				errs <- err
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if got := fed.QueryCount(); got != installs {
		t.Fatalf("installed %d queries, want %d", got, installs)
	}

	// Every query reaches full completeness.
	waitCond(t, 20*time.Second, "all queries at full completeness", func() bool {
		mu.Lock()
		defer mu.Unlock()
		full := 0
		for i := 0; i < installs; i++ {
			if !lastFull[fmt.Sprintf("q%02d", i)].IsZero() {
				full++
			}
		}
		return full == installs
	})

	// Churn: replan a batch, remove a batch, install fresh queries — all
	// concurrently over the same mesh.
	removed := map[string]bool{}
	for i := 0; i < 8; i++ {
		removed[fmt.Sprintf("q%02d", i)] = true
	}
	for i := 0; i < 8; i++ {
		wg.Add(3)
		go func(i int) {
			defer wg.Done()
			if err := fed.RemoveQuery(fmt.Sprintf("q%02d", i)); err != nil {
				errs := fmt.Errorf("remove q%02d: %w", i, err)
				t.Error(errs)
			}
		}(i)
		go func(i int) {
			defer wg.Done()
			// ErrNoImprovement is a legitimate outcome: the deployed plan
			// is already as good as the candidates.
			if _, err := fed.Replan(fmt.Sprintf("q%02d", 8+i)); err != nil && !errors.Is(err, ErrNoImprovement) {
				t.Errorf("replan q%02d: %v", 8+i, err)
			}
		}(i)
		go func(i int) {
			defer wg.Done()
			if err := fed.InstallQuery(spec(fmt.Sprintf("x%02d", i))); err != nil {
				t.Errorf("install x%02d: %v", i, err)
			}
		}(i)
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}
	if got, want := fed.QueryCount(), installs-8+8; got != want {
		t.Fatalf("query count after churn: %d, want %d", got, want)
	}

	// Survivors and newcomers reach full completeness again after the
	// churn; removed queries stop reporting and drain everywhere.
	churnAt := time.Now()
	waitCond(t, 20*time.Second, "post-churn completeness", func() bool {
		// Queries() enters peer serialization domains, so it must not be
		// called under mu — the result callback takes mu from peer 0's
		// domain.
		sts := fed.Queries()
		mu.Lock()
		defer mu.Unlock()
		for _, st := range sts {
			if lastFull[st.Name].Before(churnAt) {
				return false
			}
		}
		return len(sts) == installs
	})
	waitCond(t, 20*time.Second, "removed queries drained", func() bool {
		for name := range removed {
			if installed, _ := fed.Fab.Counts(name, wire.AllEpochs); installed > 0 {
				return false
			}
		}
		return true
	})
	mu.Lock()
	quietAt := map[string]time.Time{}
	for name := range removed {
		quietAt[name] = lastFull[name]
	}
	mu.Unlock()
	time.Sleep(time.Second)
	mu.Lock()
	defer mu.Unlock()
	for name := range removed {
		if lastFull[name] != quietAt[name] {
			t.Fatalf("removed query %s still reporting", name)
		}
	}
}

// measureSteadyControl builds a Q-query federation over the deterministic
// simulator, lets it settle, and returns the steady-state control bytes
// transmitted per peer per simulated second.
func measureSteadyControl(t *testing.T, queries, hosts int) float64 {
	t.Helper()
	prog, err := msl.Parse(countStatements(queries, 4, 4))
	if err != nil {
		t.Fatal(err)
	}
	sim := eventsim.New(31)
	rng := rand.New(rand.NewSource(31))
	p := netem.PaperTopology(hosts)
	p.Stubs = 6
	p.Transits = 2
	topo := netem.GenerateTransitStub(p, rng)
	net := netem.New(sim, topo)
	fed, err := NewRuntime(simrt.New(net), prog, rng)
	if err != nil {
		t.Fatal(err)
	}
	fed.StartSensors(time.Second, func(int) tuple.Raw { return tuple.Raw{Vals: []float64{1}} }, rng)
	const settle = 30 * time.Second
	const window = 60 * time.Second
	sim.RunUntil(settle)
	before := fed.Fab.Stats.ControlBytes.Load()
	sim.RunUntil(settle + window)
	delta := fed.Fab.Stats.ControlBytes.Load() - before
	return float64(delta) / float64(hosts) / window.Seconds()
}

// The paper's sharing argument (Fig 13), deterministically: 64 queries
// over one mesh must cost far less control traffic than 64 meshes would.
// The heartbeat union saturates at the complete graph, so steady-state
// control bytes/peer at 64 queries stays under 8x the single-query figure
// — the acceptance bound for the sub-linear curve.
func TestControlBytesSubLinear(t *testing.T) {
	const hosts = 16
	one := measureSteadyControl(t, 1, hosts)
	many := measureSteadyControl(t, 64, hosts)
	if one <= 0 {
		t.Fatalf("no control traffic measured at 1 query")
	}
	ratio := many / one
	t.Logf("control bytes/peer/s: 1 query = %.1f, 64 queries = %.1f, ratio = %.2f", one, many, ratio)
	if ratio >= 8 {
		t.Fatalf("control traffic ratio %.2f at 64 queries; sharing curve must stay under 8x", ratio)
	}
}
