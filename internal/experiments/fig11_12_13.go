package experiments

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/metrics"
	"repro/internal/mortar"
	"repro/internal/plan"
	"repro/internal/wire"
)

// Figure11 measures query installation rate and coverage while a fraction
// of the node set is unreachable (§7.1): install across all peers with 16
// chunks, reconnect the failed peers after 30 seconds, and let pair-wise
// reconciliation (every third heartbeat) finish the job.
func Figure11(opt Options) *Table {
	hosts := 680
	if opt.Quick {
		hosts = 200
	}
	fails := []int{0, 10, 20, 30, 40}
	samples := []int{2, 5, 10, 15, 20, 25, 30, 35, 40, 50, 60}
	series := make(map[int][]float64)
	var cov40at29 float64
	for _, k := range fails {
		tb := newTestbed(opt.Seed+int64(k), hosts, nil, mortar.DefaultConfig())
		tb.failRandom(float64(k) / 100)
		tb.sumQuery("q", 16, 4)
		var vals []float64
		for _, s := range samples {
			tb.Sim.RunUntil(time.Duration(s) * time.Second)
			if s <= 30 {
				// reconnect everything at the 30 second mark (paper setup)
				if s == 30 {
					for p := 0; p < hosts; p++ {
						tb.Fab.SetDown(p, false)
					}
				}
			}
			installed, _ := tb.Fab.Counts("q", wire.AllEpochs)
			cov := 100 * float64(installed) / float64(hosts)
			vals = append(vals, cov)
			if k == 40 && s == 25 {
				cov40at29 = cov
			}
		}
		series[k] = vals
	}
	t := &Table{
		Title:   "Figure 11: % of nodes installed vs time (reconnect at 30s)",
		Columns: []string{"t(s)", "no failures", "10% failed", "20% failed", "30% failed", "40% failed"},
	}
	for i, s := range samples {
		row := []string{fmt.Sprintf("%d", s)}
		for _, k := range fails {
			row = append(row, f1(series[k][i]))
		}
		t.AddRow(row...)
	}
	t.Note("coverage with 40%% down before reconnect: %.1f%% of all nodes (paper: 54.5%%)", cov40at29)
	return t
}

// Figure12 measures steady-state completeness as a function of the
// percentage of disconnected nodes, for tree set sizes 1-5 (§7.2.1).
func Figure12(opt Options) *Table {
	hosts := 680
	treeSets := []int{1, 2, 3, 4, 5}
	fails := []int{0, 10, 20, 30, 40, 60, 80}
	warm, run := 20*time.Second, 50*time.Second
	if opt.Quick {
		hosts = 170
		treeSets = []int{1, 2, 4}
		fails = []int{0, 20, 40}
	}
	results := map[[2]int]float64{}
	var d4at40 float64
	for _, d := range treeSets {
		for _, k := range fails {
			tb := newTestbed(opt.Seed+int64(d*100+k), hosts, nil, mortar.DefaultConfig())
			tb.sumQuery("q", 16, d)
			tb.startSensors()
			var lastCounts []float64
			tb.Fab.SubscribeAll(func(r mortar.Result) {
				if tb.Sim.Now() > warm+run/2 {
					lastCounts = append(lastCounts, float64(r.Count))
				}
			})
			tb.Sim.RunFor(warm)
			tb.failRandom(float64(k) / 100)
			tb.Sim.RunFor(run)
			live := tb.Fab.LiveCount()
			results[[2]int{d, k}] = metrics.Completeness(int(metrics.Mean(lastCounts)), live)
			if d == 4 && k == 40 {
				d4at40 = results[[2]int{d, k}]
			}
		}
	}
	t := &Table{
		Title:   "Figure 12: completeness (% of live nodes) vs % failed nodes",
		Columns: []string{"fail%", "optimal"},
	}
	for _, d := range treeSets {
		t.Columns = append(t.Columns, fmt.Sprintf("%d tree(s)", d))
	}
	for _, k := range fails {
		row := []string{fmt.Sprintf("%d", k), "100.0"}
		for _, d := range treeSets {
			row = append(row, f1(results[[2]int{d, k}]))
		}
		t.AddRow(row...)
	}
	t.Note("4 trees at 40%% failures: %.1f%% of remaining live nodes (paper: 94%%)", d4at40)
	return t
}

// Figure13 measures heartbeat overhead scaling: the number of unique
// children a node must heartbeat as queries (each sourcing all peers) are
// added, for 1, 2 and 4 trees per query (§7.2.1). Heartbeats are shared
// across queries and sibling trees, so growth is sub-linear.
func Figure13(opt Options) *Table {
	sizes := []int{25, 50, 100, 150, 200}
	if opt.Quick {
		sizes = []int{10, 25, 50}
	}
	t := &Table{
		Title:   "Figure 13: mean unique heartbeat children per node vs #queries (= nodes per query)",
		Columns: []string{"queries", "N (y=x)", "1 tree", "2 trees", "4 trees"},
	}
	rng := rand.New(rand.NewSource(opt.Seed))
	for _, n := range sizes {
		coords := randomCoords(n, rng)
		row := []string{fmt.Sprintf("%d", n), fmt.Sprintf("%d", n)}
		for _, d := range []int{1, 2, 4} {
			var sets []*plan.Set
			for q := 0; q < n; q++ {
				sets = append(sets, plan.Build(coords, q, 16, d, rng))
			}
			kids := plan.UniqueChildren(sets)
			var sum float64
			for _, k := range kids {
				sum += float64(k)
			}
			row = append(row, f1(sum/float64(n)))
		}
		t.AddRow(row...)
	}
	t.Note("adding a sibling (2 trees) roughly doubles a single tree; 4 trees adds ~50%% over 2 (paper §7.2.1)")
	return t
}
