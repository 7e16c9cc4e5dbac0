// Package experiments regenerates every data-bearing table and figure of
// the paper's evaluation (§2.1 Figure 1 and §7 Figures 9-18). Each runner
// returns a Table whose rows mirror the series the paper plots;
// EXPERIMENTS.md records paper-vs-measured values.
//
// All runners accept Options. Quick mode shrinks node counts, durations
// and trial counts so the whole suite runs in seconds (used by unit tests
// and the default `go test -bench` invocation); full mode uses the paper's
// parameters.
package experiments

import (
	"fmt"
	"io"
	"math/rand"
	"strings"
	"time"

	"repro/internal/cluster"
	"repro/internal/eventsim"
	"repro/internal/mortar"
	"repro/internal/netem"
	"repro/internal/runtime/simrt"
	"repro/internal/tuple"
	"repro/internal/vclock"
	"repro/internal/vivaldi"
)

// Options tunes experiment scale.
type Options struct {
	// Seed makes the run reproducible.
	Seed int64
	// Quick shrinks the experiment to seconds of wall-clock time.
	Quick bool
}

// Table is a printable experiment result.
type Table struct {
	Title   string
	Columns []string
	Rows    [][]string
	// Notes carries headline observations (e.g. measured ratios).
	Notes []string
}

// AddRow appends a formatted row.
func (t *Table) AddRow(cells ...string) { t.Rows = append(t.Rows, cells) }

// Note appends a headline note.
func (t *Table) Note(format string, args ...any) {
	t.Notes = append(t.Notes, fmt.Sprintf(format, args...))
}

// Print renders the table.
func (t *Table) Print(w io.Writer) {
	fmt.Fprintf(w, "\n== %s ==\n", t.Title)
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	printRow := func(cells []string) {
		var b strings.Builder
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		fmt.Fprintln(w, strings.TrimRight(b.String(), " "))
	}
	printRow(t.Columns)
	printRow(dashes(widths))
	for _, row := range t.Rows {
		printRow(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(w, "note: %s\n", n)
	}
}

func dashes(widths []int) []string {
	out := make([]string, len(widths))
	for i, w := range widths {
		out[i] = strings.Repeat("-", w)
	}
	return out
}

func f1(v float64) string { return fmt.Sprintf("%.1f", v) }
func f2(v float64) string { return fmt.Sprintf("%.2f", v) }

// testbed bundles an emulated federation plus Vivaldi coordinates for
// planning.
type testbed struct {
	Sim    *eventsim.Sim
	Net    *netem.Network
	Fab    *mortar.Fabric
	Coords []cluster.Point
	rng    *rand.Rand
}

// newTestbed builds the paper topology with the given host count, runs
// Vivaldi for at least ten rounds over the emulated latencies (§7.3), and
// returns a ready fabric.
func newTestbed(seed int64, hosts int, clocks []vclock.Clock, cfg mortar.Config) *testbed {
	sim := eventsim.New(seed)
	rng := rand.New(rand.NewSource(seed))
	topo := netem.GenerateTransitStub(netem.PaperTopology(hosts), rng)
	net := netem.New(sim, topo)
	fab, err := mortar.NewFabric(simrt.New(net, clocks...), cfg)
	if err != nil {
		panic(err)
	}
	tb := &testbed{Sim: sim, Net: net, Fab: fab, rng: rng}
	tb.Coords = vivaldiCoords(net, rng)
	return tb
}

// vivaldiCoords embeds the topology's hosts with Vivaldi (the paper runs
// "at least ten rounds before interconnecting operators"; we run a few
// more to keep the embedding error well below the inter-site latency
// spread the planner exploits).
func vivaldiCoords(net *netem.Network, rng *rand.Rand) []cluster.Point {
	hosts := net.Topology().Hosts()
	sys := vivaldi.NewSystem(len(hosts), rng)
	sys.Run(30, 12, func(i, j int) time.Duration {
		return net.Latency(hosts[i], hosts[j])
	})
	out := make([]cluster.Point, len(hosts))
	for i, c := range sys.Coordinates() {
		out[i] = cluster.Point(c)
	}
	return out
}

// sumQuery installs the §7.2 microbenchmark: a sum with a one-second
// range-equals-slide window counting peers, plus 1/s sensors.
func (tb *testbed) sumQuery(name string, bf, d int) *mortar.QueryDef {
	meta := mortar.QueryMeta{
		Name:   name,
		Seq:    1,
		OpName: "sum",
		Window: tuple.WindowSpec{Kind: tuple.TimeWindow, Range: time.Second, Slide: time.Second},
		Root:   0,
	}
	def, err := tb.Fab.Compile(meta, nil, tb.Coords, bf, d)
	if err != nil {
		panic(err)
	}
	if err := tb.Fab.Install(0, def); err != nil {
		panic(err)
	}
	return def
}

// startSensors drives one value-1 tuple per second per peer, phase
// jittered.
func (tb *testbed) startSensors() {
	for i := 0; i < tb.Fab.NumPeers(); i++ {
		i := i
		phase := time.Duration(tb.rng.Int63n(int64(time.Second)))
		tb.Sim.After(phase, func() {
			tb.Sim.Every(time.Second, func() {
				tb.Fab.Inject(i, tuple.Raw{Vals: []float64{1}})
			})
		})
	}
}

// randomCoords returns uniform planner coordinates for planner-only
// studies that do not need a network.
func randomCoords(n int, rng *rand.Rand) []cluster.Point {
	out := make([]cluster.Point, n)
	for i := range out {
		out[i] = cluster.Point{rng.Float64() * 100, rng.Float64() * 100, rng.Float64() * 100}
	}
	return out
}

// failRandom disconnects frac of the peers (never the root) and returns
// them.
func (tb *testbed) failRandom(frac float64) []int {
	n := tb.Fab.NumPeers()
	want := int(frac * float64(n))
	var down []int
	for len(down) < want {
		p := 1 + tb.rng.Intn(n-1)
		if !tb.Fab.Down(p) {
			tb.Fab.SetDown(p, true)
			down = append(down, p)
		}
	}
	return down
}
