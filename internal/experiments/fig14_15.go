package experiments

import (
	"fmt"
	"time"

	"repro/internal/metrics"
	"repro/internal/mortar"
	"repro/internal/netem"
	"repro/internal/tuple"
)

// rollingSeries runs a sum query and drives a failure schedule, recording
// per-second completeness, live fraction, tuple path length, and total
// network load. Each result is filed under its window's due second — the
// second its window ends — not the second the root reported it, so a row
// compares the same windows however long the root waited on them. The tables
// read completeness and path length through Series.Range: a second no window
// is due in repeats the last known value instead of printing as zero.
type rollingSeries struct {
	tb       *testbed
	compl    *metrics.Series
	hops     *metrics.Series
	lat      *metrics.Series
	liveAt   func(t time.Duration) float64
	liveHist map[int64]int
}

func startRolling(seed int64, hosts, d int) *rollingSeries {
	tb := newTestbed(seed, hosts, nil, mortar.DefaultConfig())
	rs := &rollingSeries{
		tb:       tb,
		compl:    metrics.NewSeries(time.Second),
		hops:     metrics.NewSeries(time.Second),
		lat:      metrics.NewSeries(time.Second),
		liveHist: map[int64]int{},
	}
	issued := tb.Sim.Now()
	tb.sumQuery("q", 16, d)
	tb.startSensors()
	tb.Fab.SubscribeAll(func(r mortar.Result) {
		// Normalize by the nodes that were live when the window's data was
		// produced, not when the (delayed) result arrived — otherwise a
		// failure instant reads as >100% completeness.
		due := issued + time.Duration(r.WindowIndex+1)*time.Second
		live := tb.Fab.NumPeers()
		if v, ok := rs.liveHist[int64(due/time.Second)]; ok {
			live = v
		}
		rs.compl.Add(due, metrics.Completeness(r.Count, live))
		rs.hops.Add(due, float64(r.Hops))
		rs.lat.Add(due, (r.At - due).Seconds())
	})
	tb.Sim.Every(time.Second, func() {
		rs.liveHist[int64(tb.Sim.Now()/time.Second)] = tb.Fab.LiveCount()
	})
	return rs
}

func (rs *rollingSeries) livePct(t time.Duration) float64 {
	n := rs.tb.Fab.NumPeers()
	if v, ok := rs.liveHist[int64(t/time.Second)]; ok {
		return 100 * float64(v) / float64(n)
	}
	return 100
}

// Figure14 reproduces the rolling-failures time series (§7.2.2):
// disconnect 10, 20, 30, then 40% of the nodes for 60 seconds each with
// recovery gaps, and track completeness, tuple path length, and total
// network load. The paper reports stable results ~7s after each failure,
// 4.5s average result latency, a no-failure path length equal to the tree
// height (4), and 12.5 Mbps steady-state load (3.4 Mbps heartbeats) —
// half the load of the same query without aggregation.
func Figure14(opt Options) *Table {
	hosts := 680
	levels := []int{10, 20, 30, 40}
	downFor, gap := 60*time.Second, 40*time.Second
	warm := 60 * time.Second
	if opt.Quick {
		hosts = 170
		levels = []int{20, 40}
		downFor, gap = 30*time.Second, 20*time.Second
		warm = 30 * time.Second
	}
	rs := startRolling(opt.Seed, hosts, 4)
	tb := rs.tb
	tb.Sim.RunFor(warm)
	for _, k := range levels {
		down := tb.failRandom(float64(k) / 100)
		tb.Sim.RunFor(downFor)
		for _, p := range down {
			tb.Fab.SetDown(p, false)
		}
		tb.Sim.RunFor(gap)
	}
	end := tb.Sim.Now()

	t := &Table{
		Title:   "Figure 14: rolling failures time series (10/20/30/40% down)",
		Columns: []string{"t(s)", "live%", "completeness%", "path len", "load Mbps"},
	}
	step := 10 * time.Second
	if opt.Quick {
		step = 5 * time.Second
	}
	acct := tb.Net.Accounting()
	compl, hops := rs.compl.Range(0, end, 0), rs.hops.Range(0, end, 0)
	for ts := step; ts < end; ts += step {
		t.AddRow(
			fmt.Sprintf("%.0f", ts.Seconds()),
			f1(rs.livePct(ts)),
			f1(compl[ts/time.Second]),
			f2(hops[ts/time.Second]),
			f2(acct.Mbps(ts)),
		)
	}
	steady := acct.MeanMbps(warm/2, warm)
	hb := acct.MeanMbps(warm/2, warm, netem.ClassControl)
	noAgg := noAggregationLoad(opt, hosts)
	t.Note("steady-state load %.2f Mbps, of which %.2f Mbps heartbeats (paper: 12.5 / 3.4 Mbps at 680 nodes)", steady, hb)
	t.Note("same query without in-network aggregation: %.2f Mbps (%.1fx; paper: ~2x)", noAgg, noAgg/steady)
	var lats []float64
	for ts := warm / 2; ts < end; ts += time.Second {
		if v, ok := rs.lat.At(ts); ok {
			lats = append(lats, v)
		}
	}
	t.Note("mean result latency %.1fs (paper: 4.5s)", metrics.Mean(lats))
	return t
}

// noAggregationLoad measures the same workload with a union operator,
// which collects every source tuple without reduction — the paper's
// comparison point for the value of in-network aggregation.
func noAggregationLoad(opt Options, hosts int) float64 {
	tb := newTestbed(opt.Seed+999, hosts, nil, mortar.DefaultConfig())
	meta := mortar.QueryMeta{
		Name:   "noagg",
		Seq:    1,
		OpName: "union",
		Window: tuple.WindowSpec{Kind: tuple.TimeWindow, Range: time.Second, Slide: time.Second},
		Root:   0,
	}
	def, err := tb.Fab.Compile(meta, nil, tb.Coords, 16, 4)
	if err != nil {
		panic(err)
	}
	if err := tb.Fab.Install(0, def); err != nil {
		panic(err)
	}
	for i := 0; i < hosts; i++ {
		i := i
		phase := time.Duration(tb.rng.Int63n(int64(time.Second)))
		tb.Sim.After(phase, func() {
			tb.Sim.Every(time.Second, func() {
				tb.Fab.Inject(i, tuple.Raw{Key: fmt.Sprintf("n%d", i), Vals: []float64{1}})
			})
		})
	}
	dur := 40 * time.Second
	if opt.Quick {
		dur = 20 * time.Second
	}
	tb.Sim.RunFor(dur)
	return tb.Net.Accounting().MeanMbps(dur/2, dur)
}

// Figure15 reproduces the churn experiment (§7.2.2): 10% of nodes start
// disconnected; every 10 seconds, 5% reconnect and a fresh random 5% fail.
func Figure15(opt Options) *Table {
	hosts := 680
	dur := 90 * time.Second
	if opt.Quick {
		hosts = 170
		dur = 60 * time.Second
	}
	rs := startRolling(opt.Seed, hosts, 4)
	tb := rs.tb
	tb.Sim.RunFor(20 * time.Second)
	down := tb.failRandom(0.10)
	swap := hosts / 20 // 5%
	tk := tb.Sim.Every(10*time.Second, func() {
		for i := 0; i < swap && len(down) > 0; i++ {
			tb.Fab.SetDown(down[0], false)
			down = down[1:]
		}
		down = append(down, tb.failRandom(float64(swap)/float64(hosts))...)
	})
	tb.Sim.RunFor(dur)
	tk.Stop()
	end := tb.Sim.Now()

	t := &Table{
		Title:   "Figure 15: accuracy under 10% churn (5% swapped every 10s)",
		Columns: []string{"t(s)", "live%", "completeness%", "path len"},
	}
	compl, hops := rs.compl.Range(0, end, 0), rs.hops.Range(0, end, 0)
	for ts := 5 * time.Second; ts < end; ts += 5 * time.Second {
		i := ts / time.Second
		t.AddRow(fmt.Sprintf("%.0f", ts.Seconds()), f1(rs.livePct(ts)), f1(compl[i]), f2(hops[i]))
	}
	var tail []float64
	for ts := end - 20*time.Second; ts < end; ts += time.Second {
		if v, ok := rs.compl.At(ts); ok {
			tail = append(tail, v)
		}
	}
	t.Note("mean completeness over final 20s: %.1f%% of live nodes (paper: reconnects all live nodes within each 10s round)", metrics.Mean(tail))
	return t
}
