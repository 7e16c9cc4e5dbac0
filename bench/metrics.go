package main

import (
	"fmt"
	"math"
	"sort"
	"time"

	"repro/bench/measure"
	"repro/internal/mortar"
)

// layout is what the run learned about the deployed overlay before it was
// shut down: the configuration in force and the primary tree's shape as
// the transport measured it.
type layout struct {
	cfg mortar.Config
	// flightMs is the summed measured one-way latency along the primary
	// tree path of a peer at the median depth (the median such peer).
	flightMs float64
	// rttErrMs is the median |measured − injected| one-way delay over the
	// primary tree's edges.
	rttErrMs float64
	// depth is the median peer's level in the primary tree: the number of
	// operators a typical contribution passes on its way to the root.
	depth int
}

func (f *fedn) layout() layout {
	l := layout{cfg: f.fed.Fab.Cfg}
	t := f.primaryTree()
	if t == nil {
		return l
	}
	oneWay := func(a, b int) float64 {
		if f.net == nil {
			return 0.125 // livert's uniform 50-200 µs draw
		}
		d, _ := f.net.Measured(a, b)
		return float64(d.Nanoseconds()) / 1e6
	}
	depths := make([]float64, 0, len(t.Level))
	for p := range t.Level {
		if p != t.Root {
			depths = append(depths, float64(t.Level[p]))
		}
	}
	mid := int(measure.Median(depths))
	var paths, errs []float64
	for p := range t.Parent {
		if pa := t.Parent[p]; pa >= 0 && f.topo != nil {
			truth := float64(f.topo.delay(p, pa).Nanoseconds()) / 1e6
			errs = append(errs, math.Abs(oneWay(p, pa)-truth))
		}
		if t.Level[p] != mid {
			continue
		}
		sum := 0.0
		for q := p; t.Parent[q] >= 0; q = t.Parent[q] {
			sum += oneWay(q, t.Parent[q])
		}
		paths = append(paths, sum)
	}
	l.flightMs, l.rttErrMs, l.depth = measure.Median(paths), measure.Median(errs), mid
	return l
}

// ingestSatFloors are ingest-sat's output-check floors: its root is itself
// saturated, so they are the committed baseline (bench/baseline/: all three
// ratios 1.00 to two places) less 0.05 for mass and completeness and less
// the metric's bound for windows delivered, rather than the lossless
// workloads' fixed ones. The worst of fifty runs read 0.987, 0.998 and 0.970.
var ingestSatFloors = struct{ mass, completeness, delivered float64 }{mass: 0.95, completeness: 0.95, delivered: 0.90}

// massExcess is how far delivered value mass may exceed what was offered
// before the run is called double counting. It is not zero because of a
// defect this benchmark found and cannot fix from bench/: a raw tuple that
// arrives after a slide boundary but before the peer's close timer fires
// is counted in both windows. The open-loop generator keeps its ticks clear
// of the boundaries (see tickGrid) and the closed loop cannot, which reads
// 1.000 and 1.002; but a stall of the box undoes the alignment for the rest
// of a federation's life (one sketch-wan run in 200 read 1.0099 after a
// 1.8 s stall), and unaligned ticks read 1.03. The allowance covers that.
const massExcess = 0.05

// maxGenLateMs voids an open-loop run in which more than a tenth of the
// ticks were offered this late: the schedule run was not the one stated.
// The 99th percentile is reported but not gated: this box stalls whole
// processes for tens of milliseconds a few times a minute.
const maxGenLateMs = 5

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// partReport is one measured federation's figures. An operation is one
// per-window result delivered and checked: attempted counts them, failed
// those that broke an invariant (validResult); due is how many windows the
// delivered ones span, gaps included.
type partReport struct {
	e2e, layer             map[string]measure.Metric
	attempted, failed, due int
	latency                []float64 // result latency samples, ms
	late                   []float64 // how late each tick of the span was offered, ms
}

// validResult checks one root report against what must hold of any result
// however loaded or degraded the federation is: at least one peer
// contributed, and a sum over unit masses is a whole number, not negative.
// That no more peers contributed than there are does not hold: syncless
// re-indexing by age can put two consecutive windows of one peer into the
// same window at a saturated root (ingest-sat shows counts of 9 from 8
// peers; completeness caps such a window at 1).
func validResult(sp *spec, r obsRec) bool {
	if r.count < 1 {
		return false
	}
	if sp.tenants[r.tenant].op == "sum" && r.hasValue {
		return r.value >= 0 && r.value == math.Trunc(r.value)
	}
	return true
}

// report turns one federation's observations into both metric sets and its
// operation counts.
func (m *measured) report(epoch time.Time) partReport {
	var attempted, failed, due int
	sp := m.sp
	span := m.end.at.Sub(m.begin.at)
	spanS := span.Seconds()
	windows := spanS / sp.window.Seconds()
	inSpan := func(t time.Time) bool { return !t.Before(m.begin.at) && !t.After(m.end.at) }

	// The reader's view of lat, joined to the root's by window. Lines for
	// windows the root reported before the stream opened are cache replay
	// and are discarded.
	latIdx := -1
	for i, t := range sp.tenants {
		if t.name == latName {
			latIdx = i
		}
	}
	lines := firstLines(m.lines)
	var latency, reportLag, fanout, ages, hops []float64
	accounts := make([]measure.Account, len(sp.tenants))
	for i := range accounts {
		accounts[i].Expect = int(windows)
	}
	streamDropped := 0
	for _, r := range m.obs {
		if !inSpan(r.t1) {
			continue
		}
		ages = append(ages, ms(r.age))
		live := m.truth.at(r.t1)
		if r.tenant != latIdx {
			accounts[r.tenant].Deliver(r.window, r.count, live, validResult(sp, r))
			continue
		}
		hops = append(hops, float64(r.hops))
		line, ok := lines[r.window]
		if !ok {
			if r.t1.After(m.opened) {
				streamDropped++
			}
			continue
		}
		// t0 comes from the line the client read, not from the observer:
		// the latency is of what a user of the stream actually received.
		// The line must say what the root reported, and no window can hold
		// an event stamped after the window was reported.
		t0 := epoch.Add(time.Duration(line.value * 1e3))
		valid := validResult(sp, r) && line.has == r.hasValue && (!line.has || (line.value == r.value && !t0.After(r.t1)))
		accounts[r.tenant].Deliver(r.window, r.count, live, valid)
		if !line.has {
			continue // no stamped tuple reached this window
		}
		latency = append(latency, ms(line.t2.Sub(t0)))
		reportLag = append(reportLag, ms(r.t1.Sub(t0)))
		fanout = append(fanout, ms(line.t2.Sub(r.t1)))
	}
	var ratioSum float64
	var ratioN int
	for i := range accounts {
		attempted += accounts[i].Delivered()
		failed += accounts[i].Invalid()
		due += accounts[i].Due()
		s, n := accounts[i].Completeness()
		ratioSum, ratioN = ratioSum+s, ratioN+n
	}
	completeness := ratio(ratioSum, float64(ratioN))
	mass := ratio(m.massOut, float64(m.massIn)*float64(len(sp.sumTenants())))

	var totals []float64
	for _, s := range m.setups {
		totals = append(totals, s.total.Seconds())
	}
	lat := measure.Summarize(latency)
	age := measure.Summarize(ages)
	d := func(a, b uint64) float64 { return float64(b - a) }
	wireBytes := d(m.begin.wireCtl, m.end.wireCtl) + d(m.begin.wireData, m.end.wireData)
	if !sp.udp {
		wireBytes = d(m.begin.fab.ctl, m.end.fab.ctl) + d(m.begin.fab.data, m.end.fab.data)
	}

	// One-second ingest rates over the span; their median shrugs off the
	// odd stall a shared box imposes.
	var rates []float64
	perSecond := int(time.Second / sampleEvery)
	for i := perSecond; i < len(m.samples); i += perSecond {
		a, b := m.samples[i-perSecond], m.samples[i]
		rates = append(rates, float64(b.tuples-a.tuples)/b.at.Sub(a.at).Seconds())
	}
	if len(rates) == 0 {
		rates = []float64{d(m.begin.tuples, m.end.tuples) / spanS}
	}

	e2e := map[string]measure.Metric{
		"setup_s":                    {Value: measure.Median(totals), Unit: "s", N: len(totals)},
		"result_latency_ms_p50":      {Value: lat.P50, Unit: "ms", N: lat.N},
		"result_age_ms_p50":          {Value: age.P50, Unit: "ms", N: age.N},
		"completeness_ratio":         {Value: completeness, Unit: "ratio", N: ratioN},
		"mass_delivered_ratio":       {Value: mass, Unit: "ratio"},
		"windows_delivered_ratio":    {Value: ratio(float64(attempted), float64(due)), Unit: "ratio", N: due},
		"ingest_tuples_per_s":        {Value: measure.Median(rates), Unit: "1/s", N: len(rates)},
		"wire_bytes_per_peer_window": {Value: wireBytes / float64(sp.peers) / windows, Unit: "B"},
		"rss_mb":                     {Value: m.heldMB, Unit: "MB"},
	}

	var late []float64
	for _, s := range m.late {
		if inSpan(s.at) {
			late = append(late, s.ms)
		}
	}

	// Per-layer rows.
	b, e := m.begin, m.end
	summaries := d(b.fab.staged, e.fab.staged)
	if summaries == 0 {
		summaries = d(b.fab.frames, e.fab.frames)
	}
	fanoutD := measure.Summarize(fanout)
	set := medianSetup(m.setups)
	layer := map[string]measure.Metric{}
	put := func(name string, v float64, n int) {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		layer[name] = measure.Metric{Value: v, N: n}
	}
	put("workload.offered_tuples_per_s", d(b.tuples, e.tuples)/spanS, 0)
	put("workload.inject_call_ns_per_tuple", ratio(float64(m.callNs), float64(m.callTup)), int(m.callTup))
	put("mortar.ingest_tuples", d(b.fab.tuples, e.fab.tuples), 0)
	put("mortar.ingest_batches", d(b.fab.batches, e.fab.batches), 0)
	put("mortar.batch_factor", ratio(d(b.fab.tuples, e.fab.tuples), d(b.fab.batches, e.fab.batches)), 0)
	put("mortar.report_lag_ms_p50", measure.Median(reportLag), len(reportLag))
	put("mortar.report_lag_ms_p90", measure.PercentileOf(reportLag, 90), len(reportLag))
	put("mortar.result_age_ms_p90", measure.PercentileOf(ages, 90), len(ages))
	put("mortar.result_hops_p50", measure.Median(hops), len(hops))
	put("mortar.late_at_root_ratio", ratio(d(b.fab.late, e.fab.late), summaries), 0)
	put("mortar.relayed_ratio", ratio(d(b.fab.relayed, e.fab.relayed), summaries), 0)
	put("mortar.dropped", d(b.fab.dropped, e.fab.dropped), 0)
	put("mortar.flexdown_hops", d(b.fab.flexDown, e.fab.flexDown), 0)
	put("mortar.stage.staged", d(b.fab.staged, e.fab.staged), 0)
	put("mortar.stage.coalesced", d(b.fab.coalesced, e.fab.coalesced), 0)
	put("mortar.stage.coalesce_ratio", ratio(d(b.fab.coalesced, e.fab.coalesced), d(b.fab.staged, e.fab.staged)), 0)
	put("mortar.stage.batch_frames", d(b.fab.bFrames, e.fab.bFrames), 0)
	put("mortar.stage.summaries_per_frame", ratio(d(b.fab.staged, e.fab.staged)-d(b.fab.coalesced, e.fab.coalesced), d(b.fab.frames, e.fab.frames)), 0)
	put("mortar.data_frames_per_window", d(b.fab.frames, e.fab.frames)/windows, 0)
	put("mortar.data_bytes_per_window", d(b.fab.data, e.fab.data)/windows, 0)
	put("mortar.ctl_bytes_per_peer_s", d(b.fab.ctl, e.fab.ctl)/float64(sp.peers)/spanS, 0)
	put("mortar.shared_ctl_share", ratio(d(b.fab.shared, e.fab.shared), d(b.fab.ctl, e.fab.ctl)), 0)
	put("tslist.inserts", d(b.dp[0], e.dp[0]), 0)
	put("tslist.merges", d(b.dp[1], e.dp[1]), 0)
	put("tslist.merge_ratio", ratio(d(b.dp[1], e.dp[1]), d(b.dp[0], e.dp[0])), 0)
	frames := d(b.net.CtlFrames, e.net.CtlFrames) + d(b.net.DataFrames, e.net.DataFrames)
	put("netrt.datagrams", d(b.net.Datagrams, e.net.Datagrams), 0)
	put("netrt.frames_per_datagram", ratio(frames, d(b.net.Datagrams, e.net.Datagrams)), 0)
	put("netrt.data_frames", d(b.net.DataFrames, e.net.DataFrames), 0)
	put("netrt.ctl_frames", d(b.net.CtlFrames, e.net.CtlFrames), 0)
	put("netrt.send_drop_ratio", ratio(d(b.netDrop, e.netDrop), d(b.netSent, e.netSent)), 0)
	put("netrt.frag_streams", d(b.frag.StreamsSent, e.frag.StreamsSent), 0)
	put("netrt.retransmits", d(b.frag.Retransmits, e.frag.Retransmits), 0)
	put("netrt.nacks", d(b.frag.NacksSent, e.frag.NacksSent), 0)
	put("netrt.reasm_evicted", d(b.frag.ReassemblyEvicted, e.frag.ReassemblyEvicted), 0)
	put("netrt.rtt_error_ms_p50", m.lay.rttErrMs, 0)
	put("livert.sent", d(b.liveSent, e.liveSent), 0)
	put("livert.dropped", d(b.liveDrop, e.liveDrop), 0)
	put("netrt.group_build_ms", ms(set.groupBuild), 0)
	put("netrt.gossip_ms", ms(set.gossip), 0)
	put("federation.open_ms", ms(set.open), 0)
	put("plan.compile_ms", m.planMs, 1)
	put("federation.install_ms", ms(set.install), 0)
	put("federation.wired_ms", ms(set.wired), 0)
	put("federation.first_window_ms", ms(set.firstWindow), 0)
	put("gateway.fanout_lag_ms_p50", fanoutD.P50, fanoutD.N)
	put("gateway.fanout_lag_ms_p90", measure.PercentileOf(fanout, 90), fanoutD.N)
	put("gateway.stream_dropped", float64(streamDropped), 0)
	put("gateway.install_http_ms", ms(set.httpInstall), 0)
	put("chaos.actions_applied", float64(m.applied), 0)
	put("chaos.live_min", float64(m.truth.min()), 0)
	put("process.cpu_cores_used", (m.end.cpu-m.begin.cpu).Seconds()/spanS, 0)
	put("process.peak_rss_mb", peakRSSMB(), 0)
	put("trace.result_latency_ms_p50", lat.P50, lat.N)
	put("budget.flight_ms", m.lay.flightMs, 0)
	return partReport{e2e: e2e, layer: layer, attempted: attempted, failed: failed, due: due, latency: latency, late: late}
}

// middle is the median of an odd number of values and the mean of the two
// central ones of an even number (churn-lossy measures two federations).
func middle(vals []float64) float64 {
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	return (s[(len(s)-1)/2] + s[len(s)/2]) / 2
}

// report joins the run's measured federations into the figures it prints:
// every metric is the median of the federations' values (sample counts
// add up), the tail latency and the generator's lateness are taken over
// their pooled samples, the probes
// and the budget are the run's own; then the output checks are made on the
// joined figures.
func (r *runResult) report(epoch time.Time) (e2e, layer map[string]measure.Metric, attempted, failed int, checks []measure.Check) {
	sp := r.sp
	var parts []partReport
	var pooled, late []float64
	due := 0
	quietHit := false
	for _, m := range r.parts {
		m.setups = r.setups
		pr := m.report(epoch)
		parts = append(parts, pr)
		pooled = append(pooled, pr.latency...)
		late = append(late, pr.late...)
		attempted, failed, due = attempted+pr.attempted, failed+pr.failed, due+pr.due
		quietHit = quietHit || m.quietHit
	}
	join := func(pick func(partReport) map[string]measure.Metric) map[string]measure.Metric {
		out := map[string]measure.Metric{}
		for name, first := range pick(parts[0]) {
			var vals []float64
			n := 0
			for _, pr := range parts {
				vals, n = append(vals, pick(pr)[name].Value), n+pick(pr)[name].N
			}
			first.Value, first.N = middle(vals), n
			out[name] = first
		}
		return out
	}
	e2e = join(func(pr partReport) map[string]measure.Metric { return pr.e2e })
	e2e["setup_s"] = parts[0].e2e["setup_s"] // the run's set-ups, not one per part
	// Missing windows are few, so their share is taken over all the run's
	// windows rather than as the median of three shares that are mostly 1.
	e2e["windows_delivered_ratio"] = measure.Metric{Value: ratio(float64(attempted), float64(due)), Unit: "ratio", N: due}
	layer = join(func(pr partReport) map[string]measure.Metric { return pr.layer })
	put := func(name string, v float64, n int) { layer[name] = measure.Metric{Value: v, N: n} }

	for _, name := range []string{"netrt.group_build_ms", "netrt.gossip_ms", "federation.open_ms", "federation.install_ms",
		"federation.wired_ms", "federation.first_window_ms", "gateway.install_http_ms"} {
		put(name, layer[name].Value, len(r.setups)) // rows of the run's median set-up
	}
	// The generator's lateness is taken over all the run's ticks: a stall
	// of the box that makes one federation's ticks late voids the run only
	// if a tenth of all its ticks were.
	put("workload.gen_late_ms_p50", measure.Median(late), len(late))
	put("workload.gen_late_ms_p90", measure.PercentileOf(late, 90), len(late))
	put("workload.gen_late_ms_p99", measure.PercentileOf(late, 99), len(late))
	tail := measure.Summarize(pooled)
	layer["result_latency_ms_tail"] = measure.Metric{Value: tail.Tail, N: tail.N, Note: fmt.Sprintf("p%g", tail.TailP)}
	lay := r.parts[0].lay
	levels := float64(lay.depth)
	budget := map[string]float64{
		"budget.timer_floor_ms": levels * ms(lay.cfg.MinTimeout+lay.cfg.TimeoutSlack),
		"budget.flight_ms":      layer["budget.flight_ms"].Value,
		"budget.hold_ms":        levels * ms(lay.cfg.SummaryHold),
		"budget.gateway_ms":     layer["gateway.fanout_lag_ms_p50"].Value,
	}
	if r.probes != nil {
		spans := r.rec.Spans()
		mailbox, echo := measure.DurationsMs(spans, "actor.probe"), measure.DurationsMs(spans, "netrt.echo")
		stats := measure.DurationsMs(spans, "gateway.stats")
		put("actor.mailbox_wait_ms_p50", measure.Median(mailbox), len(mailbox))
		put("actor.mailbox_wait_ms_p90", measure.PercentileOf(mailbox, 90), len(mailbox))
		put("netrt.echo_flight_ms_p50", measure.Median(echo), len(echo))
		put("netrt.echo_flight_ms_p90", measure.PercentileOf(echo, 90), len(echo))
		put("gateway.stats_ms", measure.Median(stats), len(stats))
		for name, v := range r.probes.micro {
			put(name, v, 0)
		}
		budget["budget.mailbox_ms"] = levels * measure.Median(mailbox)
		put("trace.spans", float64(len(spans)), 0)
	}
	residual := layer["trace.result_latency_ms_p50"].Value
	for name, v := range budget {
		put(name, v, 0)
		residual -= v
	}
	put("budget.residual_ms", residual, 0)
	for _, spec := range perLayer {
		mt := layer[spec.Name] // rows a workload does not exercise report 0
		mt.Unit = spec.Unit
		layer[spec.Name] = mt
	}

	// Output checks, on the joined figures.
	check := func(name string, ok bool, format string, args ...any) {
		checks = append(checks, measure.Check{Name: name, OK: ok, Detail: fmt.Sprintf(format, args...)})
	}
	mass, completeness := e2e["mass_delivered_ratio"].Value, e2e["completeness_ratio"].Value
	delivered := e2e["windows_delivered_ratio"].Value
	check("results-valid", failed == 0, "%d of %d delivered windows broke an invariant", failed, attempted)
	check("no-double-counting", mass <= 1+massExcess, "mass_delivered_ratio %.6f <= %.2f", mass, 1+massExcess)
	check("latency-sampled", len(pooled) > 0, "%d result latency samples", len(pooled))
	check("quiet-points-reached", !quietHit || sp.churn, "mass accounted between two quiet points (cap hit: %v)", quietHit)
	switch {
	case sp.closedLoop:
		check("mass-floor", mass >= ingestSatFloors.mass, "mass_delivered_ratio %.4f >= %.2f", mass, ingestSatFloors.mass)
		check("completeness-floor", completeness >= ingestSatFloors.completeness, "completeness_ratio %.4f >= %.2f", completeness, ingestSatFloors.completeness)
		check("windows-delivered", delivered >= ingestSatFloors.delivered, "windows_delivered_ratio %.4f >= %.2f (%d of %d)", delivered, ingestSatFloors.delivered, attempted, due)
	case !sp.churn:
		check("mass-floor", mass >= 0.97, "mass_delivered_ratio %.4f >= 0.97", mass)
		check("completeness-floor", completeness >= 0.99, "completeness_ratio %.4f >= 0.99", completeness)
		check("windows-delivered", delivered >= 0.99, "windows_delivered_ratio %.4f >= 0.99 (%d of %d)", delivered, attempted, due)
	}
	if lateP90 := layer["workload.gen_late_ms_p90"].Value; !sp.closedLoop {
		check("open-loop-on-schedule", lateP90 < maxGenLateMs, "90%% of ticks offered within %.3f ms of due, limit %d (else the open-loop figures are void)", lateP90, maxGenLateMs)
	}
	return e2e, layer, attempted, failed, checks
}
