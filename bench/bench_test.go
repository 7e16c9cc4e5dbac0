package main

import (
	"math"
	"os"
	"reflect"
	"regexp"
	"strings"
	"testing"
	"time"

	"repro/bench/measure"
	"repro/internal/chaos"
	"repro/internal/plan"
)

// TestBenchmarkJSONMatchesCode holds the committed BENCHMARK.json to the
// tables the binary reports from, so the two cannot drift apart.
func TestBenchmarkJSONMatchesCode(t *testing.T) {
	const path = "../BENCHMARK.json"
	if _, err := os.Stat(path); err != nil {
		t.Skipf("no %s beside the module: %v", path, err)
	}
	var got measure.Benchmark
	if err := measure.ReadJSON(path, &got); err != nil {
		t.Fatal(err)
	}
	if want := benchmarkSpec(); !reflect.DeepEqual(got, want) {
		t.Error("BENCHMARK.json differs from the code; regenerate it with `bash bench/run.sh -print-spec > BENCHMARK.json`")
	}
}

// TestSpecWithinDriverLimits checks the limits the acceptance driver
// refuses a benchmark for, before a single run.
func TestSpecWithinDriverLimits(t *testing.T) {
	b := benchmarkSpec()
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	use := func(n string) {
		if !name.MatchString(n) {
			t.Errorf("name %q is not a valid metric or workload name", n)
		}
		if seen[n] {
			t.Errorf("name %q used twice", n)
		}
		seen[n] = true
	}
	if n := len(b.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2..8", n)
	}
	for _, w := range b.Workloads {
		use(w.Name)
		if len(w.Why) == 0 || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters, has %d", w.Name, len(w.Why))
		}
	}
	if n := len(b.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, want 1..16", n)
	}
	if n := len(b.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1..128", n)
	}
	setup := false
	for _, m := range b.EndToEnd {
		use(m.Name)
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		if m.Name == "setup_s" {
			setup = m.Unit == "s" && m.Better == "lower"
			for _, o := range b.EndToEnd {
				if o.Bound > m.Bound {
					t.Errorf("setup_s must carry the largest bound; %s has %v", o.Name, o.Bound)
				}
			}
		}
	}
	if !setup {
		t.Error("end_to_end must include setup_s, unit s, better lower")
	}
	for _, m := range append(append([]measure.MetricSpec(nil), b.EndToEnd...), b.PerLayer...) {
		if !unit.MatchString(m.Unit) {
			t.Errorf("%s: unit %q is not valid", m.Name, m.Unit)
		}
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("%s: better %q", m.Name, m.Better)
		}
	}
	for _, m := range b.PerLayer {
		use(m.Name)
		if m.Bound != 0 {
			t.Errorf("%s: per-layer metrics carry no bound", m.Name)
		}
	}
	if runs := 4 + 22*len(b.Workloads); b.RunSeconds < 1 || b.RunSeconds > 60 || runs*(b.RunSeconds+18) > 3420 {
		t.Errorf("run_seconds %d: %d runs of about %d s do not fit 3420 s", b.RunSeconds, runs, b.RunSeconds+18)
	}
	for _, sp := range specs {
		if sp.tenants[0].name != latName {
			t.Errorf("%s: the lat tenant must come first (the generator reads its filter key there)", sp.name)
		}
	}
}

func TestTopologyIsSeededSymmetricAndInRange(t *testing.T) {
	a, b := newTopology(7, 64), newTopology(7, 64)
	other := newTopology(8, 64)
	differs := false
	for i := 0; i < 64; i++ {
		for j := 0; j < 64; j++ {
			d := a.delay(i, j)
			if d != b.delay(i, j) || d != a.delay(j, i) {
				t.Fatalf("delay(%d,%d) not reproducible or not symmetric", i, j)
			}
			if d < time.Millisecond || d > 58*time.Millisecond {
				t.Fatalf("delay(%d,%d) = %v outside 1..58 ms", i, j, d)
			}
			differs = differs || d != other.delay(i, j)
		}
	}
	if !differs {
		t.Error("a different seed gave the same topology")
	}
}

// testTree is a 64-peer bf-4 tree: peer 0 the root, 4 at level 1, 16 at
// level 2, 43 at level 3.
func testTree() *plan.Tree {
	t := &plan.Tree{BF: 4, Root: 0, Parent: make([]int, 64), Children: make([][]int, 64), Level: make([]int, 64)}
	t.Parent[0] = -1
	for p := 1; p < 64; p++ {
		pa := (p - 1) / 4
		t.Parent[p], t.Level[p] = pa, t.Level[pa]+1
		t.Children[pa] = append(t.Children[pa], p)
	}
	return t
}

func TestChurnScheduleIsSeededStratifiedAndValid(t *testing.T) {
	tree := testTree()
	ph := planPhases(findSpec("churn-lossy"), 12, false, false)
	s1, s2 := churnSchedule(3, tree, ph), churnSchedule(3, tree, ph)
	if !reflect.DeepEqual(s1, s2) {
		t.Fatal("same seed, different schedule")
	}
	if reflect.DeepEqual(s1.Events[1].Peers, churnSchedule(4, tree, ph).Events[1].Peers) {
		t.Error("a different seed killed the same peers")
	}
	acts, err := s1.Expand(64, nil)
	if err != nil {
		t.Fatalf("schedule does not validate: %v", err)
	}
	perLevel := map[int]int{}
	for _, p := range s1.Events[1].Peers {
		if p == tree.Root {
			t.Fatal("the root was killed")
		}
		perLevel[tree.Level[p]]++
	}
	if want := map[int]int{1: 1, 2: 3, 3: 9}; !reflect.DeepEqual(perLevel, want) {
		t.Errorf("victims per level %v, want one in five of each: %v", perLevel, want)
	}
	if got := len(s1.Events[2].Peers); got != 7 {
		t.Errorf("%d peers restarted, want every second of 13", got)
	}
	if at := s1.Events[2].AtMs; at != (5500 + 1000 + 3000) { // two federations, 6 s each
		t.Errorf("restart at %d ms, want halfway through the span", at)
	}

	truth := liveTruth{n: 64, origin: time.Unix(100, 0), acts: acts}
	if truth.at(truth.origin.Add(-time.Second)) != 64 || truth.at(truth.origin.Add(time.Second)) != 51 {
		t.Errorf("live before/after the kills: %d, %d; want 64, 51", truth.at(truth.origin.Add(-time.Second)), truth.at(truth.origin.Add(time.Second)))
	}
	if end := truth.at(truth.origin.Add(time.Minute)); end != 58 || truth.min() != 51 {
		t.Errorf("live at the end %d (min %d), want 58 (51)", end, truth.min())
	}
	var lossSet bool
	for _, a := range acts {
		lossSet = lossSet || (a.Kind == chaos.ActLoss && a.Loss == churnLoss && a.At <= time.Millisecond)
	}
	if !lossSet {
		t.Error("the schedule never sets the datagram loss")
	}
}

// TestReportOnSyntheticStream feeds report a hand-made result stream: 80
// windows per tenant, one of them never reported by the root for one
// tenant, one the stream never delivered, one cache-replay line, and checks
// the latency, delivered-window, completeness and mass accounting; then it
// corrupts two results and checks that they are the failed operations.
func TestReportOnSyntheticStream(t *testing.T) {
	epoch := time.Unix(1000, 0)
	sp := findSpec("fanin-wan")
	begin := epoch.Add(10 * time.Second)
	m := &measured{sp: sp, truth: liveTruth{n: sp.peers},
		opened:  begin.Add(-2 * time.Second),
		massIn:  1000,
		heldMB:  30,
		massOut: 2990,
	}
	m.begin.at, m.end.at = begin, begin.Add(20*time.Second)
	m.end.tuples, m.end.cpu, m.end.wireCtl = 256000, 2*time.Second, 1<<20
	for w := int64(100); w < 180; w++ {
		t1 := begin.Add(time.Duration(w-100)*250*time.Millisecond + 100*time.Millisecond)
		t0 := t1.Add(-900 * time.Millisecond)
		for i, tn := range sp.tenants {
			if tn.name == "mass" && w == 120 {
				continue // the root never reported this one
			}
			r := obsRec{tenant: i, window: w, count: 64, hops: 3, age: 1100 * time.Millisecond, value: 3200, hasValue: true, t1: t1}
			if tn.name == latName {
				r.value = float64(t0.Sub(epoch).Microseconds())
				if w != 150 { // the stream lost window 150
					m.lines = append(m.lines, latLine{window: w, value: r.value, has: true, t2: t1.Add(2 * time.Millisecond)})
				}
			}
			m.obs = append(m.obs, r)
		}
	}
	// A window reported before the stream opened, replayed from the cache.
	m.lines = append([]latLine{{window: 90, has: true, t2: m.opened.Add(time.Millisecond)}}, m.lines...)
	m.obs = append(m.obs, obsRec{tenant: 0, window: 90, count: 64, hasValue: true, t1: m.opened.Add(-3 * time.Second)})

	res := &runResult{sp: sp, parts: []*measured{m},
		setups: []setupTimes{{total: 2 * time.Second}, {total: 3 * time.Second}, {total: 2500 * time.Millisecond}}}
	e2e, layer, attempted, failed, checks := res.report(epoch)
	near := func(name string, got, want float64) {
		t.Helper()
		if math.Abs(got-want) > 1e-6 {
			t.Errorf("%s = %v, want %v", name, got, want)
		}
	}
	near("result_latency_ms_p50", e2e["result_latency_ms_p50"].Value, 902)
	if n := e2e["result_latency_ms_p50"].N; n != 79 {
		t.Errorf("%d latency samples, want 79 (replay discarded, lost line absent)", n)
	}
	near("setup_s", e2e["setup_s"].Value, 2.5)
	near("result_age_ms_p50", e2e["result_age_ms_p50"].Value, 1100)
	near("completeness_ratio", e2e["completeness_ratio"].Value, 1)
	near("mass_delivered_ratio", e2e["mass_delivered_ratio"].Value, 2990.0/3000)
	near("ingest_tuples_per_s", e2e["ingest_tuples_per_s"].Value, 12800)
	near("process.cpu_cores_used", layer["process.cpu_cores_used"].Value, 0.1)
	near("mortar.report_lag_ms_p50", layer["mortar.report_lag_ms_p50"].Value, 900)
	near("gateway.fanout_lag_ms_p50", layer["gateway.fanout_lag_ms_p50"].Value, 2)
	near("gateway.stream_dropped", layer["gateway.stream_dropped"].Value, 1)
	if attempted != 4*80-2 || failed != 0 {
		t.Errorf("attempted %d failed %d, want 318 and 0 (one never reported, one never streamed)", attempted, failed)
	}
	near("windows_delivered_ratio", e2e["windows_delivered_ratio"].Value, 318.0/320)
	for _, c := range checks {
		if !c.OK {
			t.Errorf("check %s violated on a healthy stream: %s", c.Name, c.Detail)
		}
	}
	for _, spec := range perLayer {
		if _, ok := layer[spec.Name]; !ok {
			t.Errorf("per-layer metric %s not reported", spec.Name)
		}
	}
	for _, spec := range endToEnd {
		if v, ok := e2e[spec.Name]; !ok || v.Value == 0 {
			t.Errorf("end-to-end metric %s missing or zero", spec.Name)
		}
	}

	// Double counting beyond the allowance must be caught.
	m.massOut = 3200
	_, _, _, _, checks = res.report(epoch)
	caught := false
	for _, c := range checks {
		caught = caught || (c.Name == "no-double-counting" && !c.OK)
	}
	if !caught {
		t.Error("a mass ratio of 1.067 passed the no-double-counting check")
	}

	// A sum that is not a whole number of unit masses, and a stream line
	// that does not say what the root reported, are failed operations.
	m.massOut = 2990
	for i := range m.obs {
		if r := &m.obs[i]; r.window == 130 && sp.tenants[r.tenant].name == "sum1" {
			r.value += 0.5
		}
	}
	for i := range m.lines {
		if m.lines[i].window == 140 {
			m.lines[i].value++
		}
	}
	_, _, attempted, failed, checks = res.report(epoch)
	if attempted != 318 || failed != 2 {
		t.Errorf("attempted %d failed %d after corrupting two results, want 318 and 2", attempted, failed)
	}
	caught = false
	for _, c := range checks {
		caught = caught || (c.Name == "results-valid" && !c.OK)
	}
	if !caught {
		t.Error("two corrupted results passed the results-valid check")
	}
}
