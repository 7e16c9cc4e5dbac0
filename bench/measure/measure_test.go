package measure

import (
	"math"
	"path/filepath"
	"reflect"
	"testing"
	"time"
)

func TestTailPercentileKeepsTenSamplesBeyond(t *testing.T) {
	cases := []struct {
		n    int
		want float64
		ok   bool
	}{
		{n: 9, ok: false},
		{n: 39, ok: false}, // p75 of 39 leaves 9 beyond
		{n: 40, want: 75, ok: true},
		{n: 80, want: 85, ok: true},  // p90 would leave only 8
		{n: 100, want: 90, ok: true}, // exactly ten beyond
		{n: 160, want: 90, ok: true}, // p95 would leave 8
		{n: 200, want: 95, ok: true},
		{n: 1000, want: 99, ok: true},
		{n: 10000, want: 99.9, ok: true},
	}
	for _, c := range cases {
		p, ok := TailPercentile(c.n)
		if ok != c.ok || (ok && p != c.want) {
			t.Errorf("TailPercentile(%d) = %v, %v; want %v, %v", c.n, p, ok, c.want, c.ok)
		}
		if ok && beyond(c.n, p) < minBeyond {
			t.Errorf("TailPercentile(%d) = p%v leaves %d samples beyond", c.n, p, beyond(c.n, p))
		}
	}
}

func TestSummarize(t *testing.T) {
	xs := make([]float64, 80)
	for i := range xs {
		xs[i] = float64(80 - i) // 80..1, unsorted on purpose
	}
	d := Summarize(xs)
	if d.N != 80 || d.P50 != 40 || d.TailP != 85 || d.Tail != 68 {
		t.Errorf("Summarize = %+v; want N 80, P50 40, p85 68", d)
	}
	if got := Summarize(xs[:5]); got.TailP != 50 || got.Tail != got.P50 {
		t.Errorf("a five-sample Dist must report its median alone, got %+v", got)
	}
	if got := Summarize(nil); got != (Dist{}) {
		t.Errorf("Summarize(nil) = %+v", got)
	}
}

// fakeClock advances only when slept on, plus whatever the test adds.
type fakeClock struct{ now time.Time }

func (c *fakeClock) Now() time.Time        { return c.now }
func (c *fakeClock) Sleep(d time.Duration) { c.now = c.now.Add(d) }

func TestTicksTimeEachTickFromWhenItWasDue(t *testing.T) {
	ck := &fakeClock{now: time.Unix(1000, 0)}
	start := ck.now
	tk := &Ticks{Start: start, Period: 10 * time.Millisecond, Now: ck.Now, Sleep: ck.Sleep}

	// On schedule: each tick is waited for and reached on time.
	for k := 0; k < 3; k++ {
		due, late := tk.Next()
		if want := start.Add(time.Duration(k) * 10 * time.Millisecond); !due.Equal(want) || late != 0 {
			t.Fatalf("tick %d: due %v late %v, want %v late 0", k, due.Sub(start), late, want.Sub(start))
		}
	}
	// A 35 ms stall: ticks 3..5 were due meanwhile. They are offered
	// back to back, each late by what the stall cost it, none skipped.
	ck.now = ck.now.Add(35 * time.Millisecond) // now = 20ms + 35ms = 55ms
	for k, want := range []time.Duration{25, 15, 5} {
		due, late := tk.Next()
		if wantDue := start.Add(time.Duration(3+k) * 10 * time.Millisecond); !due.Equal(wantDue) || late != want*time.Millisecond {
			t.Fatalf("catch-up tick %d: due %v late %v, want late %vms", 3+k, due.Sub(start), late, int(want))
		}
	}
	// Caught up: the next tick is waited for again.
	if due, late := tk.Next(); late != 0 || !ck.now.Equal(due) {
		t.Fatalf("after catch-up: late %v, clock %v, due %v", late, ck.now.Sub(start), due.Sub(start))
	}
}

func TestAccountCountsGapsAndCapsCompleteness(t *testing.T) {
	a := Account{Expect: 12}                            // ignored once anything is delivered
	for _, w := range []int64{10, 11, 13, 14, 14, 17} { // 12, 15, 16 never arrive; 14 twice
		a.Deliver(w, 64, 64, w != 13) // 13's content is wrong; the repeat of 14 is not counted
	}
	if a.Due() != 8 || a.Delivered() != 5 || a.Invalid() != 1 {
		t.Errorf("due %d delivered %d invalid %d; want 8, 5 and 1", a.Due(), a.Delivered(), a.Invalid())
	}

	var b Account
	b.Deliver(1, 32, 64, true) // half of live
	b.Deliver(2, 64, 51, true) // a killed peer's last window: capped at 1
	b.Deliver(3, 10, 0, true)  // no live truth: not a completeness sample
	sum, n := b.Completeness()
	if n != 2 || sum != 1.5 {
		t.Errorf("completeness sum %v over %d; want 1.5 over 2", sum, n)
	}
	var none Account
	none.Expect = 4
	if none.Due() != 4 || none.Delivered() != 0 || none.Invalid() != 0 {
		t.Errorf("nothing delivered: due %d delivered %d invalid %d; want 4, 0, 0", none.Due(), none.Delivered(), none.Invalid())
	}
}

func TestSelfTimeIsDurationMinusChildren(t *testing.T) {
	spans := []Span{
		{Name: "mortar.window", ID: "w", StartNs: 0, EndNs: 1000},
		{Name: "a", ID: "a", Parent: "w", StartNs: 100, EndNs: 400},
		{Name: "b", ID: "b", Parent: "w", StartNs: 300, EndNs: 600},  // overlaps a: 300..400 counted once
		{Name: "c", ID: "c", Parent: "w", StartNs: 900, EndNs: 1200}, // clipped at the parent's end
		{Name: "d", ID: "d", Parent: "a", StartNs: 150, EndNs: 250},  // grandchild: only a's concern
	}
	self := SelfTimes(spans)
	want := map[string]int64{"w": 1000 - 500 - 100, "a": 300 - 100, "b": 300, "c": 300, "d": 100}
	if !reflect.DeepEqual(self, want) {
		t.Errorf("SelfTimes = %v, want %v", self, want)
	}
}

func TestRecorderNilRecordsNothing(t *testing.T) {
	var r *Recorder
	r.Add("x", "1", "", time.Now(), time.Now())
	if r.Spans() != nil {
		t.Error("nil recorder returned spans")
	}
	epoch := time.Unix(50, 0)
	rec := &Recorder{Epoch: epoch}
	rec.Add("gateway.deliver", "lat/7", "w/lat/7", epoch.Add(time.Millisecond), epoch.Add(3*time.Millisecond))
	got := rec.Spans()
	if len(got) != 1 || got[0].StartNs != 1e6 || got[0].EndNs != 3e6 || got[0].Parent != "w/lat/7" {
		t.Errorf("recorded %+v", got)
	}
	if d := DurationsMs(got, "gateway.deliver"); len(d) != 1 || d[0] != 2 {
		t.Errorf("DurationsMs = %v", d)
	}
}

func TestResultsRoundTrip(t *testing.T) {
	in := Results{Schema: SchemaVersion, Seed: 7, Seconds: 20, Comparable: true, Workloads: []WorkloadResult{{
		Name: "fanin-wan", Correct: true, Attempted: 320, Failed: 1,
		EndToEnd: map[string]Metric{
			"result_latency_ms_p50": {Value: 987.25, Unit: "ms", N: 80, Values: []float64{985, 987.25, 990}},
			"setup_s":               {Value: 2.73, Unit: "s", N: 3},
		},
		PerLayer:           map[string]Metric{"budget.residual_ms": {Value: -12.5, Unit: "ms", Note: "x"}},
		TraceOverheadRatio: 0.004,
		Checks:             []Check{{Name: "no-double-counting", OK: true, Detail: "1.0 <= 1"}},
	}}}
	path := filepath.Join(t.TempDir(), "results.json")
	if err := WriteJSON(path, in); err != nil {
		t.Fatal(err)
	}
	var out Results
	if err := ReadJSON(path, &out); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(in, out) {
		t.Errorf("round trip changed the results:\n in %+v\nout %+v", in, out)
	}
	if out.Workload("fanin-wan") == nil || out.Workload("nope") != nil {
		t.Error("Workload lookup")
	}
}

func TestSpreadMatchesPythonQuantiles(t *testing.T) {
	// statistics.quantiles(xs, n=4) gives [2.75, 5.5, 8.25] and
	// [1.25, 3.5, 5.75] for these two samples.
	if got, want := Spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}), (8.25-2.75)/5.5; math.Abs(got-want) > 1e-12 {
		t.Errorf("Spread = %v, want %v", got, want)
	}
	if got, want := Spread([]float64{3, 1, 4, 1, 5, 9, 2, 6}), (5.75-1.25)/3.5; math.Abs(got-want) > 1e-12 {
		t.Errorf("Spread = %v, want %v", got, want)
	}
	if !math.IsNaN(Spread([]float64{4})) || !math.IsNaN(Spread(nil)) {
		t.Error("Spread of fewer than two values must be NaN")
	}
}

func TestVerdict(t *testing.T) {
	nan := math.NaN()
	cases := []struct {
		better            string
		bound, base, cand float64
		spread            float64
		want              string
	}{
		{"lower", 0.10, 1000, 1090, nan, OK},
		{"lower", 0.10, 1000, 1110, nan, Worse},
		{"lower", 0.10, 1000, 500, nan, OK}, // better is never worse
		{"higher", 0.02, 1.0, 0.985, nan, OK},
		{"higher", 0.02, 1.0, 0.97, nan, Worse},
		{"higher", 0.10, 11.5e6, 13e6, nan, OK},
		{"lower", 0.10, 1000, 1110, 0.12, Unresolved}, // the base's own spread exceeds the bound
		{"lower", 0.10, 1000, 1110, 0.03, Worse},
		{"lower", 0.10, 0, 5, nan, Unresolved}, // no usable base
		{"lower", 0.10, 1000, nan, nan, Unresolved},
	}
	for _, c := range cases {
		if _, got := Verdict(c.better, c.bound, c.base, c.cand, c.spread); got != c.want {
			t.Errorf("Verdict(%s, bound %v, %v -> %v, spread %v) = %s, want %s", c.better, c.bound, c.base, c.cand, c.spread, got, c.want)
		}
	}
	if r, _ := Verdict("lower", 0.1, 200, 50, nan); r != 0.25 {
		t.Errorf("ratio = %v, want cand/base 0.25", r)
	}
}
