package chaos

import (
	"fmt"
	"math"
	"os"
	"reflect"
	goruntime "runtime"
	"strings"
	"testing"
	"time"
)

func mustParse(t *testing.T, src string) *Schedule {
	t.Helper()
	s, err := Parse([]byte(src))
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	return s
}

func TestParseValid(t *testing.T) {
	s := mustParse(t, `{
		"scenario": "fig11-kill40",
		"seed": 7,
		"sample_ms": 250,
		"events": [
			{"kind": "kill", "at_ms": 1000, "frac": 0.4, "stagger_ms": 10},
			{"kind": "recover", "at_ms": 5000, "all": true, "stagger_ms": 10},
			{"kind": "churn", "at_ms": 6000, "until_ms": 8000, "every_ms": 500, "count": 2},
			{"kind": "loss-ramp", "at_ms": 9000, "until_ms": 10000, "from": 0, "to": 0.2, "step_ms": 250}
		]
	}`)
	if s.Scenario != "fig11-kill40" || s.Seed != 7 || len(s.Events) != 4 {
		t.Fatalf("unexpected schedule: %+v", s)
	}
	if got := s.SamplePeriod(); got != 250*time.Millisecond {
		t.Fatalf("SamplePeriod = %v", got)
	}
}

func TestParseRejects(t *testing.T) {
	cases := []struct {
		name, src, wantErr string
	}{
		{"negative at_ms",
			`{"scenario":"x","events":[{"kind":"kill","at_ms":-5,"frac":0.1}]}`,
			"negative"},
		{"empty interval",
			`{"scenario":"x","events":[{"kind":"churn","at_ms":500,"until_ms":500,"every_ms":100,"count":1}]}`,
			"empty or negative"},
		{"inverted interval",
			`{"scenario":"x","events":[{"kind":"loss-ramp","at_ms":900,"until_ms":300,"from":0,"to":0.1,"step_ms":100}]}`,
			"empty or negative"},
		{"overlapping same-kind intervals",
			`{"scenario":"x","events":[
				{"kind":"churn","at_ms":0,"until_ms":2000,"every_ms":500,"count":1},
				{"kind":"churn","at_ms":1500,"until_ms":3000,"every_ms":500,"count":1}]}`,
			"overlapping"},
		{"kill with both peers and frac",
			`{"scenario":"x","events":[{"kind":"kill","at_ms":0,"peers":[1],"frac":0.5}]}`,
			"exactly one"},
		{"kill with neither",
			`{"scenario":"x","events":[{"kind":"kill","at_ms":0}]}`,
			"exactly one"},
		{"frac above one",
			`{"scenario":"x","events":[{"kind":"kill","at_ms":0,"frac":1.5}]}`,
			"outside [0, 1]"},
		{"until_ms on point event",
			`{"scenario":"x","events":[{"kind":"kill","at_ms":0,"until_ms":100,"frac":0.1}]}`,
			"until_ms only applies"},
		{"unknown kind",
			`{"scenario":"x","events":[{"kind":"explode","at_ms":0}]}`,
			"unknown kind"},
		{"unknown field",
			`{"scenario":"x","events":[{"kind":"kill","at_ms":0,"frac":0.1,"fraction":0.5}]}`,
			"unknown field"},
		// Kinds and fields no longer understood: a stale schedule fails at
		// start-up instead of running a different experiment.
		{"socket-outage kind",
			`{"scenario":"x","events":[{"kind":"socket-outage","at_ms":0,"until_ms":2000}]}`,
			"unknown kind"},
		{"peer-loss kind",
			`{"scenario":"x","events":[{"kind":"peer-loss","at_ms":0,"peers":[1]}]}`,
			"unknown kind"},
		{"socket field",
			`{"scenario":"x","events":[{"kind":"kill","at_ms":0,"peers":[1],"socket":1}]}`,
			"unknown field"},
		{"loss field",
			`{"scenario":"x","events":[{"kind":"kill","at_ms":0,"peers":[1],"loss":0.5}]}`,
			"unknown field"},
		{"kill of root peer 0",
			`{"scenario":"x","events":[{"kind":"kill","at_ms":0,"peers":[2,0]}]}`,
			"never killed"},
		// Past ≈ 9.2·10¹² ms a time.Duration wraps negative: a far-future
		// kill would sort first and fire at once.
		{"far-future at_ms",
			`{"scenario":"x","events":[{"kind":"kill","at_ms":9300000000000,"peers":[1]}]}`,
			"overflows"},
		{"wrapping until_ms",
			`{"scenario":"x","events":[{"kind":"loss-ramp","at_ms":1,"until_ms":9223372036854775806,"from":0,"to":0.1,"step_ms":4611686018427387904}]}`,
			"overflows"},
		{"far-future sample_ms",
			`{"scenario":"x","sample_ms":9300000000000,"events":[]}`,
			"outside"},
		{"bad scenario name",
			`{"scenario":"a/b","events":[]}`,
			"must be a"},
		{"negative peer",
			`{"scenario":"x","events":[{"kind":"recover","at_ms":0,"peers":[-2]}]}`,
			"negative peer"},
		{"loss outside range",
			`{"scenario":"x","events":[{"kind":"loss-ramp","at_ms":0,"until_ms":100,"from":0,"to":1.2,"step_ms":10}]}`,
			"outside [0, 1]"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Parse([]byte(tc.src))
			if err == nil {
				t.Fatalf("Parse accepted %s", tc.src)
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("error %q does not mention %q", err, tc.wantErr)
			}
		})
	}
}

// Different-kind intervals may overlap: churn during a loss ramp is a
// legitimate compound scenario.
func TestParseAllowsCrossKindOverlap(t *testing.T) {
	mustParse(t, `{"scenario":"x","events":[
		{"kind":"churn","at_ms":0,"until_ms":2000,"every_ms":500,"count":1},
		{"kind":"loss-ramp","at_ms":500,"until_ms":1500,"from":0,"to":0.1,"step_ms":250}]}`)
}

func TestExpandDeterministic(t *testing.T) {
	src := `{
		"scenario": "det",
		"seed": 42,
		"events": [
			{"kind": "kill", "at_ms": 100, "frac": 0.4, "stagger_ms": 5},
			{"kind": "churn", "at_ms": 500, "until_ms": 1500, "every_ms": 250, "count": 3},
			{"kind": "recover", "at_ms": 2000, "all": true, "stagger_ms": 5},
			{"kind": "loss-ramp", "at_ms": 2500, "until_ms": 3000, "from": 0, "to": 0.3, "step_ms": 100}
		]
	}`
	a1, err := mustParse(t, src).Expand(50, nil)
	if err != nil {
		t.Fatalf("Expand: %v", err)
	}
	a2, err := mustParse(t, src).Expand(50, nil)
	if err != nil {
		t.Fatalf("Expand: %v", err)
	}
	if !reflect.DeepEqual(a1, a2) {
		t.Fatalf("same schedule expanded differently:\n%v\nvs\n%v", a1, a2)
	}
	if len(a1) == 0 {
		t.Fatal("empty expansion")
	}

	// A different seed must shuffle the victim draw.
	s3 := mustParse(t, src)
	s3.Seed = 43
	a3, err := s3.Expand(50, nil)
	if err != nil {
		t.Fatalf("Expand: %v", err)
	}
	if reflect.DeepEqual(a1, a3) {
		t.Fatal("seed change did not alter the expansion")
	}
}

func TestExpandInvariants(t *testing.T) {
	s := mustParse(t, `{
		"scenario": "inv",
		"seed": 11,
		"events": [
			{"kind": "kill", "at_ms": 0, "frac": 0.4, "stagger_ms": 2},
			{"kind": "churn", "at_ms": 1000, "until_ms": 2000, "every_ms": 200, "count": 4},
			{"kind": "recover", "at_ms": 3000, "all": true, "stagger_ms": 2}
		]
	}`)
	const n = 100
	acts, err := s.Expand(n, nil)
	if err != nil {
		t.Fatalf("Expand: %v", err)
	}
	live := n
	down := make([]bool, n)
	for i, a := range acts {
		if i > 0 && a.At < acts[i-1].At {
			t.Fatalf("actions out of time order at %d: %v after %v", i, a.At, acts[i-1].At)
		}
		switch a.Kind {
		case ActKill:
			if a.Peer == 0 {
				t.Fatal("schedule killed root peer 0")
			}
			if down[a.Peer] {
				t.Fatalf("double kill of peer %d", a.Peer)
			}
			down[a.Peer] = true
			live--
		case ActRecover:
			if !down[a.Peer] {
				t.Fatalf("recover of live peer %d", a.Peer)
			}
			down[a.Peer] = false
			live++
		}
		if a.Live != live {
			t.Fatalf("action %d stamped live=%d, replay says %d", i, a.Live, live)
		}
	}
	if live != n {
		t.Fatalf("schedule ends with %d live, want full recovery to %d", live, n)
	}

	// 40% of 100 with a live root: exactly 40 kills.
	kills := 0
	for _, a := range acts {
		if a.Kind == ActKill && a.At < 1*time.Second {
			kills++
		}
	}
	if kills != 40 {
		t.Fatalf("frac 0.4 over 100 peers drew %d initial kills, want 40", kills)
	}

	start, end, ok := FaultSpan(acts)
	if !ok || start != 0 || end < 3*time.Second {
		t.Fatalf("FaultSpan = %v, %v, %v", start, end, ok)
	}
}

func TestExpandLossRampEndsAtTarget(t *testing.T) {
	s := mustParse(t, `{
		"scenario": "ramp",
		"events": [{"kind": "loss-ramp", "at_ms": 0, "until_ms": 1000, "from": 0.1, "to": 0.5, "step_ms": 300}]
	}`)
	acts, err := s.Expand(4, nil)
	if err != nil {
		t.Fatalf("Expand: %v", err)
	}
	if len(acts) < 2 {
		t.Fatalf("ramp expanded to %d actions", len(acts))
	}
	first, last := acts[0], acts[len(acts)-1]
	if first.Kind != ActLoss || first.Loss != 0.1 {
		t.Fatalf("ramp starts at %+v", first)
	}
	if last.Kind != ActLoss || last.Loss != 0.5 || last.At != time.Second {
		t.Fatalf("ramp ends at %+v, want loss 0.5 at 1s", last)
	}
	for i := 1; i < len(acts); i++ {
		if acts[i].Loss < acts[i-1].Loss {
			t.Fatalf("ramp not monotonic: %v", acts)
		}
	}
}

func TestExpandPeerBounds(t *testing.T) {
	s := mustParse(t, `{"scenario":"x","events":[{"kind":"kill","at_ms":0,"peers":[7]}]}`)
	if _, err := s.Expand(4, nil); err == nil {
		t.Fatal("peer index past federation size was accepted")
	}
}

// pinSrc mixes every kind the DSL has: a frac kill and an explicit-peer
// kill, both staggered, churn, an explicit and an `all` recovery, and two
// loss ramps, the second interleaved with the staggered recovery.
const pinSrc = `{
	"scenario": "pin",
	"seed": 20080417,
	"events": [
		{"kind": "kill", "at_ms": 100, "frac": 0.3, "stagger_ms": 7},
		{"kind": "kill", "at_ms": 400, "peers": [1, 2, 3, 5, 8], "stagger_ms": 3},
		{"kind": "churn", "at_ms": 600, "until_ms": 1600, "every_ms": 200, "count": 3},
		{"kind": "recover", "at_ms": 1800, "peers": [1, 2], "stagger_ms": 4},
		{"kind": "loss-ramp", "at_ms": 1900, "until_ms": 2400, "from": 0, "to": 0.25, "step_ms": 50},
		{"kind": "recover", "at_ms": 2500, "all": true, "stagger_ms": 5},
		{"kind": "loss-ramp", "at_ms": 2510, "until_ms": 2560, "from": 0.25, "to": 0, "step_ms": 20}
	]
}`

// The expansion of pinSrc over 40 peers is pinned action by action
// (testdata/expand-pin.txt: At in ns, kind, peer, loss, live), so a change
// to how the DSL expands cannot pass unnoticed: every process of a
// federation, and every re-run of a scenario, depends on it.
func TestExpandPinned(t *testing.T) {
	acts, err := mustParse(t, pinSrc).Expand(40, nil)
	if err != nil {
		t.Fatalf("Expand: %v", err)
	}
	var got strings.Builder
	for _, a := range acts {
		fmt.Fprintf(&got, "%d %s %d %g %d\n", a.At, a.Kind, a.Peer, a.Loss, a.Live)
	}
	want, err := os.ReadFile("testdata/expand-pin.txt")
	if err != nil {
		t.Fatal(err)
	}
	if got.String() != string(want) {
		t.Fatalf("expansion moved from testdata/expand-pin.txt:\n%s", got.String())
	}
}

// An interval is counted before it is generated: a ramp of 2×maxActions
// steps is refused without building its occurrences, and intervals whose
// times could wrap finish at once.
func TestExpandBoundsIntervals(t *testing.T) {
	ramp := &Schedule{Scenario: "x", Events: []Event{
		{Kind: KindLossRamp, UntilMs: 2 * maxActions, To: 0.1, StepMs: 1},
	}}
	var before, after goruntime.MemStats
	goruntime.ReadMemStats(&before)
	_, err := ramp.Expand(4, nil)
	goruntime.ReadMemStats(&after)
	if err == nil || !strings.Contains(err.Error(), "expands past") {
		t.Fatalf("ramp of %d steps: err = %v", 2*maxActions, err)
	}
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc >= 16<<20 {
		t.Fatalf("refusing a ramp of %d steps allocated %d MB", 2*maxActions, alloc>>20)
	}

	// A step that wraps at_ms + step negative: generated step by step,
	// the churn never left its interval and the ramp drew negative times.
	for _, e := range []Event{
		{Kind: KindChurn, AtMs: 5, UntilMs: 100, EveryMs: math.MaxInt64, Count: 1},
		{Kind: KindLossRamp, AtMs: 2, UntilMs: maxMs, To: 0.1, StepMs: math.MaxInt64 - 1},
	} {
		s := &Schedule{Scenario: "x", Events: []Event{e}}
		acts, err := s.Expand(4, nil)
		if err != nil {
			t.Fatalf("%+v: %v", e, err)
		}
		for _, a := range acts {
			if a.At < time.Duration(e.AtMs)*time.Millisecond || a.At > time.Duration(maxMs)*time.Millisecond {
				t.Fatalf("%+v: action at %v", e, a.At)
			}
		}
	}

	// A stagger that pushes the last victim past a time.Duration.
	stagger := &Schedule{Scenario: "x", Events: []Event{
		{Kind: KindKill, AtMs: maxMs - 10, Peers: []int{1, 2, 3}, StaggerMs: 10},
	}}
	if _, err := stagger.Expand(4, nil); err == nil || !strings.Contains(err.Error(), "stagger_ms") {
		t.Fatalf("stagger past %d ms: err = %v", maxMs, err)
	}
	stagger.Events[0].Peers = []int{1, 2}
	if _, err := stagger.Expand(4, nil); err != nil {
		t.Fatalf("stagger ending at %d ms refused: %v", maxMs, err)
	}
}

// FuzzParse: Parse never panics, and whatever it accepts expands within
// maxActions to a time-sorted list that never kills root peer 0, keeps
// Live within [1, n], and is the same list when expanded twice.
func FuzzParse(f *testing.F) {
	f.Add([]byte(pinSrc))
	f.Add([]byte(`{"scenario":"x","seed":3,"events":[{"kind":"kill","at_ms":0,"peers":[1,2],"stagger_ms":9223372036854},{"kind":"recover","at_ms":5,"all":true}]}`))
	f.Add([]byte(`{"scenario":"x","events":[{"kind":"churn","at_ms":0,"until_ms":900,"every_ms":7,"count":5}]}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := Parse(data)
		if err != nil {
			return
		}
		// Keep an iteration cheap (TestExpandBoundsIntervals covers the
		// large ones); a churn beat draws from the whole federation.
		var work int64
		for _, e := range s.Events {
			w := e.occurrences()
			if e.Kind == KindChurn {
				w *= 64
			}
			work += w
		}
		if work > 10_000 {
			return
		}
		for n := 1; n <= 64; n++ {
			acts, err := s.Expand(n, nil)
			if err != nil {
				continue
			}
			if len(acts) > maxActions {
				t.Fatalf("n=%d: %d actions", n, len(acts))
			}
			for i, a := range acts {
				if i > 0 && a.At < acts[i-1].At {
					t.Fatalf("n=%d: action %d at %v after %v", n, i, a.At, acts[i-1].At)
				}
				if a.Kind == ActKill && a.Peer == 0 {
					t.Fatalf("n=%d: root peer 0 killed", n)
				}
				if a.Live < 1 || a.Live > n {
					t.Fatalf("n=%d: action %d leaves %d live", n, i, a.Live)
				}
			}
			again, err := s.Expand(n, nil)
			if err != nil || !reflect.DeepEqual(acts, again) {
				t.Fatalf("n=%d: second expansion differs (err %v)", n, err)
			}
		}
	})
}

// A stagger that out-runs a later event touching the same peer would apply
// in the other order than the expansion drew it — here peer 2 recovered
// before its kill lands, leaving it down while Live read all 4 up.
func TestExpandRefusesOverrunningStagger(t *testing.T) {
	s := mustParse(t, `{"scenario":"x","events":[
		{"kind":"kill","at_ms":0,"peers":[1,2],"stagger_ms":100},
		{"kind":"recover","at_ms":50,"all":true}]}`)
	if _, err := s.Expand(4, nil); err == nil || !strings.Contains(err.Error(), "shorten the stagger") {
		t.Fatalf("err = %v", err)
	}
}
