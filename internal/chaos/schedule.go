// Package chaos is the failure-injection and measurement harness: it runs
// scripted fault schedules against a live federation and records
// completeness-over-time curves, turning the paper's
// completeness-under-failure experiments (Figs 9-13) from simulator-only
// figures into a measured property of the socket runtime. A Schedule —
// parsed from a small JSON DSL — composes fail-stop kills, timed
// recoveries, rolling churn and datagram-loss ramps; Expand flattens it
// into a deterministic, seed-replayable action list; a Runner applies the
// actions to a runtime on the wall clock; and a Recorder samples
// per-window completeness against the schedule's live-node count,
// emitting a CURVE_<scenario>.json time series alongside the bench
// artifacts.
//
// Determinism is the load-bearing property: expansion draws every random
// peer set from the schedule's own seeded source, so the same schedule
// expands to the identical action list in every process of a multi-process
// federation. Each process applies only the actions touching peers it
// hosts (fail-stop gates live at the owning runtime, as in a real
// deployment), yet all processes agree on the global fault pattern and on
// the live-node count the curves are judged against.
package chaos

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"os"
	"regexp"
	"sort"
	"time"
)

// Event kinds understood by the schedule DSL.
const (
	// KindKill fail-stops a set of peers at at_ms: either an explicit
	// "peers" list or a random "frac" of the federation (drawn from
	// currently-live non-root peers). "stagger_ms" spaces the individual
	// kills out instead of dropping them all at one instant.
	KindKill = "kill"
	// KindRecover restarts peers at at_ms: an explicit "peers" list or
	// "all" for everything currently down. "stagger_ms" staggers the
	// restarts.
	KindRecover = "recover"
	// KindChurn rolls failures through [at_ms, until_ms): every
	// "every_ms" it kills "count" random live non-root peers and restarts
	// "count" random down peers, modeling steady membership churn.
	KindChurn = "churn"
	// KindLossRamp sweeps the global datagram-loss probability linearly
	// "from" -> "to" across [at_ms, until_ms] in "step_ms" increments,
	// leaving it at "to".
	KindLossRamp = "loss-ramp"
)

// Event is one entry of a schedule, in the JSON form the DSL uses. Which
// fields are meaningful depends on Kind; Validate rejects contradictory
// combinations.
type Event struct {
	Kind      string  `json:"kind"`
	AtMs      int64   `json:"at_ms"`
	UntilMs   int64   `json:"until_ms,omitempty"`
	Peers     []int   `json:"peers,omitempty"`
	Frac      float64 `json:"frac,omitempty"`
	All       bool    `json:"all,omitempty"`
	StaggerMs int64   `json:"stagger_ms,omitempty"`
	EveryMs   int64   `json:"every_ms,omitempty"`
	Count     int     `json:"count,omitempty"`
	From      float64 `json:"from,omitempty"`
	To        float64 `json:"to,omitempty"`
	StepMs    int64   `json:"step_ms,omitempty"`
}

// Schedule is a parsed fault schedule: a scenario name (it becomes the
// CURVE_<scenario>.json filename), the seed every random draw derives
// from, the recorder's sampling period, and the event list. Times are
// milliseconds relative to the moment the Runner starts.
type Schedule struct {
	Scenario string  `json:"scenario"`
	Seed     int64   `json:"seed"`
	SampleMs int64   `json:"sample_ms,omitempty"`
	Events   []Event `json:"events"`
}

// DefaultSampleMs is the recorder period when the schedule leaves
// sample_ms unset.
const DefaultSampleMs = 500

// maxActions bounds one schedule's expansion; a churn interval misstated
// in microseconds would otherwise expand into millions of actions.
const maxActions = 1 << 20

// maxMs is the latest time, in ms, a time.Duration can hold; a time past it
// would wrap negative, sort first and fire at once.
const maxMs = math.MaxInt64 / int64(time.Millisecond)

var scenarioRe = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_-]*$`)

// Parse decodes and validates a schedule. Unknown fields are rejected —
// in a fault DSL a typoed knob silently defaulting to zero would run a
// different experiment than the one written.
func Parse(data []byte) (*Schedule, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var s Schedule
	if err := dec.Decode(&s); err != nil {
		return nil, fmt.Errorf("chaos: parse schedule: %w", err)
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return &s, nil
}

// Load reads and parses a schedule file.
func Load(path string) (*Schedule, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("chaos: %w", err)
	}
	return Parse(b)
}

// Validate checks the schedule's internal consistency: well-formed
// scenario name, times inside [0, maxMs], positive intervals, exactly one
// target form per event, no kill of root peer 0, probabilities inside
// [0, 1], and no two interval events of the same kind overlapping — an
// overlap would make the later event's effect order-dependent.
func (s *Schedule) Validate() error {
	if !scenarioRe.MatchString(s.Scenario) {
		return fmt.Errorf("chaos: scenario %q must be a [A-Za-z0-9_-]+ name (it names the curve file)", s.Scenario)
	}
	if s.SampleMs < 0 || s.SampleMs > maxMs {
		return fmt.Errorf("chaos: sample_ms %d outside [0, %d]", s.SampleMs, maxMs)
	}
	for i, e := range s.Events {
		at := fmt.Sprintf("chaos: event %d (%s)", i, e.Kind)
		switch e.Kind {
		case KindKill:
			if (len(e.Peers) > 0) == (e.Frac > 0) {
				return fmt.Errorf("%s: exactly one of peers / frac must be set", at)
			}
			if e.Frac < 0 || e.Frac > 1 {
				return fmt.Errorf("%s: frac %g outside [0, 1]", at, e.Frac)
			}
			for _, p := range e.Peers {
				if p == 0 {
					return fmt.Errorf("%s: peer 0 hosts the query roots and is never killed", at)
				}
			}
		case KindRecover:
			if (len(e.Peers) > 0) == e.All {
				return fmt.Errorf("%s: exactly one of peers / all must be set", at)
			}
		case KindChurn:
			if e.EveryMs <= 0 {
				return fmt.Errorf("%s: every_ms must be positive", at)
			}
			if e.Count <= 0 {
				return fmt.Errorf("%s: count must be positive", at)
			}
		case KindLossRamp:
			if e.From < 0 || e.From > 1 || e.To < 0 || e.To > 1 {
				return fmt.Errorf("%s: loss bounds [%g, %g] outside [0, 1]", at, e.From, e.To)
			}
			if e.StepMs <= 0 {
				return fmt.Errorf("%s: step_ms must be positive", at)
			}
		default:
			return fmt.Errorf("%s: unknown kind", at)
		}
		if e.AtMs < 0 {
			return fmt.Errorf("%s: at_ms %d is negative", at, e.AtMs)
		}
		if e.AtMs > maxMs || e.UntilMs > maxMs {
			return fmt.Errorf("%s: time past %d ms overflows a time.Duration", at, maxMs)
		}
		if e.Kind == KindChurn || e.Kind == KindLossRamp {
			if e.UntilMs <= e.AtMs {
				return fmt.Errorf("%s: interval [%d, %d) is empty or negative", at, e.AtMs, e.UntilMs)
			}
		} else if e.UntilMs != 0 {
			return fmt.Errorf("%s: until_ms only applies to interval events (churn, loss-ramp)", at)
		}
		if e.StaggerMs < 0 {
			return fmt.Errorf("%s: stagger_ms %d is negative", at, e.StaggerMs)
		}
		for _, p := range e.Peers {
			if p < 0 {
				return fmt.Errorf("%s: negative peer index %d", at, p)
			}
		}
	}
	// Same-kind interval overlap (only intervals have an until_ms): sort by
	// kind and start, check neighbors.
	type span struct {
		kind     string
		from, to int64
		idx      int
	}
	var spans []span
	for i, e := range s.Events {
		if e.UntilMs > 0 {
			spans = append(spans, span{e.Kind, e.AtMs, e.UntilMs, i})
		}
	}
	sort.Slice(spans, func(a, b int) bool {
		if spans[a].kind != spans[b].kind {
			return spans[a].kind < spans[b].kind
		}
		return spans[a].from < spans[b].from
	})
	for i := 1; i < len(spans); i++ {
		a, b := spans[i-1], spans[i]
		if a.kind == b.kind && b.from < a.to {
			return fmt.Errorf("chaos: events %d and %d: overlapping %s intervals [%d, %d) and [%d, %d)",
				a.idx, b.idx, a.kind, a.from, a.to, b.from, b.to)
		}
	}
	return nil
}

// SamplePeriod returns the recorder period the schedule asks for.
func (s *Schedule) SamplePeriod() time.Duration {
	if s.SampleMs <= 0 {
		return DefaultSampleMs * time.Millisecond
	}
	return time.Duration(s.SampleMs) * time.Millisecond
}

// ActionKind tags one primitive action of an expanded schedule.
type ActionKind int

const (
	// ActKill gates one peer down (fail-stop at its owning runtime).
	ActKill ActionKind = iota
	// ActRecover lifts one peer's gate.
	ActRecover
	// ActLoss sets the global datagram-loss probability.
	ActLoss
)

func (k ActionKind) String() string {
	switch k {
	case ActKill:
		return "kill"
	case ActRecover:
		return "recover"
	case ActLoss:
		return "loss"
	}
	return fmt.Sprintf("ActionKind(%d)", int(k))
}

// Action is one primitive, timed fault operation. Peer is -1 for ActLoss.
// Live is the federation's live-node count once this action has applied —
// the schedule's own ground truth, identical in every process, which is
// what the recorder plots completeness against (a process's local Down
// view cannot see peers failed in another process).
type Action struct {
	At   time.Duration
	Kind ActionKind
	Peer int
	Loss float64
	Live int
}

// occurrence is one timed draw a schedule event generates: a churn beat, a
// ramp step, or a point event's single moment.
type occurrence struct {
	at    int64 // ms
	event int   // index into s.Events
}

// occurrences counts the draws e generates — one per period started in
// [at_ms, until_ms), plus a ramp's end; one for a point event — so an
// oversized interval is refused before it allocates.
func (e Event) occurrences() int64 {
	switch e.Kind {
	case KindChurn:
		return (e.UntilMs-e.AtMs-1)/e.EveryMs + 1
	case KindLossRamp:
		return (e.UntilMs-e.AtMs-1)/e.StepMs + 2
	}
	return 1
}

// Expand flattens the schedule into a time-sorted primitive action list
// for an n-peer federation. The second argument is ignored; it stays so
// the callers that pass nil (bench/ among them) keep compiling. Random draws
// (kill fractions, churn victims, recovery order) come from a source
// seeded with s.Seed and are consumed in global time order, so Expand is a
// pure function of (schedule, n): every process replays the identical
// fault pattern, and re-running a scenario reproduces its curve.
//
// Peer 0 is never killed: it hosts the query roots and the recorder — the
// paper's measurement workstation, which its failure experiments likewise
// keep alive.
func (s *Schedule) Expand(n int, _ [][]int) ([]Action, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	if n <= 0 {
		return nil, fmt.Errorf("chaos: expand over %d peers", n)
	}
	var total int64
	for _, e := range s.Events {
		for _, p := range e.Peers {
			if p >= n {
				return nil, fmt.Errorf("chaos: event targets peer %d outside federation of %d", p, n)
			}
		}
		last := int64(n - 2) // a drawn set holds at most the n-1 non-root peers
		if len(e.Peers) > 0 {
			last = int64(len(e.Peers) - 1)
		}
		if e.StaggerMs > 0 && last > (maxMs-e.AtMs)/e.StaggerMs {
			return nil, fmt.Errorf("chaos: stagger_ms %d pushes a %s past %d ms", e.StaggerMs, e.Kind, maxMs)
		}
		if total += e.occurrences(); total > maxActions {
			return nil, fmt.Errorf("chaos: schedule expands past %d actions", maxActions)
		}
	}

	// Generate every occurrence, then order them globally in time (stable
	// on event order) so state-dependent draws see a consistent model.
	// at_ms + k·step stays below until_ms, so no time can wrap; a ramp's
	// end, past all its steps, sorts after them.
	occs := make([]occurrence, 0, total)
	for i, e := range s.Events {
		step, beats := e.EveryMs, e.occurrences()
		if e.Kind == KindLossRamp {
			step, beats = e.StepMs, beats-1
			occs = append(occs, occurrence{at: e.UntilMs, event: i})
		}
		for k := int64(0); k < beats; k++ {
			occs = append(occs, occurrence{at: e.AtMs + k*step, event: i})
		}
	}
	sort.SliceStable(occs, func(a, b int) bool { return occs[a].at < occs[b].at })

	rng := rand.New(rand.NewSource(s.Seed))
	down := make([]bool, n)
	var acts []Action

	// gated lists the non-root peers whose gate reads isDown in ascending
	// order — the stable candidate set random draws shuffle.
	gated := func(isDown bool) []int {
		var ps []int
		for p := 1; p < n; p++ {
			if down[p] == isDown {
				ps = append(ps, p)
			}
		}
		return ps
	}
	// emit appends per-peer kill/recover actions spaced stagger apart from
	// base, updating the model immediately (draws at later occurrences see
	// the whole set applied).
	emit := func(kind ActionKind, peers []int, baseMs, staggerMs int64) {
		for i, p := range peers {
			if down[p] == (kind == ActKill) {
				continue // already in the target state
			}
			down[p] = kind == ActKill
			acts = append(acts, Action{
				At:   time.Duration(baseMs+int64(i)*staggerMs) * time.Millisecond,
				Kind: kind,
				Peer: p,
			})
		}
	}

	for _, oc := range occs {
		e := s.Events[oc.event]
		switch e.Kind {
		case KindKill:
			var victims []int
			if len(e.Peers) > 0 {
				victims = e.Peers
			} else {
				up := gated(false)
				want := min(int(e.Frac*float64(n)+0.5), len(up))
				rng.Shuffle(len(up), func(a, b int) { up[a], up[b] = up[b], up[a] })
				victims = up[:want]
			}
			emit(ActKill, victims, oc.at, e.StaggerMs)
		case KindRecover:
			var back []int
			if len(e.Peers) > 0 {
				back = e.Peers
			} else {
				back = gated(true)
				rng.Shuffle(len(back), func(a, b int) { back[a], back[b] = back[b], back[a] })
			}
			emit(ActRecover, back, oc.at, e.StaggerMs)
		case KindChurn:
			up := gated(false)
			want := min(e.Count, len(up))
			rng.Shuffle(len(up), func(a, b int) { up[a], up[b] = up[b], up[a] })
			dn := gated(true)
			rng.Shuffle(len(dn), func(a, b int) { dn[a], dn[b] = dn[b], dn[a] })
			if len(dn) > e.Count {
				dn = dn[:e.Count]
			}
			emit(ActKill, up[:want], oc.at, 0)
			emit(ActRecover, dn, oc.at, 0)
		case KindLossRamp:
			frac := float64(oc.at-e.AtMs) / float64(e.UntilMs-e.AtMs)
			acts = append(acts, Action{
				At:   time.Duration(oc.at) * time.Millisecond,
				Kind: ActLoss,
				Peer: -1,
				Loss: e.From + (e.To-e.From)*frac,
			})
		}
		if len(acts) > maxActions {
			return nil, fmt.Errorf("chaos: schedule expands past %d actions", maxActions)
		}
	}

	// Staggered applications can out-run later occurrences; the final
	// order is by wall time, stable on generation order. Then replay the
	// gate actions once more, from every peer up, to stamp each action with
	// the live count the federation has after it applies. A stagger that
	// lands after a later event already changed the same peer would apply
	// in the other order than the model drew it: refused.
	sort.SliceStable(acts, func(a, b int) bool { return acts[a].At < acts[b].At })
	clear(down)
	live := n
	for i, a := range acts {
		if a.Kind != ActLoss {
			if down[a.Peer] == (a.Kind == ActKill) {
				return nil, fmt.Errorf("chaos: peer %d's %s at %v lands after a later event's; shorten the stagger", a.Peer, a.Kind, a.At)
			}
			down[a.Peer] = a.Kind == ActKill
			if down[a.Peer] {
				live--
			} else {
				live++
			}
		}
		acts[i].Live = live
	}
	return acts, nil
}

// FaultSpan returns the time range [start, end] over which the expanded
// schedule holds peers down: start is the first kill, end the last gate
// change (the final recovery, or the last kill of a schedule that never
// recovers). ok is false for schedules that kill nothing (pure loss
// scenarios).
func FaultSpan(acts []Action) (start, end time.Duration, ok bool) {
	for _, a := range acts {
		if a.Kind != ActKill && a.Kind != ActRecover {
			continue
		}
		if !ok {
			start = a.At
			ok = true
		}
		end = a.At
	}
	return start, end, ok
}
