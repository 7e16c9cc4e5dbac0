package measure

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"sort"
)

// SchemaVersion is bumped whenever results.json changes shape.
const SchemaVersion = 1

// Metric is one reported figure. N is the sample count behind a timing
// (zero for counters and ratios); Values holds every repetition's figure
// when a workload was run more than once, Value being their median.
type Metric struct {
	Value  float64   `json:"value"`
	Unit   string    `json:"unit"`
	N      int       `json:"n,omitempty"`
	Note   string    `json:"note,omitempty"`
	Values []float64 `json:"values,omitempty"`
}

// Check is one output check the runner made.
type Check struct {
	Name   string `json:"name"`
	OK     bool   `json:"ok"`
	Detail string `json:"detail"`
}

// Run is what a single invocation (one workload, traced or not) measured;
// it is the sidecar file the all-workloads mode collects.
type Run struct {
	Workload  string            `json:"workload"`
	Seed      int64             `json:"seed"`
	Seconds   int               `json:"seconds"`
	Traced    bool              `json:"traced"`
	Short     bool              `json:"short"`
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]Metric `json:"metrics"`
	Checks    []Check           `json:"checks"`
}

// WorkloadResult joins a workload's measured and traced runs.
type WorkloadResult struct {
	Name      string            `json:"name"`
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	EndToEnd  map[string]Metric `json:"end_to_end"`
	PerLayer  map[string]Metric `json:"per_layer"`
	// TraceOverheadRatio is (traced − measured) / measured on the run's
	// median result latency: what the probes and spans themselves cost.
	TraceOverheadRatio float64 `json:"trace_overhead_ratio"`
	Checks             []Check `json:"checks"`
}

// Results is results.json.
type Results struct {
	Schema  int   `json:"schema"`
	Seed    int64 `json:"seed"`
	Seconds int   `json:"seconds"`
	// Comparable is false for -short runs: their spans are too brief for
	// the figures to be held against a bound.
	Comparable bool             `json:"comparable"`
	Workloads  []WorkloadResult `json:"workloads"`
}

// Workload returns the named workload's result, or nil.
func (r *Results) Workload(name string) *WorkloadResult {
	for i := range r.Workloads {
		if r.Workloads[i].Name == name {
			return &r.Workloads[i]
		}
	}
	return nil
}

// WriteJSON writes v indented to path.
func WriteJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// ReadJSON decodes the file at path into v.
func ReadJSON(path string, v any) error {
	b, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(b, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

// MetricSpec is one metric's entry in BENCHMARK.json; Bound is zero for
// per-layer metrics, which carry none.
type MetricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// WorkloadSpec is one workload's entry in BENCHMARK.json.
type WorkloadSpec struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

// Benchmark mirrors BENCHMARK.json.
type Benchmark struct {
	Command    []string       `json:"command"`
	Paths      []string       `json:"paths"`
	RunSeconds int            `json:"run_seconds"`
	Workloads  []WorkloadSpec `json:"workloads"`
	EndToEnd   []MetricSpec   `json:"end_to_end"`
	PerLayer   []MetricSpec   `json:"per_layer"`
}

// Spread is the distance between the first and third quartile of xs as a
// share of their median — the figure the acceptance driver holds against a
// metric's bound. It uses the exclusive quartile method of Python's
// statistics.quantiles(xs, n=4) and returns NaN below two values or at a
// zero median.
func Spread(xs []float64) float64 {
	if len(xs) < 2 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	q := func(k int) float64 {
		pos := float64(k) * float64(len(s)+1) / 4
		j := int(pos)
		if j < 1 {
			j = 1
		}
		if j > len(s)-1 {
			j = len(s) - 1
		}
		return s[j-1] + (pos-float64(j))*(s[j]-s[j-1])
	}
	med := q(2)
	if med == 0 {
		return math.NaN()
	}
	return math.Abs((q(3) - q(1)) / med)
}

// Verdicts a comparison can reach.
const (
	OK         = "ok"
	Worse      = "worse"
	Unresolved = "unresolved"
)

// Verdict holds a candidate value against a base under a metric's bound.
// ratio is cand/base. The verdict is Unresolved when there is no usable
// base, or when the base's own run-to-run spread (NaN if unknown) is wider
// than the bound — a difference inside the noise is not "unchanged".
func Verdict(better string, bound, base, cand, baseSpread float64) (ratio float64, verdict string) {
	if base == 0 || math.IsNaN(base) || math.IsNaN(cand) {
		return math.NaN(), Unresolved
	}
	ratio = cand / base
	if !math.IsNaN(baseSpread) && baseSpread > bound {
		return ratio, Unresolved
	}
	worseBy := (cand - base) / math.Abs(base)
	if better == "higher" {
		worseBy = -worseBy
	}
	if worseBy > bound {
		return ratio, Worse
	}
	return ratio, OK
}
