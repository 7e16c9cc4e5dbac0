package ops

import "repro/internal/tuple"

// Hist aggregates a histogram over tuple keys without finalization — the
// aggregated value IS the histogram. The experiment harness uses it as an
// instrumentation operator: sensors stamp each tuple's key with its
// ground-truth window so the root can measure true completeness and tuple
// dispersion (§5) without altering the runtime's behaviour.
type Hist struct{}

// Name implements Operator.
func (Hist) Name() string { return "hist" }

// NewWindow implements Operator.
func (Hist) NewWindow() Window { return &histWindow{counts: map[string]float64{}} }

// Combine implements Operator.
func (Hist) Combine(a, b tuple.Value) tuple.Value { return Entropy{}.Combine(a, b) }

// Valid implements Operator.
func (Hist) Valid(v tuple.Value) bool { return shaped[map[string]float64](v) }

// CombineInto implements InPlaceCombiner.
func (Hist) CombineInto(a, b tuple.Value) tuple.Value { return Entropy{}.CombineInto(a, b) }

func init() {
	Register("hist", func(args []string) (Operator, error) { return Hist{}, nil })
}
