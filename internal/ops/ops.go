// Package ops implements Mortar's in-network operator API and the built-in
// operator suite. An operator's Window merges raw tuples ("merging across
// time") and its Combine merges summary values ("merging across space",
// §4). Because the time-division data model guarantees duplicate-free
// operation, user-defined aggregates need no duplicate- or order-
// insensitive synopses. The paper's API (§2.2) also has a remove, called as
// tuples exit the window; here a window is kept as panes and is the Combine
// of its live panes (Panes), so a tuple leaves with its pane: merge plus
// Combine over panes subsumes remove, and no operator implements it.
package ops

import (
	"errors"
	"math"
	"slices"
	"sort"
	"strings"

	"repro/internal/tuple"
	"repro/internal/wire"
)

// Window is an operator's local computation over the raw tuples of one
// pane ("merging across time", §4). A window only ever grows: the runtime
// seals it with Value when its pane closes and starts a fresh one, and
// builds a window spanning several panes with the operator's Combine.
type Window interface {
	// Merge injects a batch of new tuples into the window, in arrival
	// order; Merge() with no tuples changes nothing. The slice stays the
	// caller's, who may overwrite it once Merge returns: a window that keeps
	// a tuple keeps its own copy of it.
	Merge(ts ...tuple.Raw)
	// Value returns the summary value of the current window contents, or
	// nil if the window holds no data.
	Value() tuple.Value
}

// Operator defines an in-network operator type. One operator type defines a
// query (§2.2); its Combine is used by the time-space list to merge summary
// tuples from different children ("merging across space").
type Operator interface {
	// Name identifies the operator type.
	Name() string
	// NewWindow creates fresh local window state.
	NewWindow() Window
	// Combine merges two summary values belonging to the same window index.
	// It must be commutative and associative, and must treat values as
	// disjoint contributions (the data model guarantees no duplicates).
	Combine(a, b tuple.Value) tuple.Value
	// Valid reports whether v has the shape of the operator's summary
	// values: their kind and, where the operator fixes one, their length.
	// nil, the value a boundary summary carries, is valid. A peer drops an
	// arriving summary whose value is not, so Combine and Finalize only
	// ever see values of their own shape.
	Valid(v tuple.Value) bool
}

// shaped reports whether v is nil or a T.
func shaped[T any](v tuple.Value) bool {
	_, ok := v.(T)
	return ok || v == nil
}

// sized reports whether v is nil or a []T of n elements.
func sized[T any](v tuple.Value, n int) bool {
	x, ok := v.([]T)
	return ok && len(x) == n || v == nil
}

// Finalizer is implemented by operators whose partial value differs from
// the user-facing result (e.g. avg carries [sum, count]; entropy carries a
// histogram).
type Finalizer interface {
	Finalize(v tuple.Value) tuple.Value
}

// CombineNilAware wraps an operator's Combine with identity handling for
// nil operands, which arise from boundary tuples.
func CombineNilAware(op Operator) func(a, b tuple.Value) tuple.Value {
	return func(a, b tuple.Value) tuple.Value {
		if a == nil {
			return b
		}
		if b == nil {
			return a
		}
		return op.Combine(a, b)
	}
}

// InPlaceCombiner is implemented by operators whose Combine can fold b
// into a's storage, returning a (same boxed value) instead of allocating a
// fresh one. CombineInto must leave b unmodified and must be equivalent to
// Combine(a, b) in result. Callers must hold exclusive ownership of a.
type InPlaceCombiner interface {
	CombineInto(a, b tuple.Value) tuple.Value
}

// CombineInPlaceNilAware returns a nil-aware combiner that folds b into
// a's storage when the operator supports it, falling back to the copying
// CombineNilAware otherwise. Only use it where the destination value is
// exclusively owned: in the time-space list that holds for time-window
// operators, whose slide-aligned indices mean entries never split, so no
// value is ever shared between entries.
func CombineInPlaceNilAware(op Operator) func(a, b tuple.Value) tuple.Value {
	ip, ok := op.(InPlaceCombiner)
	if !ok {
		return CombineNilAware(op)
	}
	return func(a, b tuple.Value) tuple.Value {
		if a == nil {
			return b
		}
		if b == nil {
			return a
		}
		return ip.CombineInto(a, b)
	}
}

// CheckWindow rejects a window the operator cannot compute. A window of
// several panes is the Combine of their partials, so it needs a Combine
// that merges partial aggregates; Trilat's keeps one of two positions, so
// trilat needs a one-pane window.
func CheckWindow(op Operator, w tuple.WindowSpec) error {
	if _, whole := op.(Trilat); whole && w.Panes() != 1 {
		return errors.New("ops: trilat does not combine partials: its window must be one pane (time: range == slide; tuples: range divides slide)")
	}
	return nil
}

func field(t tuple.Raw, i int) float64 {
	if i < len(t.Vals) {
		return t.Vals[i]
	}
	return 0
}

// --- Sum ---

// Sum aggregates the sum of one field across all sources.
type Sum struct{ Field int }

// Name implements Operator.
func (s Sum) Name() string { return "sum" }

// NewWindow implements Operator.
func (s Sum) NewWindow() Window { return &sumWindow{field: s.Field} }

// Combine implements Operator.
func (s Sum) Combine(a, b tuple.Value) tuple.Value { return a.(float64) + b.(float64) }

// Valid implements Operator.
func (Sum) Valid(v tuple.Value) bool { return shaped[float64](v) }

type sumWindow struct {
	field int
	sum   float64
	n     int
}

func (w *sumWindow) Merge(ts ...tuple.Raw) {
	sum := w.sum
	for i := range ts {
		sum += field(ts[i], w.field)
	}
	w.sum, w.n = sum, w.n+len(ts)
}
func (w *sumWindow) Value() tuple.Value {
	if w.n == 0 {
		return nil
	}
	return w.sum
}

// --- Count ---

// Count counts tuples across all sources.
type Count struct{}

// Name implements Operator.
func (Count) Name() string { return "count" }

// NewWindow implements Operator.
func (Count) NewWindow() Window { return &countWindow{} }

// Combine implements Operator.
func (Count) Combine(a, b tuple.Value) tuple.Value { return a.(float64) + b.(float64) }

// Valid implements Operator.
func (Count) Valid(v tuple.Value) bool { return shaped[float64](v) }

type countWindow struct{ n int }

func (w *countWindow) Merge(ts ...tuple.Raw) { w.n += len(ts) }
func (w *countWindow) Value() tuple.Value {
	if w.n == 0 {
		return nil
	}
	return float64(w.n)
}

// --- Min / Max ---

// Extremum aggregates the minimum or maximum of a field.
type Extremum struct {
	Field int
	Max   bool
}

// Name implements Operator.
func (e Extremum) Name() string {
	if e.Max {
		return "max"
	}
	return "min"
}

// NewWindow implements Operator.
func (e Extremum) NewWindow() Window { return &extWindow{op: e} }

// Combine implements Operator. It returns the winning operand itself:
// re-boxing its float64 would allocate.
func (e Extremum) Combine(a, b tuple.Value) tuple.Value {
	if e.Max == (a.(float64) > b.(float64)) {
		return a
	}
	return b
}

// Valid implements Operator.
func (Extremum) Valid(v tuple.Value) bool { return shaped[float64](v) }

// extWindow keeps the running best: the first value, then each later one
// that beats it, so ties and NaNs resolve in arrival order.
type extWindow struct {
	op   Extremum
	best float64
	seen bool
}

func (w *extWindow) Merge(ts ...tuple.Raw) {
	best, seen := w.best, w.seen
	for i := range ts {
		if v := field(ts[i], w.op.Field); !seen || w.op.Max == (v > best) {
			best, seen = v, true
		}
	}
	w.best, w.seen = best, seen
}
func (w *extWindow) Value() tuple.Value {
	if !w.seen {
		return nil
	}
	return w.best
}

// --- Avg ---

// Avg aggregates the mean of a field. Its partial value is [sum, count];
// Finalize divides.
type Avg struct{ Field int }

// Name implements Operator.
func (Avg) Name() string { return "avg" }

// NewWindow implements Operator.
func (a Avg) NewWindow() Window { return &avgWindow{field: a.Field} }

// Combine implements Operator.
func (Avg) Combine(a, b tuple.Value) tuple.Value {
	x, y := a.([]float64), b.([]float64)
	return []float64{x[0] + y[0], x[1] + y[1]}
}

// Valid implements Operator: a [sum, count] pair.
func (Avg) Valid(v tuple.Value) bool { return sized[float64](v, 2) }

// CombineInto implements InPlaceCombiner: the [sum, count] pair
// accumulates into a's storage. Returning a (not the unboxed slice) keeps
// the path allocation-free — re-boxing a slice header allocates.
func (Avg) CombineInto(a, b tuple.Value) tuple.Value {
	x, y := a.([]float64), b.([]float64)
	x[0] += y[0]
	x[1] += y[1]
	return a
}

// Finalize implements Finalizer.
func (Avg) Finalize(v tuple.Value) tuple.Value {
	x := v.([]float64)
	if x[1] == 0 {
		return float64(0)
	}
	return x[0] / x[1]
}

type avgWindow struct {
	field int
	sum   float64
	n     float64
}

func (w *avgWindow) Merge(ts ...tuple.Raw) {
	sum := w.sum
	for i := range ts {
		sum += field(ts[i], w.field)
	}
	w.sum, w.n = sum, w.n+float64(len(ts))
}
func (w *avgWindow) Value() tuple.Value {
	if w.n == 0 {
		return nil
	}
	return []float64{w.sum, w.n}
}

// --- TopK ---

// TopK keeps the k highest-scoring keys; the score is the given field, and
// remaining fields travel as the entry payload. The Wi-Fi location query
// uses topk(3) over RSSI (§7.4).
type TopK struct {
	K     int
	Field int
}

// Name implements Operator.
func (TopK) Name() string { return "topk" }

// NewWindow implements Operator.
func (t TopK) NewWindow() Window { return &topkWindow{op: t, best: map[string]wire.ScoredEntry{}} }

// Combine implements Operator.
func (t TopK) Combine(a, b tuple.Value) tuple.Value {
	merged := map[string]wire.ScoredEntry{}
	for _, list := range []tuple.Value{a, b} {
		for _, e := range list.([]wire.ScoredEntry) {
			if old, ok := merged[e.Key]; !ok || e.Score > old.Score {
				merged[e.Key] = e
			}
		}
	}
	return topOf(merged, t.K)
}

// Valid implements Operator.
func (TopK) Valid(v tuple.Value) bool { return shaped[[]wire.ScoredEntry](v) }

func topOf(m map[string]wire.ScoredEntry, k int) []wire.ScoredEntry {
	out := make([]wire.ScoredEntry, 0, len(m))
	for _, e := range m {
		out = append(out, e)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Score != out[j].Score {
			return out[i].Score > out[j].Score
		}
		return out[i].Key < out[j].Key // deterministic ties
	})
	if len(out) > k {
		out = out[:k]
	}
	return out
}

type topkWindow struct {
	op   TopK
	best map[string]wire.ScoredEntry
}

// Merge makes each tuple its key's entry in best if it outscores the
// current one (the earliest arrival wins a tie).
func (w *topkWindow) Merge(ts ...tuple.Raw) {
	for _, t := range ts {
		score := field(t, w.op.Field)
		if old, ok := w.best[t.Key]; !ok || score > old.Score {
			var payload []float64
			for i, v := range t.Vals {
				if i != w.op.Field {
					payload = append(payload, v)
				}
			}
			w.best[t.Key] = wire.ScoredEntry{Key: t.Key, Score: score, Payload: payload}
		}
	}
}

func (w *topkWindow) Value() tuple.Value {
	if len(w.best) == 0 {
		return nil
	}
	return topOf(w.best, w.op.K)
}

// --- Union ---

// Union collects tuples from all sources without aggregation, as entries
// keyed by source. Mortar uses a union query to bring network coordinates
// to the compiling peer (§3.1).
type Union struct{}

// Name implements Operator.
func (Union) Name() string { return "union" }

// NewWindow implements Operator.
func (Union) NewWindow() Window { return &unionWindow{} }

// Combine implements Operator: the entries of both, sorted by key. Union
// values are sorted, so this is one merge pass (a's entries first among
// equal keys); an input that is not sorted is sorted with the rest.
func (Union) Combine(a, b tuple.Value) tuple.Value {
	x := a.([]wire.ScoredEntry)
	y := b.([]wire.ScoredEntry)
	out := make([]wire.ScoredEntry, 0, len(x)+len(y))
	byKey := func(e, f wire.ScoredEntry) int { return strings.Compare(e.Key, f.Key) }
	if !slices.IsSortedFunc(x, byKey) || !slices.IsSortedFunc(y, byKey) {
		out = append(append(out, x...), y...)
		sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
		return out
	}
	for len(x) > 0 && len(y) > 0 {
		if y[0].Key < x[0].Key {
			out, y = append(out, y[0]), y[1:]
		} else {
			out, x = append(out, x[0]), x[1:]
		}
	}
	return append(append(out, x...), y...)
}

// Valid implements Operator.
func (Union) Valid(v tuple.Value) bool { return shaped[[]wire.ScoredEntry](v) }

type unionWindow struct {
	items []wire.ScoredEntry
}

func (w *unionWindow) Merge(ts ...tuple.Raw) {
	for _, t := range ts {
		w.items = append(w.items, wire.ScoredEntry{Key: t.Key, Payload: append([]float64(nil), t.Vals...)})
	}
}

func (w *unionWindow) Value() tuple.Value {
	if len(w.items) == 0 {
		return nil
	}
	return Union{}.Combine(w.items, []wire.ScoredEntry(nil)) // a sorted copy
}

// --- Entropy ---

// Entropy aggregates a histogram over tuple keys; Finalize computes the
// Shannon entropy in bits. The paper motivates it for detecting anomalous
// traffic features (§2.2).
type Entropy struct{}

// Name implements Operator.
func (Entropy) Name() string { return "entropy" }

// NewWindow implements Operator.
func (Entropy) NewWindow() Window { return &histWindow{counts: map[string]float64{}} }

// Combine implements Operator.
func (Entropy) Combine(a, b tuple.Value) tuple.Value {
	x := a.(map[string]float64)
	y := b.(map[string]float64)
	out := make(map[string]float64, len(x)+len(y))
	for k, v := range x {
		out[k] = v
	}
	for k, v := range y {
		out[k] += v
	}
	return out
}

// Valid implements Operator.
func (Entropy) Valid(v tuple.Value) bool { return shaped[map[string]float64](v) }

// CombineInto implements InPlaceCombiner: b's histogram folds into a's map
// (maps are pointer-shaped, so returning a is allocation-free; the map
// only grows when b carries unseen keys).
func (Entropy) CombineInto(a, b tuple.Value) tuple.Value {
	x := a.(map[string]float64)
	for k, v := range b.(map[string]float64) {
		x[k] += v
	}
	return a
}

// Finalize implements Finalizer: Shannon entropy of the histogram, in bits.
func (Entropy) Finalize(v tuple.Value) tuple.Value {
	h := v.(map[string]float64)
	var total float64
	for _, c := range h {
		total += c
	}
	if total == 0 {
		return float64(0)
	}
	var ent float64
	for _, c := range h {
		if c > 0 {
			p := c / total
			ent -= p * math.Log2(p)
		}
	}
	return ent
}

type histWindow struct{ counts map[string]float64 }

func (w *histWindow) Merge(ts ...tuple.Raw) {
	for i := range ts {
		w.counts[ts[i].Key]++
	}
}
func (w *histWindow) Value() tuple.Value {
	if len(w.counts) == 0 {
		return nil
	}
	out := make(map[string]float64, len(w.counts))
	for k, v := range w.counts {
		out[k] = v
	}
	return out
}

// --- Bloom ---

// Bloom maintains a Bloom-filter index over tuple keys (the paper's example
// of a user-defined aggregate for maintaining an index). Partial filters
// from different children combine by bitwise OR.
type Bloom struct {
	// Bits is the filter size in bits (must be a power of two); Hashes the
	// number of hash functions.
	Bits   int
	Hashes int
}

// DefaultBloom returns a 1024-bit filter with 3 hashes.
func DefaultBloom() Bloom { return Bloom{Bits: 1024, Hashes: 3} }

// Name implements Operator.
func (Bloom) Name() string { return "bloom" }

// NewWindow implements Operator.
func (b Bloom) NewWindow() Window { return &bloomWindow{op: b, keys: map[string]struct{}{}} }

// Combine implements Operator.
func (b Bloom) Combine(a, c tuple.Value) tuple.Value {
	x := a.([]uint64)
	y := c.([]uint64)
	out := make([]uint64, len(x))
	copy(out, x)
	for i := range y {
		if i < len(out) {
			out[i] |= y[i]
		}
	}
	return out
}

// Valid implements Operator: a filter of this one's size.
func (b Bloom) Valid(v tuple.Value) bool { return sized[uint64](v, b.words()) }

// words is the filter's length in 64-bit words.
func (b Bloom) words() int { return (b.Bits + 63) / 64 }

// CombineInto implements InPlaceCombiner: c's filter ORs into a's words.
func (b Bloom) CombineInto(a, c tuple.Value) tuple.Value {
	x := a.([]uint64)
	for i, w := range c.([]uint64) {
		if i < len(x) {
			x[i] |= w
		}
	}
	return a
}

// Contains tests membership of key in an aggregated filter value.
func (b Bloom) Contains(v tuple.Value, key string) bool {
	bits := v.([]uint64)
	for h := 0; h < b.Hashes; h++ {
		i := b.position(key, h)
		if bits[i/64]&(1<<(i%64)) == 0 {
			return false
		}
	}
	return true
}

func (b Bloom) position(key string, h int) int {
	// FNV-1a with per-hash seed.
	hash := uint64(14695981039346656037) ^ uint64(h)*0x9E3779B97F4A7C15
	for i := 0; i < len(key); i++ {
		hash ^= uint64(key[i])
		hash *= 1099511628211
	}
	return int(hash % uint64(b.Bits))
}

type bloomWindow struct {
	op   Bloom
	keys map[string]struct{}
}

func (w *bloomWindow) Merge(ts ...tuple.Raw) {
	for i := range ts {
		w.keys[ts[i].Key] = struct{}{}
	}
}
func (w *bloomWindow) Value() tuple.Value {
	if len(w.keys) == 0 {
		return nil
	}
	bits := make([]uint64, w.op.words())
	for k := range w.keys {
		for h := 0; h < w.op.Hashes; h++ {
			i := w.op.position(k, h)
			bits[i/64] |= 1 << (i % 64)
		}
	}
	return bits
}

// --- Quantile ---

// Quantile estimates a quantile of a field by merging bounded uniform
// samples.
type Quantile struct {
	Field int
	Q     float64 // in (0,1)
	Cap   int     // sample bound per summary
}

// DefaultQuantile returns a median estimator with 128-element samples.
func DefaultQuantile() Quantile { return Quantile{Q: 0.5, Cap: 128} }

// Name implements Operator.
func (Quantile) Name() string { return "quantile" }

// NewWindow implements Operator.
func (q Quantile) NewWindow() Window { return &quantWindow{op: q} }

// Combine implements Operator: concatenate and down-sample.
func (q Quantile) Combine(a, b tuple.Value) tuple.Value {
	return q.sample(append(append([]float64(nil), a.([]float64)...), b.([]float64)...))
}

// Valid implements Operator.
func (Quantile) Valid(v tuple.Value) bool { return shaped[[]float64](v) }

// sample sorts x in place and, while it exceeds the cap, keeps every other
// element — deterministic, so a window's Value is the Combine of its panes'
// for as long as it holds at most Cap values.
func (q Quantile) sample(x []float64) []float64 {
	sort.Float64s(x)
	for len(x) > q.Cap {
		half := x[:0]
		for i := 0; i < len(x); i += 2 {
			half = append(half, x[i])
		}
		x = half
	}
	return x
}

// Finalize implements Finalizer: the q'th quantile of the sample.
func (q Quantile) Finalize(v tuple.Value) tuple.Value {
	x := append([]float64(nil), v.([]float64)...)
	if len(x) == 0 {
		return float64(0)
	}
	sort.Float64s(x)
	idx := int(q.Q * float64(len(x)-1))
	return x[idx]
}

type quantWindow struct {
	op   Quantile
	vals []float64
}

func (w *quantWindow) Merge(ts ...tuple.Raw) {
	for i := range ts {
		w.vals = append(w.vals, field(ts[i], w.op.Field))
	}
}
func (w *quantWindow) Value() tuple.Value {
	if len(w.vals) == 0 {
		return nil
	}
	return w.op.sample(append([]float64(nil), w.vals...))
}
