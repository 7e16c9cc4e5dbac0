package ops

import (
	"slices"
	"time"

	"repro/internal/tuple"
)

// Pane is one sealed run of a window's raws — a time window's slide, or a
// tuple window's g = gcd(RangeN, SlideN) arrivals: their partial Value (nil
// without data), the arrival stamp First of the first, their count N and
// Off = Σ(At − First), an offset that stays small however far the frame
// clock has run.
type Pane struct {
	Value tuple.Value
	First time.Duration
	N     int64
	Off   time.Duration
}

// Panes holds a window's last k panes and the in-order Combine of their
// values, through the copying CombineNilAware, so the queue writes no value
// it holds and the window's value may be one of them. If op's values have a
// bounded size, it is a two-stacks sliding aggregation (Tangwongsan, Hirzel
// and Schneider, VLDB 2015): O(1) amortised Combine calls per pane whatever
// k is. New panes go on back, which keeps their running Combine; when front
// runs out, back flips onto it, each pane stacked with the Combine of
// itself and every newer front pane. Such suffix aggregates would hold a
// growing value — union's entries, entropy's counts — k/2 times over, so
// for other operators the queue keeps only the panes and Value folds them.
type Panes struct {
	k       int
	combine func(a, b tuple.Value) tuple.Value
	into    func(a, b tuple.Value) tuple.Value // in-place Combine, if fold and op has one
	fold    bool
	front   []stackedPane // oldest last
	back    []Pane        // oldest first
	backVal tuple.Value   // unused when fold
}

type stackedPane struct {
	Pane
	agg tuple.Value
}

// NewPanes returns an empty queue of op's last k panes; it grows as panes
// arrive.
func NewPanes(op Operator, k int) *Panes {
	q := &Panes{k: k, combine: CombineNilAware(op)}
	switch op.(type) {
	case Sum, Count, Extremum, Avg, TopK, Bloom, Distinct, Quantile, Trilat: // bounded
	default:
		q.fold = k > 1 // one pane is its own Combine
		if ip, ok := op.(InPlaceCombiner); ok && q.fold {
			q.into = ip.CombineInto
		}
	}
	return q
}

// Push appends p, first evicting and returning the oldest pane if k are
// held — so at k = 1 no two values are ever combined.
func (q *Panes) Push(p Pane) (old Pane, evicted bool) {
	if len(q.front)+len(q.back) == q.k {
		if len(q.front) == 0 {
			var agg tuple.Value
			for i := len(q.back) - 1; i >= 0; i-- {
				if !q.fold {
					agg = q.combine(q.back[i].Value, agg)
				}
				q.front = append(q.front, stackedPane{q.back[i], agg})
			}
			clear(q.back)
			q.back, q.backVal = q.back[:0], nil
		}
		top := len(q.front) - 1
		old, evicted = q.front[top].Pane, true
		q.front[top] = stackedPane{}
		q.front = q.front[:top]
	}
	q.back = append(q.back, p)
	if !q.fold {
		q.backVal = q.combine(q.backVal, p.Value)
	}
	return old, evicted
}

// Value is the Combine of the held panes' values, oldest first; nil if none
// holds data.
func (q *Panes) Value() tuple.Value {
	if q.fold {
		vals := make([]tuple.Value, 0, len(q.front)+len(q.back))
		for i := len(q.front) - 1; i >= 0; i-- {
			vals = append(vals, q.front[i].Value)
		}
		for _, p := range q.back {
			vals = append(vals, p.Value)
		}
		return q.combineAll(slices.DeleteFunc(vals, func(v tuple.Value) bool { return v == nil }))
	}
	if len(q.front) == 0 {
		return q.backVal
	}
	return q.combine(q.front[len(q.front)-1].agg, q.backVal)
}

// combineAll is the in-order Combine of vals: into one accumulator the
// first Combine makes fresh if the operator combines in place, else by
// halves, so that either way a window's worth of values is combined about
// once per level — not once per value, as in a left fold of copies.
func (q *Panes) combineAll(vals []tuple.Value) tuple.Value {
	switch {
	case len(vals) == 0:
		return nil
	case len(vals) == 1:
		return vals[0]
	case q.into != nil:
		acc := q.combine(vals[0], vals[1])
		for _, v := range vals[2:] {
			acc = q.into(acc, v)
		}
		return acc
	}
	h := len(vals) / 2
	return q.combine(q.combineAll(vals[:h]), q.combineAll(vals[h:]))
}

// Oldest returns the oldest pane held; the queue must not be empty.
func (q *Panes) Oldest() Pane {
	if len(q.front) > 0 {
		return q.front[len(q.front)-1].Pane
	}
	return q.back[0]
}
