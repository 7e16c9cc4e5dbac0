package ops

import (
	"math/rand"
	"reflect"
	"testing"
	"time"

	"repro/internal/tuple"
)

// seqOp's values are sequences and its Combine concatenates them: associative
// but not commutative, so a Combine taken out of order shows. It counts its
// calls.
type seqOp struct{ calls *int }

// seqInto is seqOp's in-place Combine: it appends b to a's storage.
func (o seqOp) seqInto(a, b tuple.Value) tuple.Value {
	*o.calls++
	return append(a.([]int), b.([]int)...)
}

func (seqOp) Name() string           { return "seq" }
func (seqOp) NewWindow() Window      { return nil }
func (seqOp) Valid(tuple.Value) bool { return true }
func (o seqOp) Combine(a, b tuple.Value) tuple.Value {
	*o.calls++
	x, y := a.([]int), b.([]int)
	return append(append(make([]int, 0, len(x)+len(y)), x...), y...)
}

// TestPanesMatchNaiveFold holds the queue, both as two stacks and as held
// panes folded at Value (pairwise, or into one accumulator), to a left fold over the last k pushed panes, on
// random pushes that include panes without data: the value, the evicted
// pane and the oldest pane all agree. At k = 1 neither form makes a
// Combine call, and the two stacks make at most three per pane.
func TestPanesMatchNaiveFold(t *testing.T) {
	for _, mode := range []struct{ fold, into bool }{{false, false}, {true, false}, {true, true}} {
		fold := mode.fold
		for k := 1; k <= 9; k++ {
			for seed := int64(1); seed <= 5; seed++ {
				rng := rand.New(rand.NewSource(seed))
				calls := 0
				q := &Panes{k: k, combine: CombineNilAware(seqOp{&calls}), fold: fold}
				if mode.into {
					q.into = seqOp{&calls}.seqInto
				}
				var held []Pane
				const pushes = 300
				for i := 0; i < pushes; i++ {
					p := Pane{First: time.Duration(i), N: int64(i), Off: time.Duration(2 * i)}
					if rng.Intn(4) > 0 {
						p.Value = []int{i}
					}
					old, evicted := q.Push(p)
					if wantEvicted := len(held) == k; evicted != wantEvicted ||
						evicted && !reflect.DeepEqual(old, held[0]) {
						t.Fatalf("fold=%v k=%d push %d: evicted %v %+v, want %v %+v", fold, k, i, evicted, old, wantEvicted, held)
					}
					if len(held) == k {
						held = held[1:]
					}
					held = append(held, p)
					var want []int
					for _, h := range held {
						if h.Value != nil {
							want = append(want, h.Value.([]int)...)
						}
					}
					v := q.Value()
					if got, _ := v.([]int); !reflect.DeepEqual(got, want) || (v == nil) != (want == nil) {
						t.Fatalf("fold=%v k=%d push %d: value %v, want %v", fold, k, i, v, want)
					}
					if !reflect.DeepEqual(q.Oldest(), held[0]) {
						t.Fatalf("fold=%v k=%d push %d: oldest %+v, want %+v", fold, k, i, q.Oldest(), held[0])
					}
				}
				if k == 1 && calls != 0 {
					t.Fatalf("fold=%v k=1 made %d Combine calls, want none", fold, calls)
				}
				if !fold && calls > 3*pushes {
					t.Fatalf("k=%d: %d Combine calls for %d pushes and values", k, calls, pushes)
				}
			}
		}
	}
}

// TestPanesFoldOnlyUnboundedValues keeps the two stacks' suffix aggregates
// to operators whose values have a bounded size: a union or a histogram
// value grows with its input, so its queue folds held panes instead.
func TestPanesFoldOnlyUnboundedValues(t *testing.T) {
	for _, name := range []string{"avg", "bloom", "count", "distinct", "entropy", "hist", "max", "min",
		"quantile", "sum", "topk", "trilat", "union"} {
		op, err := New(name, nil)
		if err != nil {
			t.Fatal(err)
		}
		want := name == "entropy" || name == "hist" || name == "union"
		if got := NewPanes(op, 2).fold; got != want {
			t.Errorf("%s: fold %v, want %v", name, got, want)
		}
	}
}
