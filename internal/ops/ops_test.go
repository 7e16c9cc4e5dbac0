package ops

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/tuple"
	"repro/internal/wire"
)

func raw(key string, at time.Duration, vals ...float64) tuple.Raw {
	return tuple.Raw{Key: key, Vals: vals, At: at}
}

func TestSumWindowMergeRemove(t *testing.T) {
	w := Sum{}.NewWindow()
	if w.Value() != nil {
		t.Fatal("empty window must yield nil")
	}
	a, b := raw("", 1, 5), raw("", 2, 7)
	w.Merge(a)
	w.Merge(b)
	if w.Value().(float64) != 12 {
		t.Fatalf("sum = %v", w.Value())
	}
	w.Remove(a)
	if w.Value().(float64) != 7 {
		t.Fatalf("after remove = %v", w.Value())
	}
	w.Remove(b)
	if w.Value() != nil {
		t.Fatal("drained window must yield nil")
	}
}

func TestSumCombine(t *testing.T) {
	if got := (Sum{}).Combine(float64(3), float64(4)).(float64); got != 7 {
		t.Fatalf("combine = %v", got)
	}
}

func TestCount(t *testing.T) {
	w := Count{}.NewWindow()
	w.Merge(raw("", 1, 9))
	w.Merge(raw("", 2, 9))
	if w.Value().(float64) != 2 {
		t.Fatalf("count = %v", w.Value())
	}
	if got := (Count{}).Combine(float64(2), float64(3)).(float64); got != 5 {
		t.Fatalf("combine = %v", got)
	}
}

func TestExtrema(t *testing.T) {
	minW := Extremum{}.NewWindow()
	maxW := Extremum{Max: true}.NewWindow()
	for _, v := range []float64{5, 1, 9, 3} {
		minW.Merge(raw("", time.Duration(v), v))
		maxW.Merge(raw("", time.Duration(v), v))
	}
	if minW.Value().(float64) != 1 || maxW.Value().(float64) != 9 {
		t.Fatalf("min/max = %v/%v", minW.Value(), maxW.Value())
	}
	minW.Remove(raw("", 1, 1))
	if minW.Value().(float64) != 3 {
		t.Fatalf("min after remove = %v", minW.Value())
	}
	if got := (Extremum{Max: true}).Combine(float64(2), float64(8)).(float64); got != 8 {
		t.Fatalf("max combine = %v", got)
	}
	if got := (Extremum{}).Combine(float64(2), float64(8)).(float64); got != 2 {
		t.Fatalf("min combine = %v", got)
	}
}

func TestAvgFinalize(t *testing.T) {
	op := Avg{}
	w := op.NewWindow()
	w.Merge(raw("", 1, 10))
	w.Merge(raw("", 2, 20))
	v := w.Value()
	combined := op.Combine(v, []float64{30, 1}) // another partial: one tuple of 30
	if got := op.Finalize(combined).(float64); got != 20 {
		t.Fatalf("avg = %v, want 20", got)
	}
	if got := op.Finalize([]float64{0, 0}).(float64); got != 0 {
		t.Fatalf("empty avg = %v", got)
	}
}

func TestTopKWindowAndCombine(t *testing.T) {
	op := TopK{K: 2, Field: 0}
	w := op.NewWindow()
	w.Merge(raw("a", 1, -40, 7))
	w.Merge(raw("b", 2, -30, 8))
	w.Merge(raw("c", 3, -60, 9))
	w.Merge(raw("a", 4, -20, 10)) // louder frame from a
	v := w.Value().([]wire.ScoredEntry)
	if len(v) != 2 || v[0].Key != "a" || v[0].Score != -20 || v[1].Key != "b" {
		t.Fatalf("topk = %+v", v)
	}
	if v[0].Payload[0] != 10 {
		t.Fatalf("payload = %v", v[0].Payload)
	}
	other := []wire.ScoredEntry{{Key: "d", Score: -10}, {Key: "a", Score: -50}}
	merged := op.Combine(v, other).([]wire.ScoredEntry)
	if len(merged) != 2 || merged[0].Key != "d" || merged[1].Key != "a" || merged[1].Score != -20 {
		t.Fatalf("combined = %+v", merged)
	}
	// Remove the loud frame; a's best drops back.
	w.Remove(raw("a", 4, -20, 10))
	v = w.Value().([]wire.ScoredEntry)
	if v[0].Key != "b" {
		t.Fatalf("after remove = %+v", v)
	}
}

func TestUnion(t *testing.T) {
	op := Union{}
	w := op.NewWindow()
	w.Merge(raw("n2", 1, 5, 6))
	w.Merge(raw("n1", 2, 1, 2))
	v := w.Value().([]wire.ScoredEntry)
	if len(v) != 2 || v[0].Key != "n1" || v[1].Key != "n2" {
		t.Fatalf("union = %+v", v)
	}
	more := op.Combine(v, []wire.ScoredEntry{{Key: "n3"}}).([]wire.ScoredEntry)
	if len(more) != 3 {
		t.Fatalf("combined union = %+v", more)
	}
	w.Remove(raw("n2", 1, 5, 6))
	if got := w.Value().([]wire.ScoredEntry); len(got) != 1 || got[0].Key != "n1" {
		t.Fatalf("after remove = %+v", got)
	}
}

func TestEntropy(t *testing.T) {
	op := Entropy{}
	w := op.NewWindow()
	w.Merge(raw("x", 1))
	w.Merge(raw("x", 2))
	w.Merge(raw("y", 3))
	w.Merge(raw("y", 4))
	h := w.Value().(map[string]float64)
	if h["x"] != 2 || h["y"] != 2 {
		t.Fatalf("hist = %v", h)
	}
	if got := op.Finalize(h).(float64); math.Abs(got-1) > 1e-12 {
		t.Fatalf("entropy = %v, want 1 bit", got)
	}
	combined := op.Combine(h, map[string]float64{"x": 2}).(map[string]float64)
	if combined["x"] != 4 {
		t.Fatalf("combined = %v", combined)
	}
	w.Remove(raw("y", 3))
	w.Remove(raw("y", 4))
	if got := op.Finalize(w.Value()).(float64); got != 0 {
		t.Fatalf("single-key entropy = %v", got)
	}
}

func TestBloom(t *testing.T) {
	op := DefaultBloom()
	w := op.NewWindow()
	w.Merge(raw("alpha", 1))
	w.Merge(raw("beta", 2))
	v := w.Value()
	if !op.Contains(v, "alpha") || !op.Contains(v, "beta") {
		t.Fatal("bloom missing inserted keys")
	}
	misses := 0
	for i := 0; i < 100; i++ {
		if !op.Contains(v, string(rune('A'+i%26))+string(rune('0'+i/26))) {
			misses++
		}
	}
	if misses < 90 {
		t.Fatalf("false positive rate too high: %d/100 misses", 100-misses)
	}
	other := op.NewWindow()
	other.Merge(raw("gamma", 3))
	merged := op.Combine(v, other.Value())
	if !op.Contains(merged, "alpha") || !op.Contains(merged, "gamma") {
		t.Fatal("OR-combine lost keys")
	}
	w.Remove(raw("alpha", 1))
	if op.Contains(w.Value(), "alpha") && !op.Contains(w.Value(), "beta") {
		t.Fatal("remove broke the window")
	}
}

func TestQuantile(t *testing.T) {
	op := DefaultQuantile()
	w := op.NewWindow()
	for i := 1; i <= 101; i++ {
		w.Merge(raw("", time.Duration(i), float64(i)))
	}
	if got := op.Finalize(w.Value()).(float64); got != 51 {
		t.Fatalf("median = %v, want 51", got)
	}
	w.Remove(raw("", 101, 101))
	v := w.Value().([]float64)
	if len(v) != 100 {
		t.Fatalf("window size = %d", len(v))
	}
	// Combine keeps the sample within the cap.
	big := op.Combine(v, v).([]float64)
	if len(big) > op.Cap {
		t.Fatalf("combined sample %d exceeds cap %d", len(big), op.Cap)
	}
}

func TestTrilatPullsTowardLoudestSniffer(t *testing.T) {
	w := Trilat{}.NewWindow()
	// Sniffers at (0,0), (10,0), (0,10); the loudest by far is (10,0).
	w.Merge(raw("s1", 1, 0, 0, -80))
	w.Merge(raw("s2", 2, 10, 0, -30))
	w.Merge(raw("s3", 3, 0, 10, -80))
	c := w.Value().(wire.Coord)
	if c.X < 9 || c.Y > 1 {
		t.Fatalf("position = %+v, want near (10,0)", c)
	}
	w.Remove(raw("s2", 2, 10, 0, -30))
	c = w.Value().(wire.Coord)
	if c.X > 1 || math.Abs(c.Y-5) > 1 {
		t.Fatalf("position after remove = %+v, want near (0,5)", c)
	}
}

func TestTrilatFromEntries(t *testing.T) {
	entries := []wire.ScoredEntry{
		{Key: "s1", Score: -30, Payload: []float64{5, 5}},
		{Key: "s2", Score: -80, Payload: []float64{100, 100}},
	}
	c, ok := TrilatFromEntries(entries)
	if !ok || c.X < 5 || c.X > 10 {
		t.Fatalf("trilat = %+v %v", c, ok)
	}
	if _, ok := TrilatFromEntries(nil); ok {
		t.Fatal("empty entries located")
	}
}

func TestRegistry(t *testing.T) {
	for _, name := range []string{"sum", "count", "min", "max", "avg", "topk", "union", "entropy", "bloom", "quantile", "trilat"} {
		if !Known(name) {
			t.Fatalf("%s not registered", name)
		}
		op, err := New(name, nil)
		if err != nil {
			t.Fatalf("New(%s): %v", name, err)
		}
		if op.Name() == "" {
			t.Fatalf("%s has empty name", name)
		}
	}
	if _, err := New("nope", nil); err == nil {
		t.Fatal("unknown operator accepted")
	}
	if _, err := New("topk", []string{"abc"}); err == nil {
		t.Fatal("bad arg accepted")
	}
	op, err := New("topk", []string{"5", "1"})
	if err != nil || op.(TopK).K != 5 || op.(TopK).Field != 1 {
		t.Fatalf("topk args: %+v %v", op, err)
	}
	q, err := New("quantile", []string{"0.9", "64"})
	if err != nil || q.(Quantile).Q != 0.9 || q.(Quantile).Cap != 64 {
		t.Fatalf("quantile args: %+v %v", q, err)
	}
}

func TestCombineNilAware(t *testing.T) {
	c := CombineNilAware(Sum{})
	if c(nil, float64(5)).(float64) != 5 || c(float64(5), nil).(float64) != 5 {
		t.Fatal("nil identity broken")
	}
	if c(float64(2), float64(3)).(float64) != 5 {
		t.Fatal("combine broken")
	}
}

// Property: for sum/count/avg/entropy, Combine is commutative and merging
// across space equals computing over the union locally.
func TestPropertyCombineEquivalence(t *testing.T) {
	f := func(seed int64, nA, nB uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		mk := func(n int) []tuple.Raw {
			out := make([]tuple.Raw, n)
			for i := range out {
				out[i] = raw(string(rune('a'+rng.Intn(4))), time.Duration(i), float64(rng.Intn(100)))
			}
			return out
		}
		a, b := mk(1+int(nA)%10), mk(1+int(nB)%10)
		sumOp := Sum{}
		wa, wb, wAll := sumOp.NewWindow(), sumOp.NewWindow(), sumOp.NewWindow()
		for _, t := range a {
			wa.Merge(t)
			wAll.Merge(t)
		}
		for _, t := range b {
			wb.Merge(t)
			wAll.Merge(t)
		}
		ab := sumOp.Combine(wa.Value(), wb.Value()).(float64)
		ba := sumOp.Combine(wb.Value(), wa.Value()).(float64)
		return ab == ba && ab == wAll.Value().(float64)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: a top-k window that updates its per-key best on every Merge
// (and re-scans only on Remove) reports what a window rebuilt from the
// surviving tuples reports, on random keyed streams with tied scores.
func TestPropertyTopKIncrementalMatchesRebuilt(t *testing.T) {
	op := TopK{K: 3, Field: 0}
	f := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		w := op.NewWindow()
		var live []tuple.Raw
		for i := 0; i < 1+int(n); i++ {
			if len(live) > 0 && rng.Intn(4) == 0 {
				j := rng.Intn(len(live))
				w.Remove(live[j])
				live = append(live[:j], live[j+1:]...)
			} else {
				tp := raw(string(rune('a'+rng.Intn(6))), time.Duration(i), float64(rng.Intn(8)), float64(i))
				w.Merge(tp)
				live = append(live, tp)
			}
			// Rebuilt from scratch: per key the earliest tuple with the top
			// score, payload = the other fields.
			best := map[string]wire.ScoredEntry{}
			for _, tp := range live {
				if old, ok := best[tp.Key]; !ok || tp.Vals[0] > old.Score {
					best[tp.Key] = wire.ScoredEntry{Key: tp.Key, Score: tp.Vals[0], Payload: tp.Vals[1:]}
				}
			}
			var want tuple.Value
			if len(best) > 0 {
				want = topOf(best, op.K)
			}
			if !reflect.DeepEqual(w.Value(), want) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: windows return to nil after all merged tuples are removed, for
// every operator that tracks contents.
func TestPropertyMergeRemoveSymmetry(t *testing.T) {
	opsToTest := []Operator{Sum{}, Count{}, Extremum{}, Extremum{Max: true},
		Avg{}, TopK{K: 3}, Union{}, Entropy{}, DefaultBloom(), DefaultQuantile()}
	f := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		tuples := make([]tuple.Raw, 1+int(n)%12)
		for i := range tuples {
			tuples[i] = raw(string(rune('a'+rng.Intn(3))), time.Duration(i), float64(rng.Intn(50)), float64(i))
		}
		for _, op := range opsToTest {
			w := op.NewWindow()
			for _, tp := range tuples {
				w.Merge(tp)
			}
			for _, tp := range tuples {
				w.Remove(tp)
			}
			if w.Value() != nil {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
