package ops

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/tuple"
	"repro/internal/wire"
)

func raw(key string, vals ...float64) tuple.Raw {
	return tuple.Raw{Key: key, Vals: vals}
}

func TestSumWindow(t *testing.T) {
	w := Sum{}.NewWindow()
	if w.Value() != nil {
		t.Fatal("empty window must yield nil")
	}
	a, b := raw("", 5), raw("", 7)
	w.Merge(a)
	w.Merge(b)
	if w.Value().(float64) != 12 {
		t.Fatalf("sum = %v", w.Value())
	}
}

func TestSumCombine(t *testing.T) {
	if got := (Sum{}).Combine(float64(3), float64(4)).(float64); got != 7 {
		t.Fatalf("combine = %v", got)
	}
}

func TestCount(t *testing.T) {
	w := Count{}.NewWindow()
	w.Merge(raw("", 9))
	w.Merge(raw("", 9))
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
		minW.Merge(raw("", v))
		maxW.Merge(raw("", v))
	}
	if minW.Value().(float64) != 1 || maxW.Value().(float64) != 9 {
		t.Fatalf("min/max = %v/%v", minW.Value(), maxW.Value())
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
	w.Merge(raw("", 10))
	w.Merge(raw("", 20))
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
	w.Merge(raw("a", -40, 7))
	w.Merge(raw("b", -30, 8))
	w.Merge(raw("c", -60, 9))
	w.Merge(raw("a", -20, 10)) // louder frame from a
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
}

func TestUnion(t *testing.T) {
	op := Union{}
	w := op.NewWindow()
	w.Merge(raw("n2", 5, 6))
	w.Merge(raw("n1", 1, 2))
	v := w.Value().([]wire.ScoredEntry)
	if len(v) != 2 || v[0].Key != "n1" || v[1].Key != "n2" {
		t.Fatalf("union = %+v", v)
	}
	more := op.Combine(v, []wire.ScoredEntry{{Key: "n3"}}).([]wire.ScoredEntry)
	if len(more) != 3 {
		t.Fatalf("combined union = %+v", more)
	}
}

func TestEntropy(t *testing.T) {
	op := Entropy{}
	w := op.NewWindow()
	w.Merge(raw("x"))
	w.Merge(raw("x"))
	w.Merge(raw("y"))
	w.Merge(raw("y"))
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
}

func TestBloom(t *testing.T) {
	op := DefaultBloom()
	w := op.NewWindow()
	w.Merge(raw("alpha"))
	w.Merge(raw("beta"))
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
	other.Merge(raw("gamma"))
	merged := op.Combine(v, other.Value())
	if !op.Contains(merged, "alpha") || !op.Contains(merged, "gamma") {
		t.Fatal("OR-combine lost keys")
	}
}

func TestQuantile(t *testing.T) {
	op := DefaultQuantile()
	w := op.NewWindow()
	for i := 1; i <= 101; i++ {
		w.Merge(raw("", float64(i)))
	}
	if got := op.Finalize(w.Value()).(float64); got != 51 {
		t.Fatalf("median = %v, want 51", got)
	}
	v := w.Value().([]float64)
	if len(v) != 101 {
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
	w.Merge(raw("s1", 0, 0, -80))
	w.Merge(raw("s2", 10, 0, -30))
	w.Merge(raw("s3", 0, 10, -80))
	c := w.Value().(wire.Coord)
	if c.X < 9 || c.Y > 1 {
		t.Fatalf("position = %+v, want near (10,0)", c)
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

// Property: for every operator but trilat, a window's Value over a stream
// equals the in-order Combine of the Values over any contiguous split of
// it, and Combine is commutative — merging across space and across panes
// equals computing over the union locally. That is what lets a window be
// the Combine of its panes. Quantile is exact only while the sample holds
// every value, so its streams stay within Cap; union's order among equal
// keys is unspecified, so it compares as a sorted multiset.
func TestPropertyCombineEquivalence(t *testing.T) {
	for _, name := range registered() {
		if name == "trilat" {
			continue
		}
		op, err := New(name, nil)
		if err != nil {
			t.Fatal(err)
		}
		combine := CombineNilAware(op)
		canon := func(v tuple.Value) tuple.Value {
			if u, ok := v.([]wire.ScoredEntry); ok && name == "union" {
				u = append([]wire.ScoredEntry(nil), u...)
				sort.Slice(u, func(i, j int) bool {
					if u[i].Key != u[j].Key {
						return u[i].Key < u[j].Key
					}
					return fmt.Sprint(u[i].Payload) < fmt.Sprint(u[j].Payload)
				})
				return u
			}
			return v
		}
		valueOf := func(ts []tuple.Raw) tuple.Value {
			w := op.NewWindow()
			w.Merge(ts...)
			return w.Value()
		}
		f := func(seed int64) bool {
			rng := rand.New(rand.NewSource(seed))
			stream := mergeStream(rng, 1+rng.Intn(DefaultQuantile().Cap))
			var parts tuple.Value
			for rest := stream; len(rest) > 0; {
				n := 1 + rng.Intn(len(rest))
				parts = combine(parts, valueOf(rest[:n]))
				rest = rest[n:]
			}
			cut := rng.Intn(len(stream) + 1)
			a, b := valueOf(stream[:cut]), valueOf(stream[cut:])
			whole := canon(valueOf(stream))
			// topk keeps the earlier operand's payload for a key's tied best
			// score, so it commutes only up to payloads.
			return reflect.DeepEqual(canon(parts), whole) &&
				(name == "topk" || reflect.DeepEqual(canon(combine(a, b)), canon(combine(b, a))))
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}

// Property: a top-k window that updates its per-key best on every Merge
// reports what a window rebuilt from all its tuples reports, on random
// keyed streams with tied scores.
func TestPropertyTopKIncrementalMatchesRebuilt(t *testing.T) {
	op := TopK{K: 3, Field: 0}
	f := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		w := op.NewWindow()
		var live []tuple.Raw
		for i := 0; i < 1+int(n); i++ {
			tp := raw(string(rune('a'+rng.Intn(6))), float64(rng.Intn(8)), float64(i))
			w.Merge(tp)
			live = append(live, tp)
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

// Every operator takes nil and its own windows' values, and refuses a value
// of another kind or, where it fixes one, another length.
func TestOperatorsValidateShape(t *testing.T) {
	f1, f2, u1, u16 := []float64{1}, []float64{1, 2}, []uint64{1}, make([]uint64, 16)
	entries, hist, coord := []wire.ScoredEntry{{Key: "a"}}, map[string]float64{"a": 1}, wire.Coord{X: 1}
	for _, c := range []struct {
		name       string
		args       []string
		ok, refuse []tuple.Value
	}{
		{"sum", nil, []tuple.Value{1.0}, []tuple.Value{"text", f1, u1}},
		{"count", nil, []tuple.Value{2.0}, []tuple.Value{f1, hist}},
		{"min", nil, []tuple.Value{-1.0}, []tuple.Value{f2, coord}},
		{"max", nil, []tuple.Value{3.0}, []tuple.Value{f2, entries}},
		{"avg", nil, []tuple.Value{f2}, []tuple.Value{f1, []float64{1, 2, 3}, []float64(nil), 1.0}},
		{"topk", nil, []tuple.Value{entries, []wire.ScoredEntry{}}, []tuple.Value{hist, f2}},
		{"union", nil, []tuple.Value{entries}, []tuple.Value{hist}},
		{"entropy", nil, []tuple.Value{hist}, []tuple.Value{entries, u16}},
		{"hist", nil, []tuple.Value{hist}, []tuple.Value{1.0}},
		{"bloom", nil, []tuple.Value{u16}, []tuple.Value{u1, make([]uint64, 15), make([]uint64, 17), 1.0}},
		{"bloom", []string{"100"}, []tuple.Value{make([]uint64, 2)}, []tuple.Value{u1, u16}},
		{"distinct", nil, []tuple.Value{make([]uint64, 32)}, []tuple.Value{u1, u16, hist}},
		{"quantile", nil, []tuple.Value{f1, []float64{}}, []tuple.Value{1.0, u1}},
		{"trilat", nil, []tuple.Value{coord}, []tuple.Value{1.0, f2}},
	} {
		op, err := New(c.name, c.args)
		if err != nil {
			t.Fatal(err)
		}
		w := op.NewWindow()
		w.Merge(raw("a", 1, 2, -40), raw("b", 3, 4, -50))
		for _, v := range append([]tuple.Value{nil, w.Value()}, c.ok...) {
			if !op.Valid(v) {
				t.Errorf("%s%v refuses %#v", c.name, c.args, v)
			}
		}
		for _, v := range c.refuse {
			if op.Valid(v) {
				t.Errorf("%s%v takes %#v", c.name, c.args, v)
			}
		}
	}
}

// The registry refuses a Bloom filter of no bits, whose hashing takes a
// modulo by zero. A large filter is fine: the wire writes it dense.
func TestBloomNeedsABit(t *testing.T) {
	if _, err := New("bloom", []string{"0"}); err == nil {
		t.Error("bloom of 0 bits accepted")
	}
	op, err := New("bloom", []string{"1048576"})
	if err != nil {
		t.Fatal(err)
	}
	w := op.NewWindow()
	w.Merge(tuple.Raw{Key: "k"})
	var buf wire.Buffer
	if err := buf.PutValue(w.Value()); err != nil {
		t.Fatal(err)
	}
	got, err := wire.NewReader(buf.Bytes()).Value()
	if err != nil || !op.Valid(got) || !slices.Equal(got.([]uint64), w.Value().([]uint64)) {
		t.Fatalf("1,048,576-bit filter did not round-trip: %v", err)
	}
}
