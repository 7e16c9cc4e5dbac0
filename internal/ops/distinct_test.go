package ops

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/wire"
)

// The estimate tracks true cardinality within the sketch's standard error
// band across three orders of magnitude.
func TestDistinctAccuracy(t *testing.T) {
	d := DefaultDistinct()
	for _, n := range []int{10, 100, 1000, 10000} {
		w := d.NewWindow()
		for i := 0; i < n; i++ {
			w.Merge(raw(fmt.Sprintf("key-%d", i)))
		}
		est := d.Finalize(w.Value()).(float64)
		// 1.04/sqrt(256) ~ 6.5% standard error; allow 4 sigma.
		if tol := 4 * 1.04 / math.Sqrt(float64(d.Registers)); math.Abs(est-float64(n)) > tol*float64(n) {
			t.Fatalf("n=%d: estimate %.1f off by more than %.0f%%", n, est, tol*100)
		}
	}
}

// Duplicate keys never move the estimate: the sketch is idempotent over
// keys, which is what lets union-style re-striping avoid double counting.
func TestDistinctDuplicatesIdempotent(t *testing.T) {
	d := DefaultDistinct()
	w := d.NewWindow()
	for i := 0; i < 50; i++ {
		w.Merge(raw(fmt.Sprintf("k%d", i)))
	}
	once := d.Finalize(w.Value()).(float64)
	for rep := 0; rep < 10; rep++ {
		for i := 0; i < 50; i++ {
			w.Merge(raw(fmt.Sprintf("k%d", i)))
		}
	}
	if again := d.Finalize(w.Value()).(float64); again != once {
		t.Fatalf("duplicates moved the estimate: %v -> %v", once, again)
	}
}

// Combining disjoint partial sketches equals sketching the union directly,
// and CombineInto folds in place without touching its second operand.
func TestDistinctCombine(t *testing.T) {
	d := DefaultDistinct()
	wa, wb, wu := d.NewWindow(), d.NewWindow(), d.NewWindow()
	for i := 0; i < 300; i++ {
		k := raw(fmt.Sprintf("k%d", i))
		if i%2 == 0 {
			wa.Merge(k)
		} else {
			wb.Merge(k)
		}
		wu.Merge(k)
	}
	a, b, u := wa.Value(), wb.Value(), wu.Value()
	combined := d.Combine(a, b)
	if got, want := d.Finalize(combined).(float64), d.Finalize(u).(float64); got != want {
		t.Fatalf("combined estimate %v, union estimate %v", got, want)
	}
	// Combine must not have mutated a.
	if d.Finalize(a).(float64) == d.Finalize(combined).(float64) {
		t.Fatal("Combine mutated its first operand")
	}
	bBefore := append([]uint64(nil), b.([]uint64)...)
	inPlace := d.CombineInto(a, b)
	if &inPlace.([]uint64)[0] != &a.([]uint64)[0] {
		t.Fatal("CombineInto did not reuse a's storage")
	}
	for i, w := range b.([]uint64) {
		if w != bBefore[i] {
			t.Fatal("CombineInto mutated its second operand")
		}
	}
	if got := d.Finalize(inPlace).(float64); got != d.Finalize(combined).(float64) {
		t.Fatalf("in-place combine diverges from copying combine: %v", got)
	}
}

// The registry builds the operator, validates the register count, and the
// sketch value survives the wire codec (it is a plain bit array).
func TestDistinctRegistryAndWire(t *testing.T) {
	op, err := New("distinct", []string{"512"})
	if err != nil {
		t.Fatal(err)
	}
	if op.(Distinct).Registers != 512 {
		t.Fatalf("registers = %d", op.(Distinct).Registers)
	}
	if _, err := New("distinct", []string{"100"}); err == nil {
		t.Fatal("non-power-of-two register count accepted")
	}
	if _, err := New("distinct", []string{"8"}); err == nil {
		t.Fatal("undersized register count accepted")
	}
	d := DefaultDistinct()
	w := d.NewWindow()
	for i := 0; i < 40; i++ {
		w.Merge(raw(fmt.Sprintf("k%d", i)))
	}
	var buf wire.Buffer
	buf.PutValue(w.Value())
	got, err := wire.NewReader(buf.Bytes()).Value()
	if err != nil {
		t.Fatal(err)
	}
	if want, have := d.Finalize(w.Value()).(float64), d.Finalize(got).(float64); want != have {
		t.Fatalf("wire round trip changed the estimate: %v -> %v", want, have)
	}
}
