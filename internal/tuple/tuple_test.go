package tuple

import (
	"testing"
	"testing/quick"
	"time"
)

func idx(tb, te time.Duration) Index { return Index{TB: tb, TE: te} }

func TestIndexPredicates(t *testing.T) {
	a := idx(0, 10)
	if a.Empty() || !a.Equal(idx(0, 10)) || a.Equal(idx(0, 11)) {
		t.Fatal("basic predicates broken")
	}
	if !a.Overlaps(idx(5, 15)) || a.Overlaps(idx(10, 20)) || a.Overlaps(idx(-5, 0)) {
		t.Fatal("overlap predicate broken")
	}
	if got := a.Intersect(idx(5, 15)); got != idx(5, 10) {
		t.Fatalf("intersect = %v", got)
	}
	if !a.Contains(0) || a.Contains(10) || !a.Contains(9) {
		t.Fatal("contains broken (half-open interval)")
	}
	if a.Duration() != 10 {
		t.Fatalf("duration = %v", a.Duration())
	}
	if idx(5, 5).Empty() != true || idx(7, 3).Empty() != true {
		t.Fatal("empty detection broken")
	}
	if a.String() == "" {
		t.Fatal("String empty")
	}
}

func TestWindowSpecValidate(t *testing.T) {
	good := []WindowSpec{
		{Kind: TimeWindow, Range: time.Second, Slide: time.Second},
		{Kind: TimeWindow, Range: 3 * time.Second, Slide: time.Second},
		{Kind: TupleWindow, RangeN: 20, SlideN: 10},
	}
	for _, w := range good {
		if err := w.Validate(); err != nil {
			t.Fatalf("valid spec rejected: %v", err)
		}
	}
	bad := []WindowSpec{
		{Kind: TimeWindow},
		{Kind: TimeWindow, Range: time.Second, Slide: -time.Second},
		{Kind: TimeWindow, Range: 5 * time.Second, Slide: 2 * time.Second},
		{Kind: TimeWindow, Range: time.Second, Slide: 2 * time.Second},
		{Kind: TupleWindow, RangeN: 5},
		{Kind: WindowKind(9), Range: time.Second, Slide: time.Second},
	}
	for i, w := range bad {
		if err := w.Validate(); err == nil {
			t.Fatalf("bad spec %d accepted", i)
		}
	}
}

func TestSlideIndex(t *testing.T) {
	w := WindowSpec{Kind: TimeWindow, Range: 5 * time.Second, Slide: 5 * time.Second}
	n, ix := w.SlideIndex(12 * time.Second)
	if n != 2 || ix != idx(10*time.Second, 15*time.Second) {
		t.Fatalf("slide = %d %v", n, ix)
	}
	// Negative local times (possible under syncless install deltas) floor.
	n, ix = w.SlideIndex(-1 * time.Second)
	if n != -1 || ix != idx(-5*time.Second, 0) {
		t.Fatalf("negative slide = %d %v", n, ix)
	}
	n, _ = w.SlideIndex(-5 * time.Second)
	if n != -1 {
		t.Fatalf("boundary slide = %d, want -1", n)
	}
}

// Property: SlideIndex returns an interval containing t, of length Slide.
func TestPropertySlideIndexContains(t *testing.T) {
	w := WindowSpec{Kind: TimeWindow, Range: 3 * time.Second, Slide: 3 * time.Second}
	f := func(ms int32) bool {
		tt := time.Duration(ms) * time.Millisecond
		_, ix := w.SlideIndex(tt)
		return ix.Contains(tt) && ix.Duration() == w.Slide
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: Intersect is commutative and contained in both operands.
func TestPropertyIntersect(t *testing.T) {
	f := func(a1, a2, b1, b2 int16) bool {
		a := idx(time.Duration(a1), time.Duration(a2))
		b := idx(time.Duration(b1), time.Duration(b2))
		ab, ba := a.Intersect(b), b.Intersect(a)
		if ab != ba {
			return false
		}
		if a.Overlaps(b) != b.Overlaps(a) {
			return false
		}
		if a.Overlaps(b) && ab.Empty() {
			return false
		}
		if !a.Overlaps(b) && !ab.Empty() {
			return false
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
