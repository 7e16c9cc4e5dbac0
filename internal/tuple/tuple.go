// Package tuple defines Mortar's data model (§4): raw tuples produced by
// sensors, summary tuples exchanged between operators, and the time-division
// indices that identify which summaries belong to the same processing
// window. Indexing by validity interval — rather than by a single timestamp
// — is what lets replicas process different parts of a stream and lets
// tuples take any path through the overlay without duplicate processing.
package tuple

import (
	"fmt"
	"time"
)

// Value is an operator-defined summary payload. Concrete types are defined
// by the operators in internal/ops and must be encodable by internal/wire.
type Value = any

// Raw is a tuple emitted by a local sensor stream: an ordered set of data
// elements, the operator's unit of computation (§2.2).
type Raw struct {
	// Key is an optional discriminator (e.g. a MAC address for the Wi-Fi
	// select operator, or a join key).
	Key string
	// SubKey, when non-empty, replaces Key after a select filter matches:
	// the Wi-Fi query filters frames by MAC but then groups by capturing
	// sniffer (§7.4 composes select -> topk; the fused filter re-keys).
	SubKey string
	// Vals are the numeric data elements.
	Vals []float64
}

// Index is a summary tuple's validity interval [TB, TE): the range of
// (local) time for which the summary is valid. For time windows TB/TE bound
// the window slide; for tuple windows they are the arrival times of the
// first and last tuple (§4.1).
type Index struct {
	TB, TE time.Duration
}

// Empty reports whether the interval contains no time.
func (i Index) Empty() bool { return i.TE <= i.TB }

// Equal reports exact index equality, the fast path for merging.
func (i Index) Equal(o Index) bool { return i.TB == o.TB && i.TE == o.TE }

// Overlaps reports whether two intervals share any time. Empty intervals
// overlap nothing.
func (i Index) Overlaps(o Index) bool {
	return !i.Empty() && !o.Empty() && i.TB < o.TE && o.TB < i.TE
}

// Intersect returns the overlapping region: [max(TB), min(TE)).
func (i Index) Intersect(o Index) Index {
	tb, te := i.TB, i.TE
	if o.TB > tb {
		tb = o.TB
	}
	if o.TE < te {
		te = o.TE
	}
	return Index{TB: tb, TE: te}
}

// Contains reports whether t falls inside the interval.
func (i Index) Contains(t time.Duration) bool { return t >= i.TB && t < i.TE }

// Duration returns the interval length.
func (i Index) Duration() time.Duration { return i.TE - i.TB }

func (i Index) String() string {
	return fmt.Sprintf("[%v,%v)", i.TB, i.TE)
}

// Summary is the unit sent between operators: a partial value labelled with
// the window index it belongs to. All tuples sent on the network are
// summary tuples (§4).
type Summary struct {
	// Query names the continuous query this summary belongs to.
	Query string
	// Index identifies the processing window slice.
	Index Index
	// Value is the operator-specific partial value; nil for boundary
	// tuples.
	Value Value
	// Age is the time since the summary's inception, including residence
	// time at each previous operator and network flight time (§4.3, §5).
	Age time.Duration
	// Count is the completeness metric: the number of participants whose
	// data the summary reflects. Aggregate operator results include a
	// completeness field (§7).
	Count int
	// Boundary marks a tuple injected when a raw input stream stalls; it
	// carries no value and only updates completeness, or extends a tuple
	// window's validity interval (§4.3).
	Boundary bool
	// Hops counts overlay hops travelled; merged summaries carry the
	// maximum over their constituents. Experiments report it as tuple path
	// length (Figures 14-15).
	Hops int
	// Levels is the multipath routing state (§3.3): per tree, the lowest
	// level at which this tuple (or any constituent merged into it) visited
	// that tree; -1 means never visited. The staged routing policy consults
	// it to guarantee forward progress and avoid cycles.
	Levels []int16
}

// MergeLevelsInto folds b into dst as the element-wise minimum of the two
// level vectors, treating -1 (never visited) as no constraint: merged
// tuples inherit the most conservative history of their constituents. It
// works in place and returns dst, allocating only when dst is nil (it then
// clones b, since b stays caller-owned) — the TS-list merge and the
// per-hop routing constraint both fold vectors into storage they already
// hold.
func MergeLevelsInto(dst, b []int16) []int16 {
	if dst == nil {
		return append([]int16(nil), b...)
	}
	n := len(dst)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		switch {
		case dst[i] < 0:
			dst[i] = b[i]
		case b[i] >= 0 && b[i] < dst[i]:
			dst[i] = b[i]
		}
	}
	return dst
}

// WindowKind distinguishes time windows from tuple (count) windows.
type WindowKind uint8

const (
	// TimeWindow computes over the last Range of time, sliding by Slide.
	TimeWindow WindowKind = iota
	// TupleWindow computes over the last RangeN tuples from each source,
	// sliding by SlideN tuples.
	TupleWindow
)

// WindowSpec describes an operator's sliding window: the range summarizes
// the last x seconds or tuples, the slide defines the update frequency
// (§2.2).
type WindowSpec struct {
	Kind   WindowKind
	Range  time.Duration // time windows
	Slide  time.Duration
	RangeN int // tuple windows
	SlideN int
}

// Validate reports whether the spec is well formed. A time window's range
// must be a whole number of slides: operators keep one partial aggregate
// per slide and build the window from the last Range/Slide of them.
func (w WindowSpec) Validate() error {
	switch w.Kind {
	case TimeWindow:
		if w.Range <= 0 || w.Slide <= 0 {
			return fmt.Errorf("tuple: time window needs positive range (%v) and slide (%v)", w.Range, w.Slide)
		}
		if w.Range%w.Slide != 0 {
			return fmt.Errorf("tuple: time window range (%v) must be a whole multiple of its slide (%v)", w.Range, w.Slide)
		}
	case TupleWindow:
		if w.RangeN <= 0 || w.SlideN <= 0 {
			return fmt.Errorf("tuple: tuple window needs positive range (%d) and slide (%d)", w.RangeN, w.SlideN)
		}
	default:
		return fmt.Errorf("tuple: unknown window kind %d", w.Kind)
	}
	return nil
}

// Panes is how many panes a valid window spans: Range/Slide slides, or
// RangeN/g panes of g = gcd(RangeN, SlideN) arrivals, moving SlideN/g panes
// at a time.
func (w WindowSpec) Panes() int {
	if w.Kind == TimeWindow {
		return int(w.Range / w.Slide)
	}
	g, b := w.RangeN, w.SlideN
	for b != 0 {
		g, b = b, g%b
	}
	return w.RangeN / g
}

// SlideIndex returns the logical slide number containing local time t, and
// the corresponding index interval. Only meaningful for time windows.
func (w WindowSpec) SlideIndex(t time.Duration) (int64, Index) {
	n := int64(t / w.Slide)
	if t < 0 && t%w.Slide != 0 {
		n-- // floor division for negative local times (syncless indices may be negative, §5.1)
	}
	return n, Index{TB: time.Duration(n) * w.Slide, TE: time.Duration(n+1) * w.Slide}
}
