// Package tslist implements the per-operator time-space (TS) list (§4.2):
// a sorted list of summary tuples representing potential final values. Upon
// arrival a summary is merged with existing entries with overlapping
// indices — exact matches merge in place; partial overlaps split the
// entries so that values are counted exactly once for any given interval of
// time. Entries are evicted on dynamic timeouts derived from the operator's
// netDist estimate (§4.3).
package tslist

import (
	"fmt"
	"sync/atomic"
	"time"

	"repro/internal/tuple"
)

// Combine merges two operator values for the same interval. It must treat a
// nil operand as the identity (boundary tuples carry no value).
type Combine func(a, b tuple.Value) tuple.Value

// Counters aggregates data-path statistics across lists. The fields are
// atomic so one counter set can be shared by every instance of a fabric
// while each list mutates it from its own peer's execution context.
type Counters struct {
	// Inserts counts summaries inserted (one per non-empty Insert call).
	Inserts atomic.Uint64
	// Merges counts in-place merges with an existing entry — the
	// time-space consolidation the paper's §4.2 is about.
	Merges atomic.Uint64
}

// Entry is one summary tuple held by the list.
type Entry struct {
	Index    tuple.Index
	Value    tuple.Value
	Count    int
	Boundary bool // true while only boundary tuples contributed

	// Age bookkeeping (§4.3, §5.1): the evicted summary's age is the
	// average age of its constituents at eviction time. We store, per
	// constituent i, (age_i - arrivalLocal_i) summed, so that the average
	// age at local time t is ageSum/n + t.
	ageSum time.Duration
	n      int

	// Deadline is the local time at which the entry should be evicted; the
	// runtime sets it when the first tuple for the index arrives and keeps
	// the earliest deadline across merges.
	Deadline time.Duration

	// HopMax is the maximum overlay path length among constituents; the
	// experiments report it as tuple path length.
	HopMax int
	// Levels is the element-wise minimum routing history of the
	// constituents (§3.3); the emitting operator further constrains it
	// with its own tree levels.
	Levels []int16
}

// AvgAge returns the mean constituent age as of local time now.
func (e *Entry) AvgAge(now time.Duration) time.Duration {
	if e.n == 0 {
		return 0
	}
	return e.ageSum/time.Duration(e.n) + now
}

// Constituents returns how many summaries were merged into this entry.
func (e *Entry) Constituents() int { return e.n }

// List is a time-space list. It is a pure data structure: the owning
// operator runtime drives insertion, deadline computation, and eviction.
// A list is confined to one peer's execution context and recycles Entry
// storage through a free list, so the steady-state merge path (exact-index
// Insert into an existing entry) performs no allocation.
type List struct {
	combine Combine
	entries []*Entry // sorted by Index.TB, non-overlapping
	free    []*Entry // recycled entries, reused by newEntry/cloneInterval
	created []*Entry // scratch backing Insert's return value
	popped  []*Entry // scratch backing PopExpired's return value
	ctr     *Counters
}

// maxFree bounds the per-list free list so a burst of splits doesn't pin
// entry storage forever.
const maxFree = 256

// New returns an empty list using the given value combiner.
func New(combine Combine) *List {
	return &List{combine: combine}
}

// SetCounters points the list at a (possibly shared) counter set; nil
// disables counting.
func (l *List) SetCounters(c *Counters) { l.ctr = c }

// Len returns the number of entries.
func (l *List) Len() int { return len(l.entries) }

// Entries returns the current entries in index order. The slice is shared;
// callers must not mutate it.
func (l *List) Entries() []*Entry { return l.entries }

// Recycle returns an entry previously removed by a Pop method to
// the list's free pool. The caller must be done with the entry (and must
// not recycle it twice); its Levels backing array is retained for reuse
// but Value is dropped.
func (l *List) Recycle(e *Entry) {
	if e == nil || len(l.free) >= maxFree {
		return
	}
	e.Value = nil
	l.free = append(l.free, e)
}

// take pops a recycled entry, or allocates when the pool is dry.
func (l *List) take() *Entry {
	if n := len(l.free); n > 0 {
		e := l.free[n-1]
		l.free[n-1] = nil
		l.free = l.free[:n-1]
		return e
	}
	return &Entry{}
}

// reuseLevels copies src into buf's backing array, preserving src == nil
// (nil means "no routing constraint" and must not become an empty vector).
func reuseLevels(buf, src []int16) []int16 {
	if src == nil {
		return nil
	}
	return append(buf[:0], src...)
}

// Insert merges a summary arriving at local time now, whose deadline (if it
// creates new entries) is dl. It returns the entries that are new since the
// call began (so the runtime can schedule eviction timers); the returned
// slice is scratch storage valid only until the next Insert.
func (l *List) Insert(s tuple.Summary, now, dl time.Duration) []*Entry {
	if s.Index.Empty() {
		return nil
	}
	if l.ctr != nil {
		l.ctr.Inserts.Add(1)
	}
	created := l.created[:0]
	cur := s.Index
	i := 0
	for cur.TB < cur.TE {
		// Skip entries entirely before cur.
		for i < len(l.entries) && l.entries[i].Index.TE <= cur.TB {
			i++
		}
		if i == len(l.entries) || l.entries[i].Index.TB >= cur.TE {
			// No overlap with anything: insert the remainder as one entry.
			e := l.newEntry(tuple.Index{TB: cur.TB, TE: cur.TE}, s, now, dl)
			l.insertAt(i, e)
			created = append(created, e)
			break
		}
		ex := l.entries[i]
		if cur.TB < ex.Index.TB {
			// Leading non-overlapping piece of the incoming summary.
			e := l.newEntry(tuple.Index{TB: cur.TB, TE: ex.Index.TB}, s, now, dl)
			l.insertAt(i, e)
			created = append(created, e)
			i++
			cur.TB = ex.Index.TB
			continue
		}
		// cur.TB is inside ex. Split ex's leading non-overlap off.
		if ex.Index.TB < cur.TB {
			lead := l.cloneInterval(ex, tuple.Index{TB: ex.Index.TB, TE: cur.TB})
			ex.Index.TB = cur.TB
			l.insertAt(i, lead)
			i++
		}
		// Now ex and cur start together. The overlap is T3 (§4.2): the
		// merge of the two; the non-overlapping tails retain their values.
		ov := ex.Index.Intersect(cur)
		if ex.Index.TE > ov.TE {
			tail := l.cloneInterval(ex, tuple.Index{TB: ov.TE, TE: ex.Index.TE})
			ex.Index.TE = ov.TE
			l.insertAt(i+1, tail)
		}
		l.mergeInto(ex, s, now)
		cur.TB = ov.TE
		i++
	}
	l.created = created
	return created
}

func (l *List) newEntry(idx tuple.Index, s tuple.Summary, now, dl time.Duration) *Entry {
	e := l.take()
	*e = Entry{
		Index:    idx,
		Count:    s.Count,
		Boundary: s.Boundary,
		ageSum:   s.Age - now,
		n:        1,
		Deadline: dl,
		HopMax:   s.Hops,
		Levels:   reuseLevels(e.Levels, s.Levels),
	}
	if !s.Boundary {
		e.Value = s.Value
	}
	return e
}

// cloneInterval copies an entry's value bookkeeping onto a sub-interval:
// non-overlapping regions "retain their initial values and shrink their
// intervals" (§4.2). Note the Value is shared between the clone and the
// original — combine must therefore never mutate its operands (in-place
// combiners are only safe where intervals never split; see CombineInPlace
// in internal/ops).
func (l *List) cloneInterval(e *Entry, idx tuple.Index) *Entry {
	c := l.take()
	lv := reuseLevels(c.Levels, e.Levels)
	*c = Entry{
		Index:    idx,
		Value:    e.Value,
		Count:    e.Count,
		Boundary: e.Boundary,
		ageSum:   e.ageSum,
		n:        e.n,
		Deadline: e.Deadline,
		HopMax:   e.HopMax,
		Levels:   lv,
	}
	return c
}

func (l *List) mergeInto(e *Entry, s tuple.Summary, now time.Duration) {
	if !s.Boundary {
		if e.Boundary {
			e.Value = s.Value
			e.Boundary = false
		} else {
			e.Value = l.combine(e.Value, s.Value)
		}
	}
	e.Count += s.Count
	e.ageSum += s.Age - now
	e.n++
	if s.Hops > e.HopMax {
		e.HopMax = s.Hops
	}
	// The entry owns its Levels storage (newEntry/cloneInterval copy), so
	// the routing history folds in place.
	e.Levels = tuple.MergeLevelsInto(e.Levels, s.Levels)
	if l.ctr != nil {
		l.ctr.Merges.Add(1)
	}
}

func (l *List) insertAt(i int, e *Entry) {
	l.entries = append(l.entries, nil)
	copy(l.entries[i+1:], l.entries[i:])
	l.entries[i] = e
}

// ExtendLast extends the validity interval of the last entry whose interval
// ends at exactly tb, to te. Boundary tuples use this to keep a stalled
// tuple-window summary valid (§4.3). It reports whether an entry was
// extended.
func (l *List) ExtendLast(tb, te time.Duration) bool {
	for i := len(l.entries) - 1; i >= 0; i-- {
		if l.entries[i].Index.TE == tb {
			if i+1 < len(l.entries) && l.entries[i+1].Index.TB < te {
				return false // would collide with a later entry
			}
			l.entries[i].Index.TE = te
			return true
		}
		if l.entries[i].Index.TE < tb {
			break
		}
	}
	return false
}

// PopExpired removes and returns (in index order) all entries whose
// deadline has passed as of local time now. The returned slice is scratch
// storage valid only until the next PopExpired; callers should Recycle the
// popped entries once done with them.
func (l *List) PopExpired(now time.Duration) []*Entry {
	out := l.popped[:0]
	kept := l.entries[:0]
	for _, e := range l.entries {
		if e.Deadline <= now {
			out = append(out, e)
		} else {
			kept = append(kept, e)
		}
	}
	// Drop the stale tail references so kept-capacity reuse doesn't pin
	// popped entries.
	for i := len(kept); i < len(l.entries); i++ {
		l.entries[i] = nil
	}
	l.entries = kept
	l.popped = out
	return out
}

// PopLeading removes and returns the list's first (oldest) entry if its
// Count has reached count, and returns nil otherwise — however many later
// entries have, so calling it until nil pops the leading run of counted
// entries in index order and never one newer than an entry left behind. It
// uses no scratch storage, so a caller may be re-entered between calls.
// Recycle the entry once done with it.
func (l *List) PopLeading(count int) *Entry {
	if len(l.entries) == 0 || l.entries[0].Count < count {
		return nil
	}
	e := l.entries[0]
	n := copy(l.entries, l.entries[1:])
	l.entries[n] = nil
	l.entries = l.entries[:n]
	return e
}

// PopAll removes and returns every entry in index order.
func (l *List) PopAll() []*Entry {
	out := l.entries
	l.entries = nil
	return out
}

// NextDeadline returns the earliest deadline across entries, and false if
// the list is empty.
func (l *List) NextDeadline() (time.Duration, bool) {
	if len(l.entries) == 0 {
		return 0, false
	}
	best := l.entries[0].Deadline
	for _, e := range l.entries[1:] {
		if e.Deadline < best {
			best = e.Deadline
		}
	}
	return best, true
}

// Validate checks the structural invariants: entries sorted by TB, strictly
// non-overlapping, none empty.
func (l *List) Validate() error {
	for i, e := range l.entries {
		if e.Index.Empty() {
			return fmt.Errorf("tslist: empty interval %v at %d", e.Index, i)
		}
		if i > 0 && l.entries[i-1].Index.TE > e.Index.TB {
			return fmt.Errorf("tslist: entries %d and %d overlap: %v, %v",
				i-1, i, l.entries[i-1].Index, e.Index)
		}
	}
	return nil
}

// Summary converts an evicted entry back into a summary tuple for
// transmission to the next operator, stamping the averaged age (§5.1: "we
// set the age of S to the average age of its constituents", weighting the
// age toward the majority of the data).
func (e *Entry) Summary(query string, nowLocal time.Duration) tuple.Summary {
	return tuple.Summary{
		Query:    query,
		Index:    e.Index,
		Value:    e.Value,
		Age:      e.AvgAge(nowLocal),
		Count:    e.Count,
		Boundary: e.Boundary,
		Hops:     e.HopMax,
		Levels:   append([]int16(nil), e.Levels...),
	}
}
