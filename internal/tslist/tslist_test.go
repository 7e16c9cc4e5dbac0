package tslist

import (
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/tuple"
)

func sumCombine(a, b tuple.Value) tuple.Value {
	if a == nil {
		return b
	}
	if b == nil {
		return a
	}
	return a.(float64) + b.(float64)
}

func sum(v float64, tb, te time.Duration) tuple.Summary {
	return tuple.Summary{Index: tuple.Index{TB: tb, TE: te}, Value: v, Count: 1}
}

func TestExactMatchMerges(t *testing.T) {
	l := New(sumCombine)
	l.Insert(sum(1, 0, 5), 0, 100)
	l.Insert(sum(2, 0, 5), 1, 100)
	if l.Len() != 1 {
		t.Fatalf("len = %d, want 1", l.Len())
	}
	e := l.Entries()[0]
	if e.Value.(float64) != 3 || e.Count != 2 {
		t.Fatalf("entry = %+v", e)
	}
	if err := l.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestDisjointInsertsStaySorted(t *testing.T) {
	l := New(sumCombine)
	l.Insert(sum(3, 10, 15), 0, 100)
	l.Insert(sum(1, 0, 5), 0, 100)
	l.Insert(sum(2, 5, 10), 0, 100)
	if l.Len() != 3 {
		t.Fatalf("len = %d, want 3", l.Len())
	}
	for i, want := range []float64{1, 2, 3} {
		if got := l.Entries()[i].Value.(float64); got != want {
			t.Fatalf("entry %d = %v, want %v", i, got, want)
		}
	}
	if err := l.Validate(); err != nil {
		t.Fatal(err)
	}
}

// The paper's T1/T2/T3 example: partially overlapping indices produce a
// merged middle region and value-preserving tails.
func TestPartialOverlapSplits(t *testing.T) {
	l := New(sumCombine)
	l.Insert(sum(10, 0, 10), 0, 100) // T1
	l.Insert(sum(5, 6, 14), 0, 100)  // T2 overlaps [6,10)
	if l.Len() != 3 {
		t.Fatalf("len = %d, want 3 (lead, overlap, tail)", l.Len())
	}
	es := l.Entries()
	if es[0].Index != (tuple.Index{TB: 0, TE: 6}) || es[0].Value.(float64) != 10 {
		t.Fatalf("lead = %v %v", es[0].Index, es[0].Value)
	}
	if es[1].Index != (tuple.Index{TB: 6, TE: 10}) || es[1].Value.(float64) != 15 {
		t.Fatalf("overlap = %v %v (want merged 15)", es[1].Index, es[1].Value)
	}
	if es[2].Index != (tuple.Index{TB: 10, TE: 14}) || es[2].Value.(float64) != 5 {
		t.Fatalf("tail = %v %v", es[2].Index, es[2].Value)
	}
	if err := l.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestIncomingSpansMultipleEntries(t *testing.T) {
	l := New(sumCombine)
	l.Insert(sum(1, 0, 4), 0, 100)
	l.Insert(sum(2, 8, 12), 0, 100)
	l.Insert(sum(100, 2, 10), 0, 100) // covers tail of 1st, gap, head of 2nd
	// Expect: [0,2)=1, [2,4)=101, [4,8)=100, [8,10)=102, [10,12)=2
	wants := []struct {
		idx tuple.Index
		v   float64
	}{
		{tuple.Index{TB: 0, TE: 2}, 1},
		{tuple.Index{TB: 2, TE: 4}, 101},
		{tuple.Index{TB: 4, TE: 8}, 100},
		{tuple.Index{TB: 8, TE: 10}, 102},
		{tuple.Index{TB: 10, TE: 12}, 2},
	}
	if l.Len() != len(wants) {
		t.Fatalf("len = %d, want %d", l.Len(), len(wants))
	}
	for i, w := range wants {
		e := l.Entries()[i]
		if e.Index != w.idx || e.Value.(float64) != w.v {
			t.Fatalf("entry %d = %v %v, want %v %v", i, e.Index, e.Value, w.idx, w.v)
		}
	}
	if err := l.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestBoundaryTuplesUpdateCompletenessOnly(t *testing.T) {
	l := New(sumCombine)
	l.Insert(sum(5, 0, 10), 0, 100)
	l.Insert(tuple.Summary{
		Index: tuple.Index{TB: 0, TE: 10}, Count: 1, Boundary: true,
	}, 0, 100)
	e := l.Entries()[0]
	if e.Value.(float64) != 5 {
		t.Fatalf("boundary changed value to %v", e.Value)
	}
	if e.Count != 2 {
		t.Fatalf("count = %d, want 2", e.Count)
	}
	if e.Boundary {
		t.Fatal("entry still marked boundary after real value merged")
	}
}

func TestBoundaryFirstThenValue(t *testing.T) {
	l := New(sumCombine)
	l.Insert(tuple.Summary{Index: tuple.Index{TB: 0, TE: 10}, Count: 1, Boundary: true}, 0, 100)
	if !l.Entries()[0].Boundary {
		t.Fatal("boundary-only entry not marked boundary")
	}
	l.Insert(sum(7, 0, 10), 0, 100)
	e := l.Entries()[0]
	if e.Boundary || e.Value.(float64) != 7 || e.Count != 2 {
		t.Fatalf("entry = %+v", e)
	}
}

func TestAgeAveraging(t *testing.T) {
	l := New(sumCombine)
	// Tuple A: age 10s, arrives at local time 0. Tuple B: age 2s, arrives
	// at local 0. At eviction (local 3s) the ages are 13s and 5s; avg 9s.
	a := sum(1, 0, 5)
	a.Age = 10 * time.Second
	b := sum(2, 0, 5)
	b.Age = 2 * time.Second
	l.Insert(a, 0, 100)
	l.Insert(b, 0, 100)
	e := l.Entries()[0]
	if got := e.AvgAge(3 * time.Second); got != 9*time.Second {
		t.Fatalf("avg age = %v, want 9s", got)
	}
	s := e.Summary("q", 3*time.Second)
	if s.Age != 9*time.Second || s.Count != 2 || s.Value.(float64) != 3 {
		t.Fatalf("summary = %+v", s)
	}
}

func TestAgeAccountsResidenceTime(t *testing.T) {
	l := New(sumCombine)
	a := sum(1, 0, 5)
	a.Age = time.Second
	l.Insert(a, 10*time.Second, 100*time.Second) // arrives at local t=10s
	// At local t=14s the tuple has been resident 4s: age = 1+4 = 5s.
	if got := l.Entries()[0].AvgAge(14 * time.Second); got != 5*time.Second {
		t.Fatalf("age = %v, want 5s", got)
	}
}

func TestPopExpired(t *testing.T) {
	l := New(sumCombine)
	l.Insert(sum(1, 0, 5), 0, 10)
	l.Insert(sum(2, 5, 10), 0, 20)
	l.Insert(sum(3, 10, 15), 0, 30)
	if dl, ok := l.NextDeadline(); !ok || dl != 10 {
		t.Fatalf("next deadline = %v %v", dl, ok)
	}
	got := l.PopExpired(15)
	if len(got) != 1 || got[0].Value.(float64) != 1 {
		t.Fatalf("expired = %+v", got)
	}
	if l.Len() != 2 {
		t.Fatalf("len = %d", l.Len())
	}
	rest := l.PopExpired(100)
	if len(rest) != 2 {
		t.Fatalf("rest = %d", len(rest))
	}
	if _, ok := l.NextDeadline(); ok {
		t.Fatal("deadline on empty list")
	}
}

// PopLeading, called until nil, takes the leading run of entries that
// reached the count and nothing behind the first that has not, in index
// order, leaves the rest sorted, and hands back entries the pool can reuse.
func TestPopLeading(t *testing.T) {
	l := New(sumCombine)
	for w := time.Duration(0); w < 5; w++ {
		l.Insert(sum(1, w*5, w*5+5), 0, 100) // windows 0..4, Count 1
	}
	for _, w := range []time.Duration{0, 1, 3, 4} { // window 2 stays at Count 1
		l.Insert(sum(1, w*5, w*5+5), 0, 100)
	}
	popRun := func(count int) (tbs []time.Duration) {
		for e := l.PopLeading(count); e != nil; e = l.PopLeading(count) {
			tbs = append(tbs, e.Index.TB)
			l.Recycle(e)
		}
		if err := l.Validate(); err != nil {
			t.Fatal(err)
		}
		return tbs
	}
	if got := popRun(3); got != nil {
		t.Fatalf("popped %v below the count", got)
	}
	if got := popRun(2); len(got) != 2 || got[0] != 0 || got[1] != 5 {
		t.Fatalf("popped %v, want windows 0 and 1 in order", got)
	}
	// Windows 3 and 4 are complete but sit behind 2: nothing more pops
	// until 2 is complete or gone.
	if l.Len() != 3 || l.Entries()[0].Index.TB != 10 {
		t.Fatalf("left %d entries starting at %v, want 3 starting at window 2", l.Len(), l.Entries()[0].Index.TB)
	}
	l.Insert(sum(1, 10, 15), 0, 100)
	if got := popRun(2); len(got) != 3 || got[0] != 10 || got[2] != 20 {
		t.Fatalf("popped %v, want windows 2, 3, 4", got)
	}
	if l.Len() != 0 {
		t.Fatalf("len = %d after popping everything", l.Len())
	}
	// The recycled shells back the next inserts without carrying state over.
	l.Insert(sum(7, 0, 5), 0, 100)
	if e := l.Entries()[0]; e.Count != 1 || e.Value.(float64) != 7 {
		t.Fatalf("reused entry = %+v", e)
	}
}

func TestMergeKeepsEarliestDeadline(t *testing.T) {
	l := New(sumCombine)
	l.Insert(sum(1, 0, 5), 0, 50)
	l.Insert(sum(2, 0, 5), 0, 10) // same index, later arrival, earlier dl passed in
	// Merged entry must keep its original (first-arrival) deadline: merging
	// never delays eviction.
	if dl := l.Entries()[0].Deadline; dl != 50 {
		t.Fatalf("deadline = %v, want 50 (set at first arrival)", dl)
	}
}

func TestExtendLast(t *testing.T) {
	l := New(sumCombine)
	l.Insert(sum(1, 0, 5), 0, 100)
	if !l.ExtendLast(5, 8) {
		t.Fatal("extend failed")
	}
	if l.Entries()[0].Index.TE != 8 {
		t.Fatalf("TE = %v", l.Entries()[0].Index.TE)
	}
	if l.ExtendLast(5, 9) {
		t.Fatal("extend matched stale TE")
	}
	// Extension must not collide with a later entry.
	l.Insert(sum(2, 10, 12), 0, 100)
	if l.ExtendLast(8, 11) {
		t.Fatal("extend overlapped a later entry")
	}
	if l.ExtendLast(8, 10) != true {
		t.Fatal("extend to exactly the next entry's TB should work")
	}
	if err := l.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestPopAll(t *testing.T) {
	l := New(sumCombine)
	l.Insert(sum(1, 0, 5), 0, 10)
	l.Insert(sum(2, 5, 10), 0, 20)
	if got := l.PopAll(); len(got) != 2 {
		t.Fatalf("pop all = %d", len(got))
	}
	if l.Len() != 0 {
		t.Fatal("list not empty")
	}
}

func TestEmptyIndexIgnored(t *testing.T) {
	l := New(sumCombine)
	l.Insert(sum(1, 5, 5), 0, 10)
	l.Insert(sum(1, 7, 3), 0, 10)
	if l.Len() != 0 {
		t.Fatalf("len = %d, want 0", l.Len())
	}
}

// Property: for any insertion sequence, the list stays sorted and
// non-overlapping, and "values are counted only once for any given interval
// of time": the integral of value over time equals the sum of each inserted
// summary's value times its duration.
func TestPropertyMassConservation(t *testing.T) {
	f := func(seed int64, nRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		l := New(sumCombine)
		n := 1 + int(nRaw)%20
		var wantMass float64
		for i := 0; i < n; i++ {
			tb := time.Duration(rng.Intn(40))
			te := tb + time.Duration(1+rng.Intn(20))
			v := float64(1 + rng.Intn(9))
			l.Insert(sum(v, tb, te), 0, 1000)
			wantMass += v * float64(te-tb)
		}
		if l.Validate() != nil {
			return false
		}
		var gotMass float64
		for _, e := range l.Entries() {
			gotMass += e.Value.(float64) * float64(e.Index.Duration())
		}
		return gotMass == wantMass
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: entry count bookkeeping matches the number of contributing
// summaries for exact-index insertion patterns.
func TestPropertyExactIndexCounts(t *testing.T) {
	f := func(seed int64, nRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		l := New(sumCombine)
		n := 1 + int(nRaw)%30
		counts := map[time.Duration]int{}
		for i := 0; i < n; i++ {
			slot := time.Duration(rng.Intn(5)) * 10
			l.Insert(sum(1, slot, slot+10), 0, 1000)
			counts[slot]++
		}
		if l.Len() != len(counts) {
			return false
		}
		for _, e := range l.Entries() {
			if e.Count != counts[e.Index.TB] || e.Constituents() != counts[e.Index.TB] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
