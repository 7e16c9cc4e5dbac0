package tslist

import (
	"testing"
	"time"
)

// FuzzTSListInvariants drives a list through an arbitrary interleaving of
// Insert, ExtendLast, PopExpired, PopLeading and Recycle (the full entry
// life cycle, pool included) and checks the structural invariants after
// every step: entries stay sorted and non-overlapping (Validate), and value
// mass — the integral of value over time — is conserved between the list
// and what has been popped, so no interval is ever counted twice or dropped
// (§4.2: "values are counted only once for any given interval of time").
// Coverage is held to the same standard: every time unit an insert or an
// extension covered is in exactly one entry, through merges, splits and pool
// reuse — checked against a per-time-unit shadow when the entry is popped
// and for everything left at the end.
// PopLeading called until nil must also return exactly the leading run that
// reached the count: in order, nothing under the count, and stopping at the
// first entry under it.
//
// Each operation consumes three bytes of fuzz input: an opcode and two
// operands that choose the interval, value and deadline.
func FuzzTSListInvariants(f *testing.F) {
	f.Add([]byte{0, 3, 7, 0, 3, 7, 3, 9, 0})                   // merge then pop
	f.Add([]byte{0, 0, 4, 2, 4, 2, 0, 2, 9})                   // insert, extend, overlap
	f.Add([]byte{1, 10, 3, 1, 12, 3, 3, 40, 0, 0, 10, 3})      // pop then refill from pool
	f.Add([]byte{0, 0, 4, 0, 0, 4, 0, 8, 4, 4, 1, 0, 0, 0, 4}) // merge, leading-pop, refill
	f.Fuzz(func(t *testing.T, data []byte) {
		l := New(sumCombine)
		var ctr Counters
		l.SetCounters(&ctr)
		var now time.Duration
		var wantMass, gotPopped float64
		// covered holds the time units inserted since they last left the list.
		covered := map[time.Duration]bool{}
		checkCovered := func(e *Entry) {
			for u := e.Index.TB; u < e.Index.TE; u++ {
				if !covered[u] {
					t.Fatalf("entry %v holds unit %v, which no insert covers", e.Index, u)
				}
				delete(covered, u)
			}
		}
		for i := 0; i+2 < len(data); i += 3 {
			op, a, b := data[i]%5, data[i+1], data[i+2]
			switch op {
			case 0, 1: // insert (double weight: it drives everything else)
				tb := time.Duration(a % 48)
				te := tb + time.Duration(1+b%16)
				v := float64(1 + b%8)
				dl := now + time.Duration(1+a%32)
				l.Insert(sum(v, tb, te), now, dl)
				wantMass += v * float64(te-tb)
				for u := tb; u < te; u++ {
					covered[u] = true
				}
			case 2: // extend the entry ending exactly at tb, when one exists
				tb := time.Duration(a % 48)
				te := tb + time.Duration(1+b%8)
				var v float64
				for _, e := range l.Entries() {
					if e.Index.TE == tb {
						v = e.Value.(float64) // TEs are strictly increasing: at most one match
					}
				}
				if l.ExtendLast(tb, te) {
					// An extension stretches the entry's value over the new
					// interval, adding mass without an insert.
					wantMass += v * float64(te-tb)
					for u := tb; u < te; u++ {
						covered[u] = true
					}
				}
			case 3: // advance time, pop, recycle through the pool
				now += time.Duration(a % 16)
				for _, e := range l.PopExpired(now) {
					gotPopped += e.Value.(float64) * float64(e.Index.Duration())
					checkCovered(e)
					l.Recycle(e)
				}
			case 4: // pop the leading run of entries counted at least 1 + a%3 times
				count := 1 + int(a%3)
				run := 0
				for run < l.Len() && l.Entries()[run].Count >= count {
					run++
				}
				popped, last := 0, time.Duration(-1)
				for e := l.PopLeading(count); e != nil; e = l.PopLeading(count) {
					if e.Count < count || e.Index.TB <= last {
						t.Fatalf("PopLeading(%d) returned %v (count %d) after TB %v", count, e.Index, e.Count, last)
					}
					popped, last = popped+1, e.Index.TB
					gotPopped += e.Value.(float64) * float64(e.Index.Duration())
					checkCovered(e)
					l.Recycle(e)
				}
				if popped != run {
					t.Fatalf("PopLeading(%d) popped %d entries, the leading run is %d", count, popped, run)
				}
			}
			if err := l.Validate(); err != nil {
				t.Fatalf("after op %d (%d %d %d): %v", i/3, op, a, b, err)
			}
		}
		var gotList float64
		for _, e := range l.Entries() {
			gotList += e.Value.(float64) * float64(e.Index.Duration())
			checkCovered(e)
		}
		if len(covered) != 0 {
			t.Fatalf("%d time units were inserted and are in no entry, popped or held", len(covered))
		}
		if got := gotList + gotPopped; got != wantMass {
			t.Fatalf("mass: list %v + popped %v = %v, want %v",
				gotList, gotPopped, gotList+gotPopped, wantMass)
		}
		if int(ctr.Inserts.Load()) == 0 && len(data) >= 3 && l.Len()+int(ctr.Merges.Load()) > 0 {
			t.Fatal("entries exist but no insert was counted")
		}
	})
}
