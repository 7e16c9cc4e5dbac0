package federation

import (
	"sync"
	"testing"
	"time"

	"repro/internal/mortar"
	"repro/internal/tuple"
)

func TestWatchCompleteness(t *testing.T) {
	fed, sim, rng := build(t, `query n as count() from sensors window time 1s slide 1s`, 30)
	fed.StartSensors(time.Second, func(int) tuple.Raw { return tuple.Raw{Vals: []float64{1}} }, rng)
	sim.RunUntil(20 * time.Second)

	l := fed.Ledger
	if best := l.Best("n"); best != 30 {
		t.Fatalf("best completeness = %d, want 30", best)
	}
	win, count := l.Latest("n")
	if count != 30 {
		t.Fatalf("latest window %d has completeness %d, want 30", win, count)
	}
	if got, ok := l.Window("n", win); !ok || got != count {
		t.Fatalf("Window(%d) = %d, %v", win, got, ok)
	}
	rs, ok := l.Windows("n")
	if !ok || len(rs) == 0 || rs[len(rs)-1].WindowIndex != win {
		t.Fatalf("Windows ends at %v, want window %d", rs, win)
	}
	for i := 1; i < len(rs); i++ {
		if rs[i].WindowIndex <= rs[i-1].WindowIndex {
			t.Fatalf("windows out of order: %d after %d", rs[i].WindowIndex, rs[i-1].WindowIndex)
		}
	}
	if names := l.Queries(); len(names) != 1 || names[0] != "n" {
		t.Fatalf("Queries = %v, want [n]", names)
	}

	// A query that is not installed has no record.
	if l.Best("nope") != 0 {
		t.Fatal("uninstalled query recorded results")
	}
	if _, ok := l.Windows("nope"); ok {
		t.Fatal("uninstalled query lists windows")
	}
}

// The ledger folds both epochs' reports per window and follows failure and
// recovery; removing the query forgets it and closes its streams.
func TestWatchCompletenessFold(t *testing.T) {
	fed, sim, rng := build(t, `query n as count() from sensors window time 1s slide 1s`, 20)
	fed.StartSensors(time.Second, func(int) tuple.Raw { return tuple.Raw{Vals: []float64{1}} }, rng)
	sim.RunUntil(6 * time.Second)
	fed.FailRandom(8, rng)
	sim.RunUntil(14 * time.Second)
	winDuring, during := fed.Ledger.Latest("n")
	if during > 12 {
		t.Fatalf("window %d completeness %d with 8 of 20 down", winDuring, during)
	}
	fed.RecoverAll()
	sim.RunUntil(26 * time.Second)
	_, after := fed.Ledger.Latest("n")
	if after != 20 {
		t.Fatalf("completeness %d after recovery, want 20", after)
	}

	_, ch, cancel, ok := fed.Ledger.Subscribe("n", 0)
	if !ok {
		t.Fatal("Subscribe refused an installed query")
	}
	if err := fed.RemoveQuery("n"); err != nil {
		t.Fatal(err)
	}
	for range ch {
	}
	cancel() // after removal closed the stream: a no-op
	sim.RunUntil(30 * time.Second)
	if _, ok := fed.Ledger.Windows("n"); ok {
		t.Fatal("removed query kept a record")
	}
}

// Window indices are per query: two queries reporting the same index with
// different counts each read only their own.
func TestLedgerKeepsQueriesApart(t *testing.T) {
	fed, _, _ := build(t, `
		query a as count() from sensors window time 1s slide 1s
		query b as count() from sensors window time 1s slide 1s
	`, 10)
	l := fed.Ledger
	for _, r := range []mortar.Result{
		{Query: "a", WindowIndex: 3, Count: 5},
		{Query: "b", WindowIndex: 3, Count: 9},
		{Query: "a", WindowIndex: 4, Count: 6},
		{Query: "b", WindowIndex: 2, Count: 7},
	} {
		l.Record(r)
	}
	if w, c := l.Latest("a"); w != 4 || c != 6 {
		t.Fatalf("Latest(a) = window %d count %d, want 4, 6", w, c)
	}
	if w, c := l.Latest("b"); w != 3 || c != 9 {
		t.Fatalf("Latest(b) = window %d count %d, want 3, 9", w, c)
	}
	if c, ok := l.Window("a", 3); !ok || c != 5 {
		t.Fatalf("Window(a, 3) = %d, %v, want 5", c, ok)
	}
	if c, ok := l.Window("b", 3); !ok || c != 9 {
		t.Fatalf("Window(b, 3) = %d, %v, want 9", c, ok)
	}
	if l.Best("a") != 6 || l.Best("b") != 9 {
		t.Fatalf("Best = %d, %d, want 6, 9", l.Best("a"), l.Best("b"))
	}
}

// The ledger keeps the last 64 windows in window order, whatever order the
// reports arrive in: a late report fills or improves its own slot, and one
// older than every kept window is not kept.
func TestLedgerWindowOrder(t *testing.T) {
	fed, _, _ := build(t, `query n as count() from sensors window time 1s slide 1s`, 10)
	l := fed.Ledger
	for w := int64(2); w <= 200; w += 2 { // 100 even windows: 74..200 kept
		l.Record(mortar.Result{Query: "n", WindowIndex: w, Count: 1})
	}
	l.Record(mortar.Result{Query: "n", WindowIndex: 151, Count: 2}) // fills a gap, evicts 74
	l.Record(mortar.Result{Query: "n", WindowIndex: 160, Count: 3}) // improves a slot
	l.Record(mortar.Result{Query: "n", WindowIndex: 160, Count: 2}) // does not worsen it
	l.Record(mortar.Result{Query: "n", WindowIndex: 50, Count: 9})  // older than all kept
	l.Record(mortar.Result{Query: "n", WindowIndex: 201, Count: 1}) // newest, evicts 76
	rs, _ := l.Windows("n")
	if len(rs) != ledgerWindows {
		t.Fatalf("kept %d windows, want %d", len(rs), ledgerWindows)
	}
	for i := 1; i < len(rs); i++ {
		if rs[i].WindowIndex <= rs[i-1].WindowIndex {
			t.Fatalf("windows out of order: %d after %d", rs[i].WindowIndex, rs[i-1].WindowIndex)
		}
	}
	if c, _ := l.Window("n", 160); c != 3 {
		t.Fatalf("window 160 count %d, want 3", c)
	}
	if c, ok := l.Window("n", 151); !ok || c != 2 {
		t.Fatalf("window 151 = %d, %v, want 2", c, ok)
	}
	if w, _ := l.Latest("n"); w != 201 {
		t.Fatalf("latest window %d, want 201", w)
	}
	if rs[0].WindowIndex != 78 {
		t.Fatalf("oldest kept window %d, want 78", rs[0].WindowIndex)
	}
	if l.Best("n") != 9 {
		t.Fatalf("best %d, want 9: a report too old to keep still counts toward it", l.Best("n"))
	}
}

// Reports, stream readers coming and going, and the query's removal and
// reinstall all reach the ledger at once: no report may be sent on a
// stream that was already closed.
func TestLedgerConcurrentUse(t *testing.T) {
	l := newLedger()
	l.arm("n")
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for w := int64(g); ; w += 4 {
				select {
				case <-stop:
					return
				default:
				}
				l.Record(mortar.Result{Query: "n", WindowIndex: w % 200, Count: g})
			}
		}(g)
	}
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				_, ch, cancel, ok := l.Subscribe("n", 0)
				if !ok {
					continue
				}
				select {
				case <-ch:
				default:
				}
				cancel()
			}
		}()
	}
	for i := 0; i < 200; i++ {
		l.drop("n")
		l.arm("n")
	}
	close(stop)
	wg.Wait()
}
