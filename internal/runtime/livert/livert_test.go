package livert

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/runtime"
)

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, d time.Duration, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatal("condition not reached in time")
}

// Delivery to one peer must be serialized: its handler never runs
// concurrently with itself, even when many senders blast it at once.
func TestPerPeerSerializedDelivery(t *testing.T) {
	const peers, msgs = 4, 200
	rt := New(peers, Options{Seed: 1, MinDelay: time.Microsecond, MaxDelay: 50 * time.Microsecond})
	defer rt.Shutdown()

	var received [peers]atomic.Int64
	var inside [peers]atomic.Int32
	var overlaps atomic.Int64
	for i := 0; i < peers; i++ {
		i := i
		rt.Handle(i, func(from int, payload any, size int) {
			if !inside[i].CompareAndSwap(0, 1) {
				overlaps.Add(1)
			}
			received[i].Add(1)
			inside[i].Store(0)
		})
	}
	var wg sync.WaitGroup
	for from := 0; from < peers; from++ {
		from := from
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := 0; k < msgs; k++ {
				rt.Send(from, (from+1+k%(peers-1))%peers, runtime.ClassData, 8, k)
			}
		}()
	}
	wg.Wait()
	waitFor(t, 5*time.Second, func() bool {
		var n int64
		for i := range received {
			n += received[i].Load()
		}
		return n == peers*msgs
	})
	if overlaps.Load() != 0 {
		t.Fatalf("%d concurrent handler entries on a single peer", overlaps.Load())
	}
}

// CtrlDup must duplicate control messages (and only control messages), the
// condition peer-level duplicate suppression exists for.
func TestControlDuplication(t *testing.T) {
	rt := New(2, Options{Seed: 2, MinDelay: time.Microsecond, MaxDelay: 10 * time.Microsecond, CtrlDup: 1})
	defer rt.Shutdown()
	var ctrl, data atomic.Int64
	rt.Handle(1, func(from int, payload any, size int) {
		if payload == "ctrl" {
			ctrl.Add(1)
		} else {
			data.Add(1)
		}
	})
	const n = 50
	for i := 0; i < n; i++ {
		rt.Send(0, 1, runtime.ClassControl, 8, "ctrl")
		rt.Send(0, 1, runtime.ClassData, 8, "data")
	}
	waitFor(t, 5*time.Second, func() bool { return ctrl.Load() == 2*n && data.Load() == n })
}

// Loss must drop roughly the configured fraction.
func TestLossDropsMessages(t *testing.T) {
	rt := New(2, Options{Seed: 3, MinDelay: time.Microsecond, MaxDelay: 10 * time.Microsecond, Loss: 0.5})
	defer rt.Shutdown()
	var got atomic.Int64
	rt.Handle(1, func(from int, payload any, size int) { got.Add(1) })
	const n = 2000
	for i := 0; i < n; i++ {
		rt.Send(0, 1, runtime.ClassData, 8, i)
	}
	// delivered counts a message when it is posted to the mailbox; the
	// handler runs later, so the wait is on what the handler has seen.
	waitFor(t, 5*time.Second, func() bool {
		sent, _, dropped, _ := rt.Stats()
		return sent == n && uint64(got.Load())+dropped == n
	})
	if g := got.Load(); g < n/3 || g > 2*n/3 {
		t.Fatalf("delivered %d of %d at 50%% loss", g, n)
	}
}

// A down peer neither sends nor receives; messages in flight to it drop.
func TestDownPeers(t *testing.T) {
	rt := New(2, Options{Seed: 4, MinDelay: time.Microsecond, MaxDelay: 10 * time.Microsecond})
	defer rt.Shutdown()
	var got atomic.Int64
	rt.Handle(1, func(from int, payload any, size int) { got.Add(1) })
	rt.SetDown(1, true)
	if !rt.Down(1) {
		t.Fatal("peer not down")
	}
	rt.Send(0, 1, runtime.ClassData, 8, "x")
	rt.SetDown(0, true)
	if ok := rt.Send(0, 1, runtime.ClassData, 8, "y"); ok {
		t.Fatal("down sender accepted a send")
	}
	time.Sleep(20 * time.Millisecond)
	if got.Load() != 0 {
		t.Fatalf("down peer received %d messages", got.Load())
	}
	rt.SetDown(0, false)
	rt.SetDown(1, false)
	rt.Send(0, 1, runtime.ClassData, 8, "z")
	waitFor(t, 5*time.Second, func() bool { return got.Load() == 1 })
}

// Shutdown drains mailboxes, stops intake, and establishes happens-before
// for post-shutdown inspection.
func TestCleanShutdown(t *testing.T) {
	rt := New(3, Options{Seed: 5, MinDelay: time.Microsecond, MaxDelay: 5 * time.Microsecond})
	var count int // plain int: only peer-0 domain writes, main reads after Shutdown
	rt.Handle(0, func(from int, payload any, size int) { count++ })
	for i := 0; i < 100; i++ {
		rt.Send(1, 0, runtime.ClassData, 8, i)
	}
	waitFor(t, 5*time.Second, func() bool {
		_, delivered, dropped, _ := rt.Stats()
		return delivered+dropped == 100
	})
	rt.Shutdown()
	after := count
	if ok := rt.Exec(0, func() { count++ }); ok {
		t.Fatal("Exec accepted after Shutdown")
	}
	if rt.Send(1, 0, runtime.ClassData, 8, "late") {
		t.Fatal("Send accepted after Shutdown")
	}
	time.Sleep(10 * time.Millisecond)
	if count != after {
		t.Fatalf("work ran after Shutdown: %d -> %d", after, count)
	}
	if sent, delivered, dropped, duplicated := rt.Stats(); delivered+dropped != sent+duplicated {
		t.Fatalf("ledger does not reconcile after Shutdown: sent=%d delivered=%d dropped=%d duplicated=%d",
			sent, delivered, dropped, duplicated)
	}
	rt.Shutdown() // idempotent
}

// Timers fire in the owning peer's domain; Cancel prevents the callback;
// tickers repeat until stopped.
func TestClockTimersAndTickers(t *testing.T) {
	rt := New(1, Options{Seed: 6})
	defer rt.Shutdown()
	ck := rt.Clock(0)

	var fired atomic.Int32
	tm := ck.After(5*time.Millisecond, func() { fired.Add(1) })
	if tm.Stopped() {
		t.Fatal("pending timer reports stopped")
	}
	waitFor(t, 5*time.Second, func() bool { return fired.Load() == 1 })
	if !tm.Stopped() {
		t.Fatal("fired timer not stopped")
	}

	var cancelled atomic.Int32
	tc := ck.After(20*time.Millisecond, func() { cancelled.Add(1) })
	tc.Cancel()
	if !tc.Stopped() {
		t.Fatal("cancelled timer not stopped")
	}

	var ticks atomic.Int32
	tk := ck.Every(2*time.Millisecond, func() { ticks.Add(1) })
	waitFor(t, 5*time.Second, func() bool { return ticks.Load() >= 3 })
	tk.Stop()
	n := ticks.Load()
	time.Sleep(20 * time.Millisecond)
	if ticks.Load() > n+1 { // at most one in-flight tick may land
		t.Fatalf("ticker kept firing after Stop: %d -> %d", n, ticks.Load())
	}
	time.Sleep(30 * time.Millisecond)
	if cancelled.Load() != 0 {
		t.Fatal("cancelled timer fired")
	}
	if now := ck.Now(); now <= 0 {
		t.Fatalf("clock not advancing: %v", now)
	}
}

// With a PairDelay topology configured, Latency must report the pair's
// injected delay — the planner's input — and Send must actually impose it.
func TestPairDelayTopology(t *testing.T) {
	pair := func(a, b int) time.Duration {
		return time.Duration(1+a+b) * 5 * time.Millisecond
	}
	rt := New(3, Options{Seed: 8, PairDelay: pair, Jitter: time.Millisecond})
	defer rt.Shutdown()

	if got, want := rt.Latency(0, 1), pair(0, 1)+500*time.Microsecond; got != want {
		t.Fatalf("Latency(0,1) = %v, want configured %v", got, want)
	}
	if rt.Latency(1, 2) <= rt.Latency(0, 1) {
		t.Fatalf("pair delays not distinguished: %v vs %v", rt.Latency(1, 2), rt.Latency(0, 1))
	}

	var arrived atomic.Int64
	start := time.Now()
	rt.Handle(2, func(from int, payload any, size int) {
		arrived.Store(int64(time.Since(start)))
	})
	rt.Send(1, 2, runtime.ClassData, 8, "x")
	waitFor(t, 5*time.Second, func() bool { return arrived.Load() != 0 })
	if got := time.Duration(arrived.Load()); got < pair(1, 2) {
		t.Fatalf("message arrived after %v, before the configured %v", got, pair(1, 2))
	}
}

// ExecWait returns only after the function ran in the peer's domain.
func TestExecWait(t *testing.T) {
	rt := New(2, Options{Seed: 7})
	ran := false
	if !runtime.ExecWait(rt, 1, func() { ran = true }) {
		t.Fatal("ExecWait refused on a live runtime")
	}
	if !ran {
		t.Fatal("ExecWait returned before fn ran")
	}
	rt.Shutdown()
	if runtime.ExecWait(rt, 1, func() {}) {
		t.Fatal("ExecWait accepted after Shutdown")
	}
}
