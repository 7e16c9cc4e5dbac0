package livert

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/runtime"
	"repro/internal/wire"
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

// hb is a bare message the transport encodes: frames carry it over the
// socket and handlers receive it decoded.
func hb(seq int) wire.Heartbeat { return wire.Heartbeat{Seq: uint64(seq)} }

// Delivery to one peer must be serialized: its handler never runs
// concurrently with itself, even when many senders blast it at once. The
// senders go in rounds, each resolved before the next, so no round can
// outrun the socket's receive buffer: a datagram the kernel drops is lost
// without a trace, and this test counts every frame.
func TestPerPeerSerializedDelivery(t *testing.T) {
	const peers, rounds, perRound = 4, 8, 25
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
	for round := 0; round < rounds; round++ {
		var wg sync.WaitGroup
		for from := 0; from < peers; from++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for k := 0; k < perRound; k++ {
					rt.Send(from, (from+1+k%(peers-1))%peers, runtime.ClassData, 8, hb(k+1))
				}
			}()
		}
		wg.Wait()
		waitFor(t, 5*time.Second, func() bool {
			var n int64
			for i := range received {
				n += received[i].Load()
			}
			return n == int64((round+1)*peers*perRound)
		})
	}
	if overlaps.Load() != 0 {
		t.Fatalf("%d concurrent handler entries on a single peer", overlaps.Load())
	}
}

// CtrlDup duplicates control frames, and only control frames, at netrt's
// fault point: at CtrlDup 1 every control frame arrives twice, the
// condition peer-level duplicate suppression exists for, and no data frame
// ever does.
func TestControlDuplication(t *testing.T) {
	rt := New(2, Options{Seed: 2, MinDelay: time.Microsecond, MaxDelay: 10 * time.Microsecond, CtrlDup: 1})
	defer rt.Shutdown()
	const n = 50
	var ctrl, data atomic.Int64
	rt.Handle(1, func(from int, payload any, size int) {
		if payload.(wire.Heartbeat).Seq <= n {
			ctrl.Add(1)
		} else {
			data.Add(1)
		}
	})
	for i := 1; i <= n; i++ {
		rt.Send(0, 1, runtime.ClassControl, 8, hb(i))
		rt.Send(0, 1, runtime.ClassData, 8, hb(n+i))
	}
	waitFor(t, 5*time.Second, func() bool { return ctrl.Load() == 2*n && data.Load() == n })
	time.Sleep(20 * time.Millisecond) // a duplicated data frame would land by now
	if c, d := ctrl.Load(), data.Load(); c != 2*n || d != n {
		t.Fatalf("control %d (want %d), data %d (want %d)", c, 2*n, d, n)
	}
	if sent, _, _, duplicated := rt.Stats(); sent != 2*n || duplicated != n {
		t.Fatalf("sent=%d duplicated=%d, want %d and %d", sent, duplicated, 2*n, n)
	}
}

// Loss drops roughly the configured fraction, each lost frame counted once
// at the fault point: every frame is either handled or counted there. (In
// rounds, as above, so the kernel drops none.)
func TestLossDropsMessages(t *testing.T) {
	rt := New(2, Options{Seed: 3, MinDelay: time.Microsecond, MaxDelay: 10 * time.Microsecond, Loss: 0.5})
	defer rt.Shutdown()
	var got atomic.Int64
	rt.Handle(1, func(from int, payload any, size int) { got.Add(1) })
	const rounds, perRound, n = 20, 100, 2000
	for round := 0; round < rounds; round++ {
		for i := 0; i < perRound; i++ {
			rt.Send(0, 1, runtime.ClassData, 8, hb(round*perRound+i+1))
		}
		waitFor(t, 5*time.Second, func() bool {
			_, _, lost := rt.Runtime.Stats()
			return uint64(got.Load())+lost == uint64((round+1)*perRound)
		})
	}
	if g := got.Load(); g < n/3 || g > 2*n/3 {
		t.Fatalf("delivered %d of %d at 50%% loss", g, n)
	}
}

// A down peer neither sends nor receives.
func TestDownPeers(t *testing.T) {
	rt := New(2, Options{Seed: 4, MinDelay: time.Microsecond, MaxDelay: 10 * time.Microsecond})
	defer rt.Shutdown()
	var got atomic.Int64
	rt.Handle(1, func(from int, payload any, size int) { got.Add(1) })
	rt.SetDown(1, true)
	if !rt.Down(1) {
		t.Fatal("peer not down")
	}
	rt.Send(0, 1, runtime.ClassData, 8, hb(1))
	rt.SetDown(0, true)
	if ok := rt.Send(0, 1, runtime.ClassData, 8, hb(2)); ok {
		t.Fatal("down sender accepted a send")
	}
	time.Sleep(20 * time.Millisecond)
	if got.Load() != 0 {
		t.Fatalf("down peer received %d messages", got.Load())
	}
	rt.SetDown(0, false)
	rt.SetDown(1, false)
	rt.Send(0, 1, runtime.ClassData, 8, hb(3))
	waitFor(t, 5*time.Second, func() bool { return got.Load() == 1 })
}

// Shutdown drains mailboxes, stops intake, and establishes happens-before
// for post-shutdown inspection; afterwards the ledger reconciles.
func TestCleanShutdown(t *testing.T) {
	rt := New(3, Options{Seed: 5, MinDelay: time.Microsecond, MaxDelay: 5 * time.Microsecond})
	var count int // plain int: only peer-0 domain writes, main reads after Shutdown
	rt.Handle(0, func(from int, payload any, size int) { count++ })
	for i := 0; i < 100; i++ {
		rt.Send(1, 0, runtime.ClassData, 8, hb(i+1))
	}
	waitFor(t, 5*time.Second, func() bool {
		_, delivered, _, _ := rt.Stats()
		return delivered == 100
	})
	rt.Shutdown()
	if count != 100 {
		t.Fatalf("Shutdown returned with %d of 100 posted messages handled", count)
	}
	if ok := rt.Exec(0, func() { count++ }); ok {
		t.Fatal("Exec accepted after Shutdown")
	}
	if rt.Send(1, 0, runtime.ClassData, 8, hb(101)) {
		t.Fatal("Send accepted after Shutdown")
	}
	time.Sleep(10 * time.Millisecond)
	if count != 100 {
		t.Fatalf("work ran after Shutdown: 100 -> %d", count)
	}
	if sent, delivered, dropped, duplicated := rt.Stats(); sent != 100 || delivered+dropped != sent+duplicated {
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

// Every frame is held at least MinDelay: the delay draw is the transport's,
// not a configured figure the planner reads.
func TestMinDelayHoldsEveryFrame(t *testing.T) {
	const minDelay = 20 * time.Millisecond
	rt := New(3, Options{Seed: 8, MinDelay: minDelay, MaxDelay: 25 * time.Millisecond})
	defer rt.Shutdown()
	var early, arrived atomic.Int64
	start := time.Now() // before Handle: its lock orders the handler's read
	rt.Handle(2, func(from int, payload any, size int) {
		if time.Since(start) < minDelay {
			early.Add(1)
		}
		arrived.Add(1)
	})
	for i := 0; i < 20; i++ {
		rt.Send(i%2, 2, runtime.ClassData, 8, hb(i+1))
	}
	waitFor(t, 5*time.Second, func() bool { return arrived.Load() == 20 })
	if early.Load() != 0 {
		t.Fatalf("%d of 20 frames arrived before MinDelay", early.Load())
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
