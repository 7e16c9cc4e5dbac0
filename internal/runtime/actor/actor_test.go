package actor

import (
	"math/rand"
	goruntime "runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// startLoop runs m.Loop on its own goroutine and returns a channel closed
// when Loop returns.
func startLoop(m *Mailbox) <-chan struct{} {
	done := make(chan struct{})
	go func() {
		m.Loop()
		close(done)
	}()
	return done
}

// waitDone fails the test unless done closes within a few seconds.
func waitDone(t *testing.T, done <-chan struct{}, what string) {
	t.Helper()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatalf("%s: timed out", what)
	}
}

// waitParked returns once m's Loop waits for work.
func waitParked(m *Mailbox) {
	for {
		m.mu.Lock()
		parked := m.parked
		m.mu.Unlock()
		if parked {
			return
		}
		goruntime.Gosched()
	}
}

// Four senders mix Post and Exec: each sender's fns run in the order it
// handed them over, and no two fns ever run at once, wherever they run.
func TestMailboxFIFOAndExclusion(t *testing.T) {
	const senders, perSender = 4, 5000
	m := NewMailbox()
	loopDone := startLoop(m)
	var inFlight atomic.Int32
	var overlap atomic.Bool
	next := make([]int, senders) // written only inside fns
	var bad atomic.Value
	var wg sync.WaitGroup
	for s := 0; s < senders; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(s)))
			for seq := 0; seq < perSender; seq++ {
				fn := func() {
					if inFlight.Add(1) > 1 {
						overlap.Store(true)
					}
					if next[s] != seq {
						bad.CompareAndSwap(nil, [3]int{s, seq, next[s]})
					}
					next[s]++
					if seq%64 == 0 {
						goruntime.Gosched() // widen the window for an overlap
					}
					inFlight.Add(-1)
				}
				var ok bool
				if rng.Intn(2) == 0 {
					ok = m.Post(fn)
				} else {
					ok = m.Exec(fn)
				}
				if !ok {
					t.Errorf("sender %d: seq %d refused before Close", s, seq)
					return
				}
			}
		}(s)
	}
	wg.Wait()
	m.Close()
	waitDone(t, loopDone, "Loop after Close")
	if v := bad.Load(); v != nil {
		b := v.([3]int)
		t.Fatalf("sender %d: seq %d ran when seq %d was due", b[0], b[1], b[2])
	}
	if overlap.Load() {
		t.Fatal("two fns ran at once")
	}
	for s, n := range next {
		if n != perSender {
			t.Fatalf("sender %d: %d of %d fns ran", s, n, perSender)
		}
	}
}

// Exec runs fn inline only when the mailbox is idle: with work queued or a
// fn running it queues fn behind them, and after Close it refuses fn.
func TestMailboxExecRefusesInlineUnlessIdle(t *testing.T) {
	t.Run("work queued", func(t *testing.T) {
		var order []string // written only inside fns
		rec := func(s string) func() { return func() { order = append(order, s) } }
		m := NewMailbox() // no Loop yet: a Post stays queued
		m.Post(rec("queued"))
		if !m.Exec(rec("exec")) {
			t.Fatal("Exec refused")
		}
		if len(order) != 0 {
			t.Fatalf("Exec ran %v inline behind queued work", order)
		}
		done := startLoop(m)
		m.Close()
		waitDone(t, done, "Loop")
		if len(order) != 2 || order[0] != "queued" || order[1] != "exec" {
			t.Fatalf("ran %v, want [queued exec]", order)
		}
	})

	t.Run("fn running inline", func(t *testing.T) {
		m := NewMailbox()
		entered, release := make(chan struct{}), make(chan struct{})
		var ranSecond atomic.Bool
		inlineDone := make(chan struct{})
		go func() {
			m.Exec(func() { close(entered); <-release })
			close(inlineDone)
		}()
		<-entered
		if !m.Exec(func() { ranSecond.Store(true) }) {
			t.Fatal("Exec refused")
		}
		if ranSecond.Load() {
			t.Fatal("Exec ran inline beside a running inline fn")
		}
		close(release)
		waitDone(t, inlineDone, "inline run")
		done := startLoop(m)
		m.Close()
		waitDone(t, done, "Loop")
		if !ranSecond.Load() {
			t.Fatal("queued fn never ran")
		}
	})

	t.Run("fn running on Loop", func(t *testing.T) {
		m := NewMailbox()
		done := startLoop(m)
		entered, release := make(chan struct{}), make(chan struct{})
		var ranSecond atomic.Bool
		m.Post(func() { close(entered); <-release })
		<-entered
		if !m.Exec(func() { ranSecond.Store(true) }) {
			t.Fatal("Exec refused")
		}
		if ranSecond.Load() {
			t.Fatal("Exec ran inline beside the Loop's fn")
		}
		close(release)
		m.Close()
		waitDone(t, done, "Loop")
		if !ranSecond.Load() {
			t.Fatal("queued fn never ran")
		}
	})

	t.Run("closed", func(t *testing.T) {
		m := NewMailbox()
		done := startLoop(m)
		m.Close()
		ran := false
		if m.Exec(func() { ran = true }) || m.Post(func() { ran = true }) {
			t.Fatal("fn accepted after Close")
		}
		waitDone(t, done, "Loop")
		if ran {
			t.Fatal("fn ran after Close")
		}
	})
}

// A Close that lands during an inline run, with nothing queued, must still
// end Loop — and only once that run's fn has returned.
func TestMailboxCloseDuringInlineRun(t *testing.T) {
	for i := 0; i < 1000; i++ {
		m := NewMailbox()
		loopDone := startLoop(m)
		if i%2 == 1 {
			waitParked(m) // half the runs close on a parked Loop
		}
		entered, release := make(chan struct{}), make(chan struct{})
		var returned atomic.Bool
		go m.Exec(func() {
			close(entered)
			<-release
			returned.Store(true)
		})
		<-entered
		m.Close()
		select {
		case <-loopDone:
			t.Fatalf("run %d: Loop returned while an inline fn ran", i)
		default:
		}
		close(release)
		waitDone(t, loopDone, "Loop after the inline run")
		if !returned.Load() {
			t.Fatalf("run %d: Loop returned before the inline fn did", i)
		}
	}
}

// A timer that comes due while an inline run holds the peer queues its
// fire behind the run; a Cancel from inside that run is honoured.
func TestTimerCancelledInsideInlineRunNeverFires(t *testing.T) {
	m := NewMailbox()
	loopDone := startLoop(m)
	c := Clock{Start: time.Now(), Exec: m.Exec, Closed: func() bool { return false }}
	var fired atomic.Int32
	for i := 0; i < 20; i++ {
		ok := m.Exec(func() {
			tm := c.After(time.Duration(i%3)*time.Millisecond, func() { fired.Add(1) })
			time.Sleep(5 * time.Millisecond) // the timer comes due meanwhile
			tm.Cancel()
		})
		if !ok {
			t.Fatal("Exec refused")
		}
	}
	time.Sleep(20 * time.Millisecond) // every timer's fire reaches the mailbox before Close
	m.Close()
	waitDone(t, loopDone, "Loop")
	if n := fired.Load(); n != 0 {
		t.Fatalf("%d cancelled timers fired", n)
	}
}
