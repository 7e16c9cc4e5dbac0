// Package actor provides the building blocks of the wall-clock runtime
// backend (runtime/netrt): an unbounded per-peer mailbox whose single
// draining goroutine is the peer's serialization domain, and a wall-clock
// scheduler whose callbacks post into that domain. Every local peer gets one
// Mailbox and one Clock.
package actor

import (
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/runtime"
)

// --- Mailbox: an unbounded FIFO work queue, one goroutine draining it ---

// Mailbox is unbounded so that cyclic peer-to-peer sends can never
// deadlock: posting never blocks, only the draining goroutine runs work.
type Mailbox struct {
	mu     sync.Mutex
	cond   *sync.Cond
	q      []func()
	closed bool
}

// NewMailbox returns an empty mailbox; the owner must run Loop on its own
// goroutine.
func NewMailbox() *Mailbox {
	m := &Mailbox{}
	m.cond = sync.NewCond(&m.mu)
	return m
}

// Post enqueues fn; it reports false (dropping fn) after Close.
func (m *Mailbox) Post(fn func()) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return false
	}
	m.q = append(m.q, fn)
	m.cond.Signal()
	return true
}

// Close stops intake; already queued work still drains.
func (m *Mailbox) Close() {
	m.mu.Lock()
	m.closed = true
	m.cond.Broadcast()
	m.mu.Unlock()
}

// Loop drains the queue until closed and empty.
func (m *Mailbox) Loop() {
	for {
		m.mu.Lock()
		for len(m.q) == 0 && !m.closed {
			m.cond.Wait()
		}
		if len(m.q) == 0 {
			m.mu.Unlock()
			return
		}
		fn := m.q[0]
		m.q[0] = nil // release the closure (and its captured payload) now
		m.q = m.q[1:]
		m.mu.Unlock()
		fn()
	}
}

// --- Clock: wall-clock scheduling into a serialization domain ---

// Clock schedules wall-clock callbacks into one peer's serialization
// domain. Post must enqueue a closure into the peer's mailbox (reporting
// false once the runtime shut down); Closed reports runtime shutdown and
// stops tickers from re-arming forever.
type Clock struct {
	Start  time.Time
	Post   func(fn func()) bool
	Closed func() bool
}

var _ runtime.Clock = Clock{}

// Now returns wall time elapsed since the runtime started.
func (c Clock) Now() time.Duration { return time.Since(c.Start) }

// After schedules fn to run d from now inside the peer's domain.
func (c Clock) After(d time.Duration, fn func()) runtime.Timer {
	if d < 0 {
		d = 0
	}
	t := &timer{at: c.Now() + d}
	t.real = time.AfterFunc(d, func() {
		c.Post(func() {
			// Decided inside the peer's domain so Cancel from the same
			// domain is always honoured.
			if t.state.CompareAndSwap(0, 1) {
				fn()
			}
		})
	})
	return t
}

// Every schedules fn to run every period inside the peer's domain.
func (c Clock) Every(period time.Duration, fn func()) runtime.Ticker {
	if period <= 0 {
		panic("actor: non-positive ticker period")
	}
	tk := &ticker{c: c, period: period, fn: fn}
	tk.arm()
	return tk
}

// timer's state: 0 pending, 1 fired, 2 cancelled.
type timer struct {
	at    time.Duration
	state atomic.Int32
	real  *time.Timer
}

func (t *timer) Cancel() {
	if t == nil {
		return
	}
	t.state.CompareAndSwap(0, 2)
	t.real.Stop()
}

func (t *timer) Stopped() bool { return t == nil || t.state.Load() != 0 }

func (t *timer) When() time.Duration { return t.at }

// ticker re-arms on the wall-clock side of each fire, so the tick rate
// holds steady even when the peer's mailbox is backlogged — heartbeat
// intervals must not stretch with queueing delay or busy peers would be
// presumed dead. Ticks that land while the previous one is still queued
// coalesce instead of piling up.
type ticker struct {
	c       Clock
	period  time.Duration
	fn      func()
	stopped atomic.Bool
	pending atomic.Bool
	mu      sync.Mutex
	real    *time.Timer
}

func (tk *ticker) arm() {
	tk.mu.Lock()
	// A ticker on a shut-down runtime must not keep re-arming: its ticks
	// can never run, and the orphan timer would fire forever.
	if !tk.stopped.Load() && !tk.c.Closed() {
		tk.real = time.AfterFunc(tk.period, tk.fire)
	}
	tk.mu.Unlock()
}

func (tk *ticker) fire() {
	tk.arm() // fixed rate: independent of mailbox drain time
	if tk.stopped.Load() {
		return
	}
	if !tk.pending.CompareAndSwap(false, true) {
		return // previous tick still queued; coalesce
	}
	if !tk.c.Post(func() {
		tk.pending.Store(false)
		if !tk.stopped.Load() {
			tk.fn()
		}
	}) {
		tk.pending.Store(false) // runtime closed; the closure never runs
	}
}

func (tk *ticker) Stop() {
	tk.stopped.Store(true)
	tk.mu.Lock()
	if tk.real != nil {
		tk.real.Stop()
	}
	tk.mu.Unlock()
}
