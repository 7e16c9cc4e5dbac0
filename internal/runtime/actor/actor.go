// Package actor provides the building blocks of the wall-clock runtime
// backend (runtime/netrt): an unbounded per-peer mailbox that is the peer's
// serialization domain, and a wall-clock scheduler whose callbacks enter
// that domain. Every local peer gets one Mailbox and one Clock.
//
// A mailbox runs one fn at a time, in FIFO order: on its draining
// goroutine (Loop), or — through Exec, when nothing is queued and nothing
// runs — on the caller's own goroutine, which saves the hand-off to the
// draining goroutine and keeps the caller's data on its core.
package actor

import (
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/runtime"
)

// --- Mailbox: an unbounded FIFO work queue with one fn running at a time ---

// Mailbox is unbounded so that cyclic peer-to-peer sends can never
// deadlock: neither Post nor Exec ever waits for other queued work.
type Mailbox struct {
	mu     sync.Mutex
	cond   *sync.Cond
	q      []func()
	spare  []func() // the batch Loop last ran, kept for the next swap
	busy   bool     // a fn runs, on Loop or inline in Exec
	parked bool     // Loop waits on cond
	closed bool
}

// NewMailbox returns an empty mailbox; the owner must run Loop on its own
// goroutine.
func NewMailbox() *Mailbox {
	m := &Mailbox{}
	m.cond = sync.NewCond(&m.mu)
	return m
}

// Post enqueues fn for Loop; it reports false (dropping fn) after Close.
func (m *Mailbox) Post(fn func()) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.enqueueLocked(fn)
}

// Exec runs fn on the calling goroutine when the mailbox is idle — nothing
// queued and nothing running — and otherwise enqueues it as Post does. It
// reports false (dropping fn) after Close. Since fn runs inline only
// behind an empty queue, order stays FIFO; the caller must hold no lock fn
// may take.
func (m *Mailbox) Exec(fn func()) bool {
	m.mu.Lock()
	if m.closed || m.busy || len(m.q) > 0 {
		ok := m.enqueueLocked(fn)
		m.mu.Unlock()
		return ok
	}
	m.busy = true
	m.mu.Unlock()
	defer m.release()
	fn()
	return true
}

func (m *Mailbox) enqueueLocked(fn func()) bool {
	if m.closed {
		return false
	}
	m.q = append(m.q, fn)
	if m.parked && !m.busy {
		m.cond.Signal()
	}
	return true
}

// release ends an inline run. A parked Loop wakes when work queued behind
// the run or the mailbox closed during it: otherwise a Close with an empty
// queue would leave Loop waiting forever.
func (m *Mailbox) release() {
	m.mu.Lock()
	m.busy = false
	if m.parked && (len(m.q) > 0 || m.closed) {
		m.cond.Signal()
	}
	m.mu.Unlock()
}

// Close stops intake; already queued work still drains, and Loop returns
// only after an inline run in progress has returned.
func (m *Mailbox) Close() {
	m.mu.Lock()
	m.closed = true
	m.cond.Signal()
	m.mu.Unlock()
}

// Loop drains the queue until closed, empty and idle. It takes the whole
// queue per lock and runs it as one batch.
func (m *Mailbox) Loop() {
	m.mu.Lock()
	for {
		if m.busy || len(m.q) == 0 {
			if m.closed && !m.busy {
				m.mu.Unlock()
				return
			}
			m.parked = true
			m.cond.Wait()
			m.parked = false
			continue
		}
		batch := m.q
		m.q, m.spare = m.spare[:0], nil
		m.busy = true
		m.mu.Unlock()
		for i, fn := range batch {
			batch[i] = nil // release the closure (and its captured payload) now
			fn()
		}
		m.mu.Lock()
		m.busy = false
		m.spare = batch[:0]
	}
}

// --- Clock: wall-clock scheduling into a serialization domain ---

// Clock schedules wall-clock callbacks into one peer's serialization
// domain. Exec must run or enqueue a closure in that domain, as
// runtime.Spawner.Exec does (reporting false once the runtime shut down),
// so a timer fires on the timer goroutine when the peer is idle; Closed
// reports runtime shutdown and stops tickers from re-arming forever.
type Clock struct {
	Start  time.Time
	Exec   func(fn func()) bool
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
	t := &timer{}
	t.real = time.AfterFunc(d, func() {
		c.Exec(func() {
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
	if !tk.c.Exec(func() {
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
