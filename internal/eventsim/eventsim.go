// Package eventsim provides a deterministic discrete-event simulation
// kernel: a virtual clock, an event queue ordered by (time, sequence), and
// cancellable timers. Every experiment in this repository runs on top of it,
// which makes each paper figure exactly reproducible from a seed.
//
// The kernel is single-threaded by design, mirroring the SEDA-style
// event-driven peers of the Mortar prototype: callbacks run one at a time in
// timestamp order and may schedule further events.
package eventsim

import (
	"container/heap"
	"math/rand"
	"time"
)

// Timer is a handle to a scheduled callback.
type Timer struct {
	fn    func()
	at    time.Duration
	seq   uint64
	index int // heap index; -1 once fired or cancelled
}

// Cancel prevents the timer's callback from running. Cancelling an
// already-fired or already-cancelled timer is a no-op.
func (t *Timer) Cancel() {
	if t == nil {
		return
	}
	if t.index >= 0 {
		t.fn = nil
	}
}

// Stopped reports whether the timer has fired or been cancelled.
func (t *Timer) Stopped() bool { return t == nil || t.index < 0 || t.fn == nil }

// Sim is a discrete-event simulator. It is not safe for concurrent use; all
// interaction must happen from the goroutine driving Run/Step (normally via
// event callbacks).
type Sim struct {
	now    time.Duration
	seq    uint64
	events eventHeap
	rng    *rand.Rand
	fired  uint64
}

// New returns a simulator whose random stream is derived from seed.
func New(seed int64) *Sim {
	return &Sim{rng: rand.New(rand.NewSource(seed))}
}

// Now returns the current virtual time.
func (s *Sim) Now() time.Duration { return s.now }

// Rand returns the simulator's deterministic random source. Components that
// need independent streams should derive their own via rand.New(
// rand.NewSource(s.Rand().Int63())).
func (s *Sim) Rand() *rand.Rand { return s.rng }

// Fired returns the number of events executed so far.
func (s *Sim) Fired() uint64 { return s.fired }

// Pending returns the number of events currently scheduled.
func (s *Sim) Pending() int { return len(s.events) }

// At schedules fn at absolute virtual time t. Times in the past run at the
// current instant, after already-queued events for that instant.
func (s *Sim) At(t time.Duration, fn func()) *Timer {
	if t < s.now {
		t = s.now
	}
	ev := &Timer{fn: fn, at: t, seq: s.seq}
	s.seq++
	heap.Push(&s.events, ev)
	return ev
}

// After schedules fn to run d from now.
func (s *Sim) After(d time.Duration, fn func()) *Timer {
	if d < 0 {
		d = 0
	}
	return s.At(s.now+d, fn)
}

// Every schedules fn to run every period, starting one period from now, and
// returns a handle that stops the repetition when cancelled. The first run
// can be offset by calling After manually. Period must be positive.
func (s *Sim) Every(period time.Duration, fn func()) *Ticker {
	if period <= 0 {
		panic("eventsim: non-positive ticker period")
	}
	tk := &Ticker{sim: s, period: period, fn: fn}
	tk.schedule()
	return tk
}

// Ticker repeatedly invokes a callback at a fixed virtual-time period.
type Ticker struct {
	sim     *Sim
	period  time.Duration
	fn      func()
	timer   *Timer
	stopped bool
}

func (tk *Ticker) schedule() {
	tk.timer = tk.sim.After(tk.period, func() {
		if tk.stopped {
			return
		}
		tk.fn()
		if !tk.stopped {
			tk.schedule()
		}
	})
}

// Stop halts the ticker. The in-flight tick, if any, is cancelled.
func (tk *Ticker) Stop() {
	tk.stopped = true
	tk.timer.Cancel()
}

// Step executes the next pending event, advancing virtual time to its
// deadline. It reports whether an event was executed.
func (s *Sim) Step() bool {
	for len(s.events) > 0 {
		ev := heap.Pop(&s.events).(*Timer)
		ev.index = -1
		if ev.fn == nil { // cancelled
			continue
		}
		s.now = ev.at
		fn := ev.fn
		ev.fn = nil
		s.fired++
		fn()
		return true
	}
	return false
}

// Run executes events until none remain.
func (s *Sim) Run() {
	for s.Step() {
	}
}

// RunUntil executes events with deadlines <= t, then advances the clock to
// exactly t (even if no event fired at t).
func (s *Sim) RunUntil(t time.Duration) {
	for len(s.events) > 0 {
		next := s.events[0]
		if next.fn == nil {
			heap.Pop(&s.events)
			next.index = -1
			continue
		}
		if next.at > t {
			break
		}
		s.Step()
	}
	if s.now < t {
		s.now = t
	}
}

// RunFor executes events for the next d of virtual time.
func (s *Sim) RunFor(d time.Duration) { s.RunUntil(s.now + d) }

type eventHeap []*Timer

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].index = i
	h[j].index = j
}
func (h *eventHeap) Push(x any) {
	ev := x.(*Timer)
	ev.index = len(*h)
	*h = append(*h, ev)
}
func (h *eventHeap) Pop() any {
	old := *h
	n := len(old)
	ev := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return ev
}
