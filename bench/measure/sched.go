package measure

import "time"

// Ticks is an open-loop schedule: tick k is due at Start + k*Period no
// matter how long earlier ticks took, so a stalled generator is followed
// by a burst of catch-up ticks, each still timed from when it was due. A
// closed loop would instead offer a slow system less load and hide the
// stall from every latency figure.
type Ticks struct {
	Start  time.Time
	Period time.Duration
	// Now and Sleep default to the wall clock; tests substitute a fake.
	Now   func() time.Time
	Sleep func(time.Duration)

	k int64
}

// Next blocks until the next tick is due and returns its due time with
// how late the generator reached it (zero when it had to wait).
func (t *Ticks) Next() (due time.Time, late time.Duration) {
	now, sleep := t.Now, t.Sleep
	if now == nil {
		now = time.Now
	}
	if sleep == nil {
		sleep = time.Sleep
	}
	due = t.Start.Add(time.Duration(t.k) * t.Period)
	t.k++
	if wait := due.Sub(now()); wait > 0 {
		sleep(wait)
	}
	if late = now().Sub(due); late < 0 {
		late = 0
	}
	return due, late
}
