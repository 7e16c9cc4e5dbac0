package chaos

import (
	"sync"
	"sync/atomic"
	"time"
)

// Injector is the surface a runtime exposes for fault injection: every
// action kind a schedule holds lands on one of its methods, so none is
// ever skipped. netrt.Runtime and livert.Runtime satisfy it directly.
type Injector interface {
	NumPeers() int
	// SetDown is the fail-stop gate.
	SetDown(peer int, down bool)
	// SetLoss sets the datagram loss of every local peer.
	SetLoss(p float64)
	// Local restricts which peers this process may gate. In a
	// multi-process federation every process expands the identical action
	// list but applies only the peers it hosts — fail-stop gates live at
	// the owning runtime.
	Local(peer int) bool
}

// Runner replays an expanded action list against an injector on the wall
// clock, starting from the moment Start was called.
type Runner struct {
	inj     Injector
	acts    []Action
	started time.Time

	live    atomic.Int64
	applied atomic.Int64

	stop     chan struct{}
	stopOnce sync.Once
	done     chan struct{}
}

// Start expands the schedule against the injector and begins replaying it
// immediately.
func Start(inj Injector, s *Schedule) (*Runner, error) {
	acts, err := s.Expand(inj.NumPeers(), nil)
	if err != nil {
		return nil, err
	}
	return StartActions(inj, acts), nil
}

// StartActions begins replaying an already-expanded action list.
func StartActions(inj Injector, acts []Action) *Runner {
	r := &Runner{
		inj:     inj,
		acts:    acts,
		started: time.Now(),
		stop:    make(chan struct{}),
		done:    make(chan struct{}),
	}
	r.live.Store(int64(inj.NumPeers()))
	go r.loop()
	return r
}

func (r *Runner) loop() {
	defer close(r.done)
	timer := time.NewTimer(0)
	defer timer.Stop()
	if !timer.Stop() {
		<-timer.C
	}
	for _, a := range r.acts {
		wait := time.Until(r.started.Add(a.At))
		if wait > 0 {
			timer.Reset(wait)
			select {
			case <-timer.C:
			case <-r.stop:
				return
			}
		} else {
			select {
			case <-r.stop:
				return
			default:
			}
		}
		switch a.Kind {
		case ActKill, ActRecover:
			if r.inj.Local(a.Peer) {
				r.inj.SetDown(a.Peer, a.Kind == ActKill)
			}
		case ActLoss:
			r.inj.SetLoss(a.Loss)
		}
		// Live is schedule truth, not a local Down count: a process
		// cannot see peers gated down inside another process, but every
		// process replays the same expansion, so the stamped counts
		// agree everywhere.
		r.live.Store(int64(a.Live))
		r.applied.Add(1)
	}
}

// Live returns the schedule-truth live-node count as of the last applied
// action (the full federation before the first action fires).
func (r *Runner) Live() int { return int(r.live.Load()) }

// Applied returns how many actions have fired so far.
func (r *Runner) Applied() int { return int(r.applied.Load()) }

// Actions returns the expanded list the runner is replaying.
func (r *Runner) Actions() []Action { return r.acts }

// StartedAt returns the instant action time zero is measured from.
func (r *Runner) StartedAt() time.Time { return r.started }

// FaultSpan converts the expansion's fault span into absolute wall times.
func (r *Runner) FaultSpan() (start, end time.Time, ok bool) {
	s, e, ok := FaultSpan(r.acts)
	if !ok {
		return time.Time{}, time.Time{}, false
	}
	return r.started.Add(s), r.started.Add(e), true
}

// Done is closed once every action has fired (or the runner was stopped).
func (r *Runner) Done() <-chan struct{} { return r.done }

// Wait blocks until the schedule has fully replayed.
func (r *Runner) Wait() { <-r.done }

// Stop abandons any remaining actions. It does not undo applied faults.
func (r *Runner) Stop() {
	r.stopOnce.Do(func() { close(r.stop) })
	<-r.done
}
