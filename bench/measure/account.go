package measure

// Account tallies the per-window results one tenant delivered over a
// measured span, against what the span should have produced. A delivered
// window is an operation: the reader received a result and checked it. It
// fails when the result breaks an invariant of the system (valid is false).
// A window that never arrives is not a failed operation but a lower
// delivered share: the root reports in order and skips what expires out of
// order, which a saturated root does by design.
type Account struct {
	// Expect is how many windows the span should have produced; it stands
	// in for the observed index range when nothing at all was delivered.
	Expect int

	seen     map[int64]bool
	min, max int64
	invalid  int
	ratioSum float64
	ratios   int
}

// Deliver records one received window. count is the result's completeness
// field and live the number of peers that could have contributed; valid is
// the caller's verdict on the result's content. A window delivered twice
// (two epochs, a replayed line) counts once.
func (a *Account) Deliver(window int64, count, live int, valid bool) {
	if a.seen == nil {
		a.seen = map[int64]bool{}
		a.min, a.max = window, window
	}
	if a.seen[window] {
		return
	}
	a.seen[window] = true
	if !valid {
		a.invalid++
	}
	if window < a.min {
		a.min = window
	}
	if window > a.max {
		a.max = window
	}
	if live > 0 {
		r := float64(count) / float64(live)
		if r > 1 {
			// Schedule truth drops the instant a peer is killed; its last
			// windows are still in flight and legitimately count it.
			r = 1
		}
		a.ratioSum += r
		a.ratios++
	}
}

// Due is how many windows were due: the observed index range, so that a
// gap inside it is a window the root never reported. A tenant whose reports
// merely run late delivers fewer windows in the span, not missing ones; its
// lateness shows in the age and latency figures. With nothing delivered,
// Expect windows were due.
func (a *Account) Due() int {
	if len(a.seen) == 0 {
		return a.Expect
	}
	return int(a.max-a.min) + 1
}

// Delivered is how many distinct windows arrived: the operations attempted.
func (a *Account) Delivered() int { return len(a.seen) }

// Invalid is how many delivered windows broke an invariant: the operations
// that failed.
func (a *Account) Invalid() int { return a.invalid }

// Completeness returns the sum and count of per-window count/live ratios,
// so several tenants can be folded into one mean.
func (a *Account) Completeness() (sum float64, n int) { return a.ratioSum, a.ratios }
