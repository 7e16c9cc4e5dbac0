package eventsim

import (
	"testing"
	"testing/quick"
	"time"
)

func TestOrdering(t *testing.T) {
	s := New(1)
	var got []int
	s.After(3*time.Second, func() { got = append(got, 3) })
	s.After(1*time.Second, func() { got = append(got, 1) })
	s.After(2*time.Second, func() { got = append(got, 2) })
	s.Run()
	want := []int{1, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order = %v, want %v", got, want)
		}
	}
	if s.Now() != 3*time.Second {
		t.Fatalf("Now = %v, want 3s", s.Now())
	}
}

func TestFIFOWithinSameInstant(t *testing.T) {
	s := New(1)
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		s.After(time.Second, func() { got = append(got, i) })
	}
	s.Run()
	for i := range got {
		if got[i] != i {
			t.Fatalf("same-instant events reordered: %v", got)
		}
	}
}

func TestCancel(t *testing.T) {
	s := New(1)
	fired := false
	tm := s.After(time.Second, func() { fired = true })
	tm.Cancel()
	s.Run()
	if fired {
		t.Fatal("cancelled timer fired")
	}
	if !tm.Stopped() {
		t.Fatal("cancelled timer not Stopped")
	}
}

func TestCancelTwiceAndAfterFire(t *testing.T) {
	s := New(1)
	tm := s.After(0, func() {})
	s.Run()
	tm.Cancel()
	tm.Cancel() // must not panic
}

func TestNegativeDelayRunsNow(t *testing.T) {
	s := New(1)
	s.After(time.Second, func() {
		ran := false
		s.After(-5*time.Second, func() { ran = true })
		if ran {
			t.Fatal("nested event ran synchronously")
		}
	})
	s.Run()
	if s.Now() != time.Second {
		t.Fatalf("Now = %v, want 1s", s.Now())
	}
}

func TestRunUntilAdvancesClock(t *testing.T) {
	s := New(1)
	s.After(10*time.Second, func() {})
	s.RunUntil(5 * time.Second)
	if s.Now() != 5*time.Second {
		t.Fatalf("Now = %v, want 5s", s.Now())
	}
	if s.Pending() != 1 {
		t.Fatalf("Pending = %d, want 1", s.Pending())
	}
	s.RunFor(5 * time.Second)
	if s.Fired() != 1 {
		t.Fatalf("Fired = %d, want 1", s.Fired())
	}
}

func TestTicker(t *testing.T) {
	s := New(1)
	n := 0
	var tk *Ticker
	tk = s.Every(time.Second, func() {
		n++
		if n == 5 {
			tk.Stop()
		}
	})
	s.RunUntil(time.Minute)
	if n != 5 {
		t.Fatalf("ticks = %d, want 5", n)
	}
	if s.Pending() != 0 {
		t.Fatalf("ticker left %d pending events", s.Pending())
	}
}

func TestTickerStopBeforeFirstTick(t *testing.T) {
	s := New(1)
	n := 0
	tk := s.Every(time.Second, func() { n++ })
	tk.Stop()
	s.Run()
	if n != 0 {
		t.Fatalf("ticks = %d, want 0", n)
	}
}

// Property: events always fire in nondecreasing time order regardless of the
// insertion order of their deadlines.
func TestPropertyMonotonicFiring(t *testing.T) {
	f := func(delays []uint16) bool {
		s := New(42)
		var fired []time.Duration
		for _, d := range delays {
			s.After(time.Duration(d)*time.Millisecond, func() {
				fired = append(fired, s.Now())
			})
		}
		s.Run()
		for i := 1; i < len(fired); i++ {
			if fired[i] < fired[i-1] {
				return false
			}
		}
		return len(fired) == len(delays)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: cancelling an arbitrary subset of timers fires exactly the
// complement.
func TestPropertyCancelSubset(t *testing.T) {
	f := func(delays []uint8, mask []bool) bool {
		s := New(7)
		fired := 0
		wantFired := 0
		for i, d := range delays {
			tm := s.After(time.Duration(d)*time.Millisecond, func() { fired++ })
			if i < len(mask) && mask[i] {
				tm.Cancel()
			} else {
				wantFired++
			}
		}
		s.Run()
		return fired == wantFired
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
