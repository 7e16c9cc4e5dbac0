package netrt

import (
	"math"
	"math/rand"
	"testing"
	"time"
)

// An RTT taken from µs stamps stays within 10 µs of the ns figure: a peer
// stamps at t0, the remote holds the stamp for h before echoing it, and
// the echo arrives at t2, so the true RTT is t2 − t0 − h. Truncating the
// stamp and the hold to µs moves the sample by under 2 µs, over loopback
// flights (tens of µs) and WAN ones alike, at any point of a long run.
func TestMicrosecondStampsKeepRTT(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 100000; i++ {
		t0 := time.Duration(rng.Int63n(int64(48 * time.Hour)))
		flight := time.Duration(rng.Int63n(int64(20 * time.Microsecond)))
		if i%2 == 1 {
			flight = time.Duration(rng.Int63n(int64(200 * time.Millisecond)))
		}
		hold := time.Duration(rng.Int63n(int64(2 * time.Second)))
		t2 := t0 + flight + hold + flight
		got := rttSample(t2, stampAt(t0), uint64(hold/time.Microsecond))
		if want := t2 - t0 - hold; got < want-10*time.Microsecond || got > want+10*time.Microsecond {
			t.Fatalf("t0 %v, flight %v, hold %v: µs sample %v, ns figure %v", t0, flight, hold, got, want)
		}
	}
	// A long-lived daemon keeps sampling: a minute-long timeline starting
	// 30 days in (past 2^40 µs), 100 years in, and at the clock's end.
	for _, t0 := range []time.Duration{30 * 24 * time.Hour, 100 * 365 * 24 * time.Hour, math.MaxInt64 - time.Minute} {
		hold := 3*time.Second + 456789*time.Nanosecond
		t2 := t0 + 40*time.Millisecond + hold
		got := rttSample(t2, stampAt(t0), uint64(hold/time.Microsecond))
		if want := t2 - t0 - hold; got < want-10*time.Microsecond || got > want+10*time.Microsecond {
			t.Fatalf("t0 %v: µs sample %v, ns figure %v", t0, got, want)
		}
	}
	// Stamps are never 0, the "no echo" sentinel, and an echo plus hold
	// past now gives no sample, however large either is.
	if stampAt(0) != 1 || stampAt(999) != 1 {
		t.Fatal("a stamp in the first µs is 0")
	}
	now := time.Hour
	us := uint64(now / time.Microsecond)
	for _, c := range [][2]uint64{{us + 1, 0}, {0, us + 1}, {us, 1}, {1, us}, {math.MaxUint64, 0}, {0, math.MaxUint64}, {math.MaxUint64, math.MaxUint64}, {1, math.MaxUint64 - 1}} {
		if got := rttSample(now, c[0], c[1]); got >= 0 {
			t.Fatalf("echo %d, hold %d at %v: sample %v, want none", c[0], c[1], now, got)
		}
	}
	if got := rttSample(now, us, 0); got != 0 {
		t.Fatalf("an echo of now with no hold: sample %v, want 0", got)
	}
}
