package netrt

import (
	"math"
	"math/rand"
	"testing"
	"time"

	"repro/internal/wire"
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

// parseHeader reads a message frame's transport header as handleFrame
// does: kind, indices, then the RTT fields; n is the header's length.
func parseHeader(b []byte) (kind byte, from, to uint64, h msgHeader, n int, ok bool) {
	rd := wire.NewReader(b)
	kind, err := rd.Byte()
	if err == nil {
		from, err = rd.Uvarint()
	}
	if err == nil {
		to, err = rd.Uvarint()
	}
	if err != nil {
		return 0, 0, 0, msgHeader{}, 0, false
	}
	if h, ok = readMsgHeader(kind, rd); !ok {
		return 0, 0, 0, msgHeader{}, 0, false
	}
	return kind, from, to, h, len(b) - rd.Remaining(), true
}

// FuzzMsgHeader drives the message-header parser with kinds 8–11,
// truncated headers and garbage. It never panics; it accepts only kinds
// 8–11; every header it accepts is refused when cut anywhere short, so a
// short header is dropped, never read into the body; and a header written
// back from what it read reads back the same.
func FuzzMsgHeader(f *testing.F) {
	for _, h := range []msgHeader{{}, {stamp: 20_000_000}, {echo: 19_999_000, hold: 350}, {stamp: 1 << 40, echo: 7, hold: 1 << 33}} {
		f.Add(h.appendTo(nil, 1, 0))
		f.Add(h.appendTo(nil, 300, 70_000))
	}
	f.Add([]byte{frameHdr | hdrStamp, 1, 0})
	f.Add([]byte{frameHdr | hdrEcho, 1, 0, 5})
	f.Add([]byte{frameHdr | hdrStamp | hdrEcho, 48, 48, 48, 0, 48}) // an echo of 0 is none; its hold is dropped
	f.Add([]byte{12, 1, 0, 1, 2, 3})
	f.Add([]byte{1, 0xff, 0xff, 0xff})
	f.Fuzz(func(t *testing.T, b []byte) {
		kind, from, to, h, n, ok := parseHeader(b)
		if !ok {
			return
		}
		if kind < frameHdr || kind > frameHdr|hdrStamp|hdrEcho {
			t.Fatalf("kind %d accepted", kind)
		}
		for cut := 0; cut < n; cut++ {
			if _, _, _, _, _, ok := parseHeader(b[:cut]); ok {
				t.Fatalf("header of %d B accepted cut to %d B: % x", n, cut, b[:cut])
			}
		}
		want := h
		if want.echo == 0 {
			want.hold = 0 // an echo of 0 is none, and so is its hold
		}
		re := h.appendTo(nil, int(from), int(to))
		_, rf, rt, rh, rn, ok := parseHeader(re)
		if !ok || rf != from || rt != to || rh != want || rn != len(re) {
			t.Fatalf("header %+v (%d→%d) wrote % x, read back %+v (%d→%d, ok %v)", h, from, to, re, rh, rf, rt, ok)
		}
	})
}
