package netrt

import (
	"testing"
	"time"
)

// The per-pair RTT rules, pinned without traffic: samples go straight into
// observe and nothing is sent. Peers 0 and 1 are local, peer 2 is remote.
// The first sample of a pair seeds its estimate and later ones fold in at
// rttAlpha; Measured answers half the estimate from either end, Latency
// falls back to defaultLatency where nothing was measured, a negative
// sample is ignored, and neither a header that stamps and echoes nor a
// received stamp touches the estimate.
func TestPairRTTRules(t *testing.T) {
	rt, err := New([]string{"127.0.0.1:0", "127.0.0.1:0", "127.0.0.1:0"}, []int{0, 1}, Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Shutdown()
	expect := func(a, b int, want time.Duration) {
		t.Helper()
		for _, p := range [2][2]int{{a, b}, {b, a}} {
			if got, ok := rt.Measured(p[0], p[1]); !ok || got != want {
				t.Fatalf("Measured(%d, %d) = %v, %v; want %v, true", p[0], p[1], got, ok, want)
			}
			if got := rt.Latency(p[0], p[1]); got != want {
				t.Fatalf("Latency(%d, %d) = %v, want %v", p[0], p[1], got, want)
			}
		}
	}
	unmeasured := func(a, b int) {
		t.Helper()
		for _, p := range [2][2]int{{a, b}, {b, a}} {
			if got, ok := rt.Measured(p[0], p[1]); ok {
				t.Fatalf("Measured(%d, %d) = %v before any sample", p[0], p[1], got)
			}
			if got := rt.Latency(p[0], p[1]); got != defaultLatency {
				t.Fatalf("Latency(%d, %d) = %v with no sample, want %v", p[0], p[1], got, defaultLatency)
			}
		}
	}

	unmeasured(0, 1)
	unmeasured(0, 2)
	rt.observe(0, 1, -time.Millisecond)
	unmeasured(0, 1)
	if n := rt.NetStats().RTTSamples; n != 0 {
		t.Fatalf("a negative sample was counted: RTTSamples %d", n)
	}

	rt.observe(0, 1, 10*time.Millisecond)
	expect(0, 1, 5*time.Millisecond)
	rt.observe(0, 1, 20*time.Millisecond)
	est := time.Duration((1-rttAlpha)*float64(10*time.Millisecond) + rttAlpha*float64(20*time.Millisecond))
	expect(0, 1, est/2)
	rt.observe(0, 1, -time.Second)
	expect(0, 1, est/2)
	if n := rt.NetStats().RTTSamples; n != 2 {
		t.Fatalf("RTTSamples %d, want 2", n)
	}

	// A zero sample is a sample: it seeds a pair's estimate at 0.
	rt.observe(0, 2, 0)
	expect(0, 2, 0)
	rt.observe(0, 2, 4*time.Millisecond)
	expect(0, 2, time.Duration(rttAlpha*float64(4*time.Millisecond))/2)
	unmeasured(1, 2)

	// Peer 0 receives a stamp from peer 1, then builds a header to it that
	// stamps and echoes it: the estimate stays where the samples left it.
	rt.handleFrame(msgHeader{stamp: 5}.appendTo(nil, 1, 0))
	expect(0, 1, est/2)
	_, from, to, h, _, ok := parseHeader(rt.header(nil, 0, 1, rt.opt.MTU))
	if !ok || from != 0 || to != 1 || h.stamp == 0 || h.echo != 5 {
		t.Fatalf("header 0→1 reads %d→%d %+v (ok %v), want a stamp and the echo of 5", from, to, h, ok)
	}
	expect(0, 1, est/2)
}
