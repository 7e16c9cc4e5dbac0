package mortar

import (
	"testing"
	"time"

	"repro/internal/tuple"
)

// Result latency must be stable over long runs: with mutual parent pairs
// across sibling trees, a naive "wait for the slowest observed path" policy
// ratchets ages without bound (each operator waits for the other's hold
// plus slack). The runtime breaks the cycle by having interior operators
// relay stragglers without folding them into netDist; this test pins the
// converged behaviour.
func TestLongRunLatencyStable(t *testing.T) {
	fab, rt := testbed(t, 12, 2, DefaultConfig(), nil)
	type sample struct {
		win int64
		age time.Duration
		cnt int
	}
	var samples []sample
	fab.SubscribeAll(func(r Result) {
		samples = append(samples, sample{r.WindowIndex, r.Age, r.Count})
	})
	meta := QueryMeta{
		Name: "stab", Seq: 1, OpName: "sum",
		Window: tuple.WindowSpec{Kind: tuple.TimeWindow, Range: time.Second, Slide: time.Second},
		Root:   0,
	}
	def, err := fab.Compile(meta, nil, uniformCoords(12, 7), 3, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := fab.Install(0, def); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 12; i++ {
		startSensor(fab, rt, i)
	}
	rt.RunFor(300 * time.Second)

	if len(samples) < 280 {
		t.Fatalf("only %d results in 300s", len(samples))
	}
	// Steady state: full completeness and bounded, non-growing ages.
	mid, last := samples[len(samples)/2], samples[len(samples)-1]
	if mid.cnt != 12 || last.cnt != 12 {
		t.Fatalf("completeness regressed: mid %d, last %d", mid.cnt, last.cnt)
	}
	if last.age > 4*time.Second {
		t.Fatalf("result age %v unbounded at window %d", last.age, last.win)
	}
	if last.age > mid.age+500*time.Millisecond {
		t.Fatalf("latency creep: mid %v -> last %v", mid.age, last.age)
	}
}
