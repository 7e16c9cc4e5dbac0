package livert_test

import (
	"testing"
	"time"

	"repro/internal/mortar"
	"repro/internal/runtime/livert"
	"repro/internal/tuple"
	"repro/internal/wire"
)

// Regression for the Rand()/Send() race: compile a second query while the
// first query's install traffic is drawing from the transport rng.
func TestRandDoesNotRaceWithTransport(t *testing.T) {
	const peers = 20
	rt := livert.New(peers, livert.Options{Seed: 11, MinDelay: 50 * time.Microsecond, MaxDelay: 500 * time.Microsecond, Loss: 0.1})
	fab, err := mortar.NewFabric(rt, liveConfig())
	if err != nil {
		t.Fatal(err)
	}
	coords := uniformCoords(peers, 4)
	for q := 0; q < 5; q++ {
		meta := mortar.QueryMeta{
			Name:   "q" + string(rune('a'+q)),
			Seq:    uint64(q + 1),
			OpName: "count",
			Window: tuple.WindowSpec{Kind: tuple.TimeWindow, Range: 200 * time.Millisecond, Slide: 200 * time.Millisecond},
			Root:   0,
		}
		def, err := fab.Compile(meta, nil, coords, 4, 2) // draws from rt.Rand() while install traffic flows
		if err != nil {
			t.Fatal(err)
		}
		if err := fab.Install(0, def); err != nil {
			t.Fatal(err)
		}
		time.Sleep(20 * time.Millisecond)
	}
	time.Sleep(200 * time.Millisecond)
	rt.Shutdown()
	for q := 0; q < 5; q++ {
		if got, _ := fab.Counts("q"+string(rune('a'+q)), wire.AllEpochs); got == 0 {
			t.Fatalf("query %d installed nowhere", q)
		}
	}
}
