package federation

import (
	"math/rand"
	"strings"
	"testing"
	"time"

	"repro/internal/eventsim"
	"repro/internal/mortar"
	"repro/internal/msl"
	"repro/internal/netem"
	"repro/internal/runtime/simrt"
	"repro/internal/tuple"
)

func build(t *testing.T, src string, hosts int) (*Federation, *eventsim.Sim, *rand.Rand) {
	t.Helper()
	prog, err := msl.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	sim := eventsim.New(9)
	rng := rand.New(rand.NewSource(9))
	p := netem.PaperTopology(hosts)
	p.Stubs = 6
	p.Transits = 2
	topo := netem.GenerateTransitStub(p, rng)
	net := netem.New(sim, topo)
	fed, err := NewRuntimeCfg(simrt.New(net), prog, rng, mortar.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	return fed, sim, rng
}

func TestEndToEndCountQuery(t *testing.T) {
	fed, sim, rng := build(t, `query n as count() from sensors window time 1s slide 1s`, 30)
	var last mortar.Result
	fed.Fab.Subscribe("n", func(r mortar.Result) { last = r })
	fed.StartSensors(time.Second, func(int) tuple.Raw { return tuple.Raw{Vals: []float64{1}} }, rng)
	sim.RunUntil(20 * time.Second)
	if last.Value == nil || last.Value.(float64) != 30 {
		t.Fatalf("count = %v, want 30", last.Value)
	}
	if fed.Def("n") == nil {
		t.Fatal("definition not retained")
	}
}

func TestChainedQueries(t *testing.T) {
	fed, sim, rng := build(t, `
		query loud as topk(2, 0) from sensors window time 1s slide 1s
		query m as max(0) from loud window time 1s slide 1s
	`, 20)
	var got float64
	fed.Fab.Subscribe("m", func(r mortar.Result) {
		if r.Value != nil {
			got = r.Value.(float64)
		}
	})
	fed.StartSensors(time.Second, func(peer int) tuple.Raw {
		return tuple.Raw{Key: "p", Vals: []float64{float64(peer)}}
	}, rng)
	sim.RunUntil(20 * time.Second)
	// Chained max over topk payload+score raws; the loudest peer is 19.
	if got < 19 {
		t.Fatalf("chained max = %v, want 19", got)
	}
}

func TestFailureControls(t *testing.T) {
	fed, sim, rng := build(t, `query n as count() from sensors window time 1s slide 1s`, 25)
	fed.StartSensors(time.Second, func(int) tuple.Raw { return tuple.Raw{Vals: []float64{1}} }, rng)
	sim.RunUntil(10 * time.Second)
	fed.FailRandom(5, rng)
	if live := fed.Fab.LiveCount(); live != 20 {
		t.Fatalf("live = %d after failing 5 of 25", live)
	}
	fed.RecoverAll()
	if live := fed.Fab.LiveCount(); live != 25 {
		t.Fatalf("live = %d after recovery", live)
	}
}

// FailRandom must return when peers it did not take down leave fewer than
// n to fail, and fail every one that is left.
func TestFailRandomTerminatesWithPeersAlreadyDown(t *testing.T) {
	fed, _, rng := build(t, `query n as count() from sensors window time 1s slide 1s`, 10)
	fed.Fab.SetDown(3, true)
	done := make(chan struct{})
	go func() {
		fed.FailRandom(9, rng)
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("FailRandom(9) did not return with peer 3 already down")
	}
	for p := 1; p < 10; p++ {
		if !fed.Fab.Down(p) {
			t.Fatalf("peer %d still up", p)
		}
	}
}

func TestPrintResults(t *testing.T) {
	fed, sim, rng := build(t, `query n as count() from sensors window time 1s slide 1s`, 10)
	var sb strings.Builder
	fed.PrintResults(&sb)
	fed.StartSensors(time.Second, func(int) tuple.Raw { return tuple.Raw{Vals: []float64{1}} }, rng)
	sim.RunUntil(8 * time.Second)
	if !strings.Contains(sb.String(), "query=n") {
		t.Fatalf("no results printed: %q", sb.String())
	}
}

func TestUnknownOperatorRejected(t *testing.T) {
	if _, err := msl.Parse(`query q as nosuch() from sensors window time 1s slide 1s`); err == nil {
		t.Fatal("parser accepted unknown operator")
	}
}
