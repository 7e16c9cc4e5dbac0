// Quickstart: build a 60-peer emulated federation, install a continuous
// count query written in the Mortar Stream Language, watch results stream
// from the root operator, and observe dynamic striping ride through a
// failure of 20% of the peers.
//
// Run:
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"math/rand"
	"os"
	"time"

	"repro/internal/eventsim"
	"repro/internal/federation"
	"repro/internal/mortar"
	"repro/internal/msl"
	"repro/internal/netem"
	"repro/internal/runtime/simrt"
	"repro/internal/tuple"
)

func main() {
	prog, err := msl.Parse(`
		query peers as count() from sensors window time 1s slide 1s trees 4 bf 8
	`)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	sim := eventsim.New(7)
	rng := rand.New(rand.NewSource(7))
	topo := netem.GenerateTransitStub(netem.PaperTopology(60), rng)
	net := netem.New(sim, topo)
	fed, err := federation.NewRuntimeCfg(simrt.New(net), prog, rng, mortar.DefaultConfig())
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fed.PrintResults(os.Stdout)
	fed.StartSensors(time.Second, func(peer int) tuple.Raw {
		return tuple.Raw{Vals: []float64{1}}
	}, rng)

	sim.After(15*time.Second, func() {
		fmt.Println("# disconnecting 12 of 60 peers")
		fed.FailRandom(12, rng)
	})
	sim.After(35*time.Second, func() {
		fmt.Println("# reconnecting everyone")
		fed.RecoverAll()
	})
	sim.RunUntil(50 * time.Second)

	fmt.Printf("# total network load: %.2f Mbps mean (%.2f Mbps heartbeats)\n",
		net.Accounting().MeanMbps(5*time.Second, 50*time.Second),
		net.Accounting().MeanMbps(5*time.Second, 50*time.Second, netem.ClassControl))
}
