// Federation monitoring: several concurrent continuous queries over one
// node set — mean and peak CPU load plus a live-peer count — sharing the
// heartbeat mesh (§7.2.1), while a rolling failure takes out part of the
// federation. This is the "query your testbed with a list of IP addresses"
// scenario from the paper's introduction.
//
// Run:
//
//	go run ./examples/federation-monitor
package main

import (
	"fmt"
	"math"
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
		query live    as count()  from sensors window time 1s slide 1s trees 4 bf 8
		query meanCPU as avg(0)   from sensors window time 2s slide 2s trees 4 bf 8
		query peakCPU as max(0)   from sensors window time 2s slide 2s trees 4 bf 8
	`)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	sim := eventsim.New(5)
	rng := rand.New(rand.NewSource(5))
	topo := netem.GenerateTransitStub(netem.PaperTopology(120), rng)
	net := netem.New(sim, topo)
	fed, err := federation.NewRuntimeCfg(simrt.New(net), prog, rng, mortar.DefaultConfig())
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	// Per-peer synthetic CPU load: a slow sine plus noise, with one peer
	// running hot.
	fed.StartSensors(time.Second, func(peer int) tuple.Raw {
		base := 30 + 20*math.Sin(sim.Now().Seconds()/20+float64(peer))
		if peer == 17 {
			base += 45
		}
		return tuple.Raw{Vals: []float64{base + rng.Float64()*5}}
	}, rng)

	latest := map[string]mortar.Result{}
	fed.Fab.SubscribeAll(func(r mortar.Result) { latest[r.Query] = r })
	sim.Every(4*time.Second, func() {
		l, m, p := latest["live"], latest["meanCPU"], latest["peakCPU"]
		if l.Value == nil || m.Value == nil || p.Value == nil {
			return
		}
		fmt.Printf("t=%5.1fs live=%3.0f meanCPU=%5.1f%% peakCPU=%5.1f%% (completeness %d/%d)\n",
			sim.Now().Seconds(), l.Value, m.Value, p.Value, m.Count, fed.Fab.LiveCount())
	})

	sim.After(25*time.Second, func() {
		fmt.Println("# rack failure: 30 peers disconnect")
		fed.FailRandom(30, rng)
	})
	sim.After(55*time.Second, func() {
		fmt.Println("# rack recovered")
		fed.RecoverAll()
	})
	sim.RunUntil(80 * time.Second)
}
