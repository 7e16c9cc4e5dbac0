// Anomaly detection with a user-defined aggregate (§2.2 motivates "an
// entropy function to detect anomalous traffic features"): every peer
// reports the destination keys of its traffic; an in-network entropy query
// aggregates the key histogram across the federation and the root computes
// Shannon entropy. Normal traffic is Zipf-skewed (low entropy); at t=40s a
// scanning attack flattens the key distribution and the entropy jumps.
//
// Run:
//
//	go run ./examples/anomaly
package main

import (
	"fmt"
	"math/rand"
	"os"
	"strconv"
	"time"

	"repro/internal/eventsim"
	"repro/internal/federation"
	"repro/internal/mortar"
	"repro/internal/msl"
	"repro/internal/netem"
	"repro/internal/runtime/simrt"
	"repro/internal/tuple"
	"repro/internal/workload"
)

func main() {
	prog, err := msl.Parse(`
		query keys as entropy() from sensors window time 5s slide 5s trees 4 bf 8
	`)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	sim := eventsim.New(3)
	rng := rand.New(rand.NewSource(3))
	topo := netem.GenerateTransitStub(netem.PaperTopology(80), rng)
	net := netem.New(sim, topo)
	fed, err := federation.NewRuntimeCfg(simrt.New(net), prog, rng, mortar.DefaultConfig())
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	zipf := workload.NewZipfKeys(rng, 1.8, 256)
	attack := false
	fed.StartSensors(200*time.Millisecond, func(peer int) tuple.Raw {
		if attack {
			// Scanner: uniform destinations.
			return tuple.Raw{Key: "k" + strconv.Itoa(rng.Intn(256))}
		}
		return tuple.Raw{Key: zipf.Next()}
	}, rng)

	const threshold = 6.5 // bits
	fed.Fab.Subscribe("keys", func(r mortar.Result) {
		ent, ok := r.Value.(float64)
		if !ok {
			return
		}
		flag := ""
		if ent > threshold {
			flag = "  << ANOMALY"
		}
		fmt.Printf("t=%5.1fs window=%-3d entropy=%.2f bits (from %d peers)%s\n",
			sim.Now().Seconds(), r.WindowIndex, ent, r.Count, flag)
	})

	sim.After(40*time.Second, func() {
		fmt.Println("# scanning attack begins")
		attack = true
	})
	sim.After(70*time.Second, func() {
		fmt.Println("# attack ends")
		attack = false
	})
	sim.RunUntil(100 * time.Second)
}
