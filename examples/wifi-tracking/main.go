// Wi-Fi device tracking (§7.4): 120 emulated sniffers replay frames from a
// walking device; the paper's three-line Mortar Stream Language query —
// select by MAC, in-network top-3 by RSSI, trilateration of the topK
// stream — recovers the walker's L-shaped path.
//
// Run:
//
//	go run ./examples/wifi-tracking
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
	"repro/internal/wifi"
	"repro/internal/wire"
)

const targetMAC = "aa:bb:cc:dd:ee:ff"

func main() {
	// The paper's query, in MSL: filter the MAC, keep the three loudest
	// observations, trilaterate. `loud` aggregates in-network; `pos` is a
	// root-local operator subscribed to loud's output stream.
	prog, err := msl.Parse(`
		query loud as topk(3, 2) from sensors where key = "` + targetMAC + `" window time 1s slide 1s trees 2 bf 12
		query pos  as trilat()  from loud window time 1s slide 1s
	`)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	const sniffers = 120
	sim := eventsim.New(11)
	rng := rand.New(rand.NewSource(11))
	topo := netem.GenerateStar(sniffers, time.Millisecond, 100e6)
	net := netem.New(sim, topo)
	fed, err := federation.NewRuntimeCfg(simrt.New(net), prog, rng, mortar.DefaultConfig())
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	building := wifi.NewBuilding(sniffers, 100, 60, rng)
	model := wifi.DefaultRSSI()
	walk := wifi.LWalk(building, 1.5)

	// The walker downloads a file: ten frames per second, heard by every
	// sniffer in range.
	sim.Every(100*time.Millisecond, func() {
		x, y := walk.Position(sim.Now().Seconds())
		for _, f := range building.Capture(x, y, model, rng) {
			s := building.Sniffers[f.Sniffer]
			fed.Fab.Inject(f.Sniffer, tuple.Raw{
				Key:    targetMAC,
				SubKey: fmt.Sprintf("s%d", f.Sniffer),
				Vals:   []float64{s.X, s.Y, f.RSSI},
			})
		}
	})

	var errs []float64
	fed.Fab.Subscribe("pos", func(r mortar.Result) {
		c, ok := r.Value.(wire.Coord)
		if !ok {
			return
		}
		tx, ty := walk.Position((sim.Now() - r.Age).Seconds())
		err := math.Hypot(c.X-tx, c.Y-ty)
		errs = append(errs, err)
		if int(sim.Now()/time.Second)%5 == 0 {
			fmt.Printf("t=%5.1fs estimated=(%5.1f, %5.1f)  true=(%5.1f, %5.1f)  err=%4.1fm\n",
				sim.Now().Seconds(), c.X, c.Y, tx, ty, err)
		}
	})

	sim.RunUntil(2 * time.Minute)

	var sum float64
	for _, e := range errs {
		sum += e
	}
	if len(errs) > 0 {
		fmt.Printf("# %d position fixes, mean error %.1f m\n", len(errs), sum/float64(len(errs)))
	}
}
