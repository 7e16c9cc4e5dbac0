package experiments

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"repro/internal/eventsim"
	"repro/internal/metrics"
	"repro/internal/mortar"
	"repro/internal/netem"
	"repro/internal/ops"
	"repro/internal/runtime/simrt"
	"repro/internal/tuple"
	"repro/internal/wifi"
	"repro/internal/wire"
)

// Figure18 reproduces the Wi-Fi location service (§7.4): 188 emulated
// sniffers on a star topology (1 ms links) replay frames from a walking
// device; a select operator filters the target MAC at each sniffer, a
// top-3-RSSI query aggregates in-network, and trilateration of the topK
// stream recovers the walk. The paper reports the recovered L-shaped path
// and a 14% network-load reduction versus a query whose topK cannot
// aggregate (bf = 188).
func Figure18(opt Options) *Table {
	const target = "aa:bb:cc:dd:ee:ff"
	sniffers, dur := 188, 180*time.Second
	if opt.Quick {
		sniffers, dur = 80, 60*time.Second
	}

	run := func(bf int) (errs []float64, loadBytes, rootLink int64, trail []string) {
		sim := eventsim.New(opt.Seed)
		rng := rand.New(rand.NewSource(opt.Seed))
		topo := netem.GenerateStar(sniffers, time.Millisecond, 100e6)
		net := netem.New(sim, topo)
		fab, err := mortar.NewFabric(simrt.New(net), mortar.DefaultConfig())
		if err != nil {
			panic(err)
		}
		b := wifi.NewBuilding(sniffers, 100, 60, rng)
		model := wifi.DefaultRSSI()
		walk := wifi.LWalk(b, 1.5)

		meta := mortar.QueryMeta{
			Name:      "loud",
			Seq:       1,
			OpName:    "topk",
			OpArgs:    []string{"3", "2"}, // top 3 by field 2 (RSSI)
			Window:    tuple.WindowSpec{Kind: tuple.TimeWindow, Range: time.Second, Slide: time.Second},
			FilterKey: target,
			Root:      0,
		}
		// On a star the benefit of planning is path diversity, not
		// latency: plan with uniform coordinates.
		def, err := fab.Compile(meta, nil, randomCoords(sniffers, rng), bf, 2)
		if err != nil {
			panic(err)
		}
		if err := fab.Install(0, def); err != nil {
			panic(err)
		}

		fab.SubscribeAll(func(r mortar.Result) {
			if r.Value == nil {
				return
			}
			entries := r.Value.([]wire.ScoredEntry)
			pos, ok := ops.TrilatFromEntries(entries)
			if !ok {
				return
			}
			// Compare against where the walker was when the window's
			// frames were captured (one window back plus pipeline delay).
			tw := sim.Now() - r.Age
			tx, ty := walk.Position(tw.Seconds())
			errs = append(errs, math.Hypot(pos.X-tx, pos.Y-ty))
			if int(sim.Now()/time.Second)%20 == 0 {
				trail = append(trail, fmt.Sprintf("t=%3.0fs est=(%5.1f,%5.1f) true=(%5.1f,%5.1f)",
					sim.Now().Seconds(), pos.X, pos.Y, tx, ty))
			}
		})

		// The tracked device downloads a file: 10 frames per second. Other
		// devices chatter in the background; the select stage must drop
		// them.
		sim.Every(100*time.Millisecond, func() {
			x, y := walk.Position(sim.Now().Seconds())
			for _, f := range b.Capture(x, y, model, rng) {
				s := b.Sniffers[f.Sniffer]
				fab.Inject(f.Sniffer, tuple.Raw{
					Key:    target,
					SubKey: fmt.Sprintf("s%d", f.Sniffer),
					Vals:   []float64{s.X, s.Y, f.RSSI},
				})
			}
		})
		sim.Every(200*time.Millisecond, func() {
			// Background MAC heard near a random corner.
			for _, f := range b.Capture(5, 5, model, rng) {
				s := b.Sniffers[f.Sniffer]
				fab.Inject(f.Sniffer, tuple.Raw{
					Key:    "11:22:33:44:55:66",
					SubKey: fmt.Sprintf("s%d", f.Sniffer),
					Vals:   []float64{s.X, s.Y, f.RSSI},
				})
			}
		})
		sim.RunUntil(dur)
		// The root peer is host 0; its access link is link 0 of the star.
		return errs, net.Accounting().TotalBytes(netem.ClassData),
			net.Accounting().LinkBytes(0), trail
	}

	errs, load16, root16, trail := run(16)
	_, loadFlat, rootFlat, _ := run(sniffers) // bf = #sniffers: topK cannot aggregate
	t := &Table{
		Title:   "Figure 18: Wi-Fi device tracking via select -> top-3 RSSI -> trilateration",
		Columns: []string{"sample"},
	}
	for _, s := range trail {
		t.AddRow(s)
	}
	t.Note("mean location error %.1f m over %d fixes (naive trilateration; the paper's scheme could not distinguish floors either)",
		metrics.Mean(errs), len(errs))
	rootSaving := 100 * (1 - float64(root16)/float64(rootFlat))
	totalRatio := float64(load16) / float64(loadFlat)
	t.Note("root access-link load with in-network topK vs bf=%d: %.1f%% reduction (paper: 14%% total); total load ratio %.2fx — on our pure star the saving concentrates on the root's link",
		sniffers, rootSaving, totalRatio)
	return t
}
