package experiments

import (
	"math/rand"
	"strconv"
	"time"

	"repro/internal/central"
	"repro/internal/eventsim"
	"repro/internal/metrics"
	"repro/internal/mortar"
	"repro/internal/netem"
	"repro/internal/tuple"
	"repro/internal/vclock"
	"repro/internal/workload"
)

// clockMode selects the §5 comparison arm.
type clockMode int

const (
	modeSyncless clockMode = iota
	modeTimestamp
	modeStreamBase
)

const clockWindow = 5 * time.Second

// clockRun executes one arm of the Figures 9-10 experiment: hosts peers
// whose clocks follow the PlanetLab offset distribution scaled by `scale`,
// a 5-second window, and sensors emitting once per second. It returns mean
// true completeness (%), mean result latency (seconds), and mean tuple
// dispersion (windows) — the §5 metric syncless bounds "to a tight
// boundary around the correct window".
func clockRun(seed int64, hosts int, scale float64, mode clockMode, dur time.Duration) (float64, float64, float64) {
	rng := rand.New(rand.NewSource(seed))
	clocks := vclock.PlanetLab(scale).SamplePopulation(rng, hosts)
	clocks[0] = vclock.Perfect() // the measurement/root workstation is NTP-synced

	if mode == modeStreamBase {
		return streamBaseRun(seed, hosts, clocks, dur)
	}

	cfg := mortar.DefaultConfig()
	cfg.Syncless = mode == modeSyncless
	tb := newTestbed(seed, hosts, clocks, cfg)
	issue := tb.Sim.Now() // ground truth: the windows count from the issue instant
	meta := mortar.QueryMeta{
		Name:   "truewin",
		Seq:    1,
		OpName: "hist",
		Window: tuple.WindowSpec{Kind: tuple.TimeWindow, Range: clockWindow, Slide: clockWindow},
		Root:   0,
	}
	def, err := tb.Fab.Compile(meta, nil, tb.Coords, 16, 4)
	if err != nil {
		panic(err)
	}
	if err := tb.Fab.Install(0, def); err != nil {
		panic(err)
	}

	var tcs, lats, disps []float64
	lastWin := int64(dur/clockWindow) - 2
	produced := float64(hosts) * clockWindow.Seconds() // tuples truly in each window
	tb.Fab.SubscribeAll(func(r mortar.Result) {
		if r.WindowIndex < 3 || r.WindowIndex > lastWin || r.Value == nil {
			return
		}
		hist := r.Value.(map[string]float64)
		tcs = append(tcs, metrics.TrueCompleteness(hist, strconv.FormatInt(r.WindowIndex, 10), produced))
		due := issue + time.Duration(r.WindowIndex+1)*clockWindow
		lats = append(lats, (r.At - due).Seconds())
		disps = append(disps, metrics.Dispersion(toInt64Hist(hist), r.WindowIndex))
	})

	gen := &workload.Periodic{
		Sim: tb.Sim, Period: time.Second, Value: 1,
		TrueWindowKey: clockWindow, Epoch: issue,
	}
	gen.Start(hosts, func(peer int, raw tuple.Raw) { tb.Fab.Inject(peer, raw) }, tb.rng)

	tb.Sim.RunFor(dur + 30*time.Second) // drain the tail
	return metrics.Mean(tcs), metrics.Mean(lats), metrics.Mean(disps)
}

// toInt64Hist parses a ground-truth-window histogram's string keys.
func toInt64Hist(h map[string]float64) map[int64]float64 {
	out := make(map[int64]float64, len(h))
	for k, v := range h {
		if n, err := strconv.ParseInt(k, 10, 64); err == nil {
			out[n] = v
		}
	}
	return out
}

// streamBaseRun ships every raw tuple to a central node through a 5k-tuple
// BSort re-order buffer (§5's commercial comparison).
func streamBaseRun(seed int64, hosts int, clocks []vclock.Clock, dur time.Duration) (float64, float64, float64) {
	sim := eventsim.New(seed)
	rng := rand.New(rand.NewSource(seed))
	topo := netem.GenerateTransitStub(netem.PaperTopology(hosts), rng)
	net := netem.New(sim, topo)
	hostIDs := topo.Hosts()

	proc := central.New(clockWindow, 5000)
	net.Handle(hostIDs[0], func(from netem.NodeID, payload any, size int) {
		proc.Ingest(payload.(central.Tuple), sim.Now())
	})
	for i := 1; i < hosts; i++ {
		i := i
		phase := time.Duration(rng.Int63n(int64(time.Second)))
		sim.After(phase, func() {
			sim.Every(time.Second, func() {
				t := central.Tuple{
					SourceTS:   clocks[i].Reported(sim.Now()),
					TrueWindow: int64(sim.Now() / clockWindow),
					Value:      1,
				}
				net.Send(hostIDs[i], hostIDs[0], netem.ClassData, 40, t)
			})
		})
	}
	sim.RunUntil(dur)
	proc.Flush(sim.Now())

	lastWin := int64(dur/clockWindow) - 2
	produced := float64(hosts-1) * clockWindow.Seconds()
	var tcs, lats, disps []float64
	for _, w := range proc.Results() {
		if w.Window < 3 || w.Window > lastWin {
			continue
		}
		correct := float64(w.ByTrueWindow[w.Window])
		frac := 100 * correct / produced
		if frac > 100 {
			frac = 100
		}
		tcs = append(tcs, frac)
		due := time.Duration(w.Window+1) * clockWindow
		lat := (w.ClosedAt - due).Seconds()
		if lat < 0 {
			lat = 0
		}
		lats = append(lats, lat)
		dh := make(map[int64]float64, len(w.ByTrueWindow))
		for tw, c := range w.ByTrueWindow {
			dh[tw] = float64(c)
		}
		disps = append(disps, metrics.Dispersion(dh, w.Window))
	}
	// Windows that never materialized (all data misassigned) count as zero
	// completeness.
	for miss := int64(3) + int64(len(tcs)); miss <= lastWin && len(tcs) < int(lastWin-2); miss++ {
		tcs = append(tcs, 0)
	}
	return metrics.Mean(tcs), metrics.Mean(lats), metrics.Mean(disps)
}

// Figure9 sweeps the skew scale and reports true completeness for
// syncless, timestamp, and the centralized (StreamBase-like) processor.
func Figure9(opt Options) *Table {
	return clockTable(opt, "Figure 9: true completeness (%) vs skew scale, 5s window", true)
}

// Figure10 reports result latency for the same runs.
func Figure10(opt Options) *Table {
	return clockTable(opt, "Figure 10: result latency (sec) vs skew scale, 5s window", false)
}

func clockTable(opt Options, title string, completeness bool) *Table {
	hosts, dur := 439, 120*time.Second
	scales := []float64{0, 0.5, 1, 1.5, 2}
	if opt.Quick {
		hosts, dur = 120, 60*time.Second
		scales = []float64{0, 1, 2}
	}
	t := &Table{
		Title:   title,
		Columns: []string{"scale", "syncless", "timestamp", "streambase"},
	}
	var syncAt1, tsAt1, syncLatAt1, tsLatAt1 float64
	var syncDispAt1, tsDispAt1 float64
	for _, scale := range scales {
		row := []string{f2(scale)}
		for m, mode := range []clockMode{modeSyncless, modeTimestamp, modeStreamBase} {
			tc, lat, disp := clockRun(opt.Seed+int64(m), hosts, scale, mode, dur)
			if completeness {
				row = append(row, f1(tc))
			} else {
				row = append(row, f2(lat))
			}
			if scale == 1 {
				switch mode {
				case modeSyncless:
					syncAt1, syncLatAt1, syncDispAt1 = tc, lat, disp
				case modeTimestamp:
					tsAt1, tsLatAt1, tsDispAt1 = tc, lat, disp
				}
			}
		}
		t.AddRow(row...)
	}
	if completeness && syncAt1 > 0 {
		t.Note("syncless at scale 1: %.1f%% (paper: ~91%%); timestamp: %.1f%%", syncAt1, tsAt1)
		t.Note("tuple dispersion at scale 1: syncless %.2f windows (bounded, §5.1), timestamp %.2f", syncDispAt1, tsDispAt1)
	}
	if !completeness && syncLatAt1 > 0 {
		t.Note("latency ratio timestamp/syncless at scale 1: %.1fx (paper: ~8x)", tsLatAt1/syncLatAt1)
	}
	return t
}
