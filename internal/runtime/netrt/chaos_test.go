package netrt_test

import (
	"encoding/json"
	"math/rand"
	"os"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/chaos"
	"repro/internal/federation"
	"repro/internal/mortar"
	"repro/internal/msl"
	"repro/internal/runtime/netrt"
	"repro/internal/tuple"
)

// The ISSUE 8 acceptance run: a 1,000-peer federation over real loopback
// UDP sockets is driven through a scripted 40% fail-stop with staggered
// recovery — the netrt analogue of the paper's Fig 11/12 failure
// experiments. Per-window completeness must track the schedule's
// live-node count within the multi-tree tolerance band while the faults
// hold, and return to the full federation after recovery.
func TestThousandPeerCompletenessUnderFailure(t *testing.T) {
	if testing.Short() {
		t.Skip("1,000-peer failure run skipped in -short mode")
	}
	const peers = 1000
	prog, err := msl.Parse("query peers as count() from sensors window time 2s slide 2s trees 4 bf 32")
	if err != nil {
		t.Fatal(err)
	}
	ranges := make([][]int, 2)
	for p := 0; p < peers; p++ {
		ranges[p/(peers/2)] = append(ranges[p/(peers/2)], p)
	}
	rts, _, err := netrt.NewGroup(ranges, netrt.Options{
		Seed:           4099,
		PeersPerSocket: 125,
		ReadBuffer:     4 << 20,
	})
	if err != nil {
		t.Fatal(err)
	}
	worker, err := federation.NewWorker(rts[1])
	if err != nil {
		t.Fatal(err)
	}
	issued := rts[0].Clock(0).Now() // the root's frame counts from its install
	coord, err := federation.NewRuntimeCfg(rts[0], prog, rand.New(rand.NewSource(1)), mortar.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		for _, rt := range rts {
			rt.Shutdown()
		}
	}()

	for i, fed := range []*federation.Federation{coord, worker} {
		fed.StartSensors(time.Second, func(peer int) tuple.Raw {
			return tuple.Raw{Vals: []float64{1}}
		}, rand.New(rand.NewSource(int64(100+i))))
	}

	// Pre-fault baseline: the full federation must report before faults
	// make the target a moving one.
	baselineDeadline := time.Now().Add(90 * time.Second)
	for time.Now().Before(baselineDeadline) && coord.Ledger.Best("peers") != peers {
		time.Sleep(250 * time.Millisecond)
	}
	if best := coord.Ledger.Best("peers"); best != peers {
		t.Fatalf("baseline completeness %d of %d never reached", best, peers)
	}

	// The scripted scenario, through the same DSL the mortard -chaos path
	// parses: 40% fail-stop staggered over ~4s, held ~15s, then staggered
	// recovery of everything. The hold is long enough that the plateau
	// judged below keeps ≈ 25 samples although reports trail their windows
	// by ≈ 6 s there.
	sched, err := chaos.Parse([]byte(`{
		"scenario": "kill40-netrt",
		"seed": 20080417,
		"sample_ms": 250,
		"events": [
			{"kind": "kill", "at_ms": 0, "frac": 0.4, "stagger_ms": 10},
			{"kind": "recover", "at_ms": 19000, "all": true, "stagger_ms": 10}
		]
	}`))
	if err != nil {
		t.Fatal(err)
	}

	// Recorder first, so the curve carries pre-fault baseline samples;
	// its live probe reads the schedule-truth runner once that starts.
	var runnerPtr atomic.Pointer[chaos.Runner]
	rec := chaos.NewRecorder(sched.Scenario, peers, sched.SamplePeriod(), chaos.Probe{
		Live: func() int {
			if r := runnerPtr.Load(); r != nil {
				return r.Live()
			}
			return peers
		},
		Completeness: func() (int64, int) { return coord.Ledger.Latest("peers") },
	})
	rec.Start()
	time.Sleep(1500 * time.Millisecond)

	// One runner per "process": both expand the identical action list
	// from the shared seed; each gates only its local peers.
	r0, err := chaos.Start(rts[0], sched)
	if err != nil {
		t.Fatal(err)
	}
	r1, err := chaos.Start(rts[1], sched)
	if err != nil {
		t.Fatal(err)
	}
	runnerPtr.Store(r0)
	r0.Wait()
	r1.Wait()
	// The window the root was filling when the last kill landed: window n
	// is the root's slide n since the query was issued.
	var lastKill time.Duration
	for _, a := range r0.Actions() {
		if a.Kind == chaos.ActKill {
			lastKill = max(lastKill, a.At)
		}
	}
	meta := coord.Def("peers").Meta
	killEnd := rts[0].Clock(0).Now() - time.Since(r0.StartedAt().Add(lastKill))
	openAtKillEnd := int64((killEnd - issued) / meta.Window.Slide)

	// Recovery: completeness must return to the full federation.
	recoverDeadline := time.Now().Add(90 * time.Second)
	for time.Now().Before(recoverDeadline) {
		if _, c := coord.Ledger.Latest("peers"); c == peers {
			break
		}
		time.Sleep(250 * time.Millisecond)
	}
	// Let a few post-recovery windows land on the curve before stopping.
	time.Sleep(2 * time.Second)
	rec.Stop()

	fs, fe, ok := r0.FaultSpan()
	if !ok {
		t.Fatal("schedule expanded with no fault span")
	}
	curve := rec.Curve(fs, fe)
	dir := t.TempDir()
	path, err := curve.WriteFile(dir)
	if err != nil {
		t.Fatal(err)
	}

	if curve.Summary.MinLive != peers-400 {
		t.Errorf("min live %d, want %d (40%% of %d killed)", curve.Summary.MinLive, peers-400, peers)
	}
	if curve.Summary.Baseline != peers {
		t.Errorf("pre-fault baseline %d on the curve, want %d", curve.Summary.Baseline, peers)
	}
	if _, c := coord.Ledger.Latest("peers"); c != peers {
		t.Errorf("completeness %d after recovery, want %d", c, peers)
	}

	// Steady-state band on the fault plateau, judged by window index: only
	// windows opened after the last kill count — a window the stagger ran
	// through is still short the subtrees its dying parents orphaned, and
	// on the timer path it is reported, and stays the latest, seconds after
	// the stagger ends — and only while live sits at its minimum, since the
	// latest *closed* window necessarily lags a moving live count. There
	// per-window completeness must stay within the multi-tree tolerance of
	// the live-node count. The paper measures ~94% of live for 4 trees at
	// 40% failures (Fig 12); we gate at 70% to absorb race-detector and
	// loopback scheduling noise. It must also not exceed live once only
	// live peers feed the windows.
	steady := 0
	for _, s := range curve.Samples {
		if s.Window <= openAtKillEnd || s.TMs > curve.FaultEndMs || s.Live != curve.Summary.MinLive {
			continue
		}
		steady++
		if s.Completeness < (s.Live*7)/10 {
			t.Errorf("t=%dms: completeness %d below 70%% of live %d", s.TMs, s.Completeness, s.Live)
		}
		if s.Completeness > s.Live+peers/20 {
			t.Errorf("t=%dms: completeness %d far above live %d", s.TMs, s.Completeness, s.Live)
		}
	}
	if steady < 8 {
		t.Errorf("only %d steady-state fault samples on the curve", steady)
	}

	// The artifact must round-trip as the pipeline consumes it.
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var back chaos.Curve
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatalf("curve artifact does not parse: %v", err)
	}
	if back.Scenario != "kill40-netrt" || back.Peers != peers || len(back.Samples) == 0 {
		t.Fatalf("curve artifact header %+v", back)
	}
	t.Logf("curve: baseline=%d fault_min=%d min_live=%d recovered=%d samples=%d (%d on the plateau, windows after %d)",
		back.Summary.Baseline, back.Summary.FaultMin, back.Summary.MinLive,
		back.Summary.Recovered, len(back.Samples), steady, openAtKillEnd)
}
