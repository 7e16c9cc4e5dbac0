package chaos

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// Probe supplies the two signals a curve plots, as plain callbacks so the
// recorder depends on neither the federation nor the runtime packages.
// Live is the live-node count to judge completeness against (typically
// Runner.Live — schedule truth); Completeness returns the newest closed
// window and the number of peers whose readings reached the root for it.
type Probe struct {
	Live         func() int
	Completeness func() (window int64, count int)
}

// Sample is one recorder tick.
type Sample struct {
	TMs          int64 `json:"t_ms"`
	Live         int   `json:"live"`
	Window       int64 `json:"window"`
	Completeness int   `json:"completeness"`
}

// Summary condenses a curve into the numbers CI gates on.
type Summary struct {
	// Baseline is the best completeness observed before the first fault
	// (over the whole run when nothing was killed).
	Baseline int `json:"baseline"`
	// FaultMin is the worst completeness while faults were held, raw —
	// it includes the transition dip right after a kill.
	FaultMin int `json:"fault_min"`
	// MinLive is the smallest live-node count the schedule reached.
	MinLive int `json:"min_live"`
	// Recovered is the best completeness after the last gate change.
	Recovered int `json:"recovered"`
}

// Curve is the CURVE_<scenario>.json artifact: a completeness-over-time
// series in the same per-commit artifact pipeline as the BENCH_*.json
// files. Plotting completeness and live against t_ms reproduces the
// shape of the paper's Figs 9-13 for the scripted scenario.
type Curve struct {
	Scenario     string   `json:"scenario"`
	Peers        int      `json:"peers"`
	SampleMs     int64    `json:"sample_ms"`
	FaultStartMs int64    `json:"fault_start_ms"` // -1 when nothing was killed
	FaultEndMs   int64    `json:"fault_end_ms"`
	Samples      []Sample `json:"samples"`
	Summary      Summary  `json:"summary"`
}

// Recorder samples a Probe at a fixed period, timestamping relative to
// its own Start.
type Recorder struct {
	scenario string
	peers    int
	every    time.Duration
	probe    Probe

	mu      sync.Mutex
	started time.Time
	samples []Sample

	stop     chan struct{}
	stopOnce sync.Once
	done     chan struct{}
}

// NewRecorder builds a recorder for an n-peer federation; every <= 0
// falls back to DefaultSampleMs.
func NewRecorder(scenario string, peers int, every time.Duration, probe Probe) *Recorder {
	if every <= 0 {
		every = DefaultSampleMs * time.Millisecond
	}
	return &Recorder{
		scenario: scenario,
		peers:    peers,
		every:    every,
		probe:    probe,
		stop:     make(chan struct{}),
		done:     make(chan struct{}),
	}
}

// Start begins sampling. Sample time zero is this call.
func (rec *Recorder) Start() {
	rec.mu.Lock()
	rec.started = time.Now()
	rec.mu.Unlock()
	go rec.loop()
}

func (rec *Recorder) loop() {
	defer close(rec.done)
	tick := time.NewTicker(rec.every)
	defer tick.Stop()
	for {
		select {
		case <-tick.C:
			rec.sample()
		case <-rec.stop:
			rec.sample() // final point so short runs still have data
			return
		}
	}
}

func (rec *Recorder) sample() {
	live := rec.probe.Live()
	win, count := rec.probe.Completeness()
	rec.mu.Lock()
	rec.samples = append(rec.samples, Sample{
		TMs:          time.Since(rec.started).Milliseconds(),
		Live:         live,
		Window:       win,
		Completeness: count,
	})
	rec.mu.Unlock()
}

// Stop ends sampling (idempotent) and waits for the final sample.
func (rec *Recorder) Stop() {
	rec.stopOnce.Do(func() { close(rec.stop) })
	<-rec.done
}

// Samples returns a snapshot of everything recorded so far.
func (rec *Recorder) Samples() []Sample {
	rec.mu.Lock()
	defer rec.mu.Unlock()
	out := make([]Sample, len(rec.samples))
	copy(out, rec.samples)
	return out
}

// Curve assembles the artifact. faultStart/faultEnd are the absolute wall
// times of the schedule's fault span (Runner.FaultSpan); pass zero times
// for a run that killed nothing.
func (rec *Recorder) Curve(faultStart, faultEnd time.Time) Curve {
	rec.mu.Lock()
	started := rec.started
	samples := make([]Sample, len(rec.samples))
	copy(samples, rec.samples)
	rec.mu.Unlock()

	c := Curve{
		Scenario:     rec.scenario,
		Peers:        rec.peers,
		SampleMs:     rec.every.Milliseconds(),
		FaultStartMs: -1,
		FaultEndMs:   -1,
		Samples:      samples,
	}
	faulted := !faultStart.IsZero()
	if faulted {
		c.FaultStartMs = faultStart.Sub(started).Milliseconds()
		c.FaultEndMs = faultEnd.Sub(started).Milliseconds()
	}
	sum := Summary{MinLive: rec.peers, FaultMin: -1}
	for _, s := range samples {
		if s.Live < sum.MinLive {
			sum.MinLive = s.Live
		}
		switch {
		case !faulted || s.TMs < c.FaultStartMs:
			if s.Completeness > sum.Baseline {
				sum.Baseline = s.Completeness
			}
		case s.TMs <= c.FaultEndMs:
			if sum.FaultMin == -1 || s.Completeness < sum.FaultMin {
				sum.FaultMin = s.Completeness
			}
		default:
			if s.Completeness > sum.Recovered {
				sum.Recovered = s.Completeness
			}
		}
	}
	c.Summary = sum
	return c
}

// WriteFile serializes the curve to dir/CURVE_<scenario>.json, creating
// dir and its parents when missing, and returns the path.
func (c Curve) WriteFile(dir string) (string, error) {
	b, err := json.MarshalIndent(c, "", "  ")
	if err != nil {
		return "", fmt.Errorf("chaos: marshal curve: %w", err)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", fmt.Errorf("chaos: %w", err)
	}
	path := filepath.Join(dir, "CURVE_"+c.Scenario+".json")
	if err := os.WriteFile(path, append(b, '\n'), 0o644); err != nil {
		return "", fmt.Errorf("chaos: %w", err)
	}
	return path, nil
}
