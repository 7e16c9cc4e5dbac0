package chaos

import (
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"
)

// fakeInjector records gate and loss operations; localOnly simulates one
// process of a multi-process federation.
type fakeInjector struct {
	mu        sync.Mutex
	n         int
	localOnly map[int]bool // nil = everything local
	down      map[int]bool
	loss      float64
	peerLoss  map[int]float64
	groups    [][]int
}

func newFakeInjector(n int) *fakeInjector {
	return &fakeInjector{n: n, down: map[int]bool{}, peerLoss: map[int]float64{}}
}

func (f *fakeInjector) NumPeers() int { return f.n }
func (f *fakeInjector) SetDown(p int, d bool) {
	f.mu.Lock()
	f.down[p] = d
	f.mu.Unlock()
}
func (f *fakeInjector) SetLoss(p float64) {
	f.mu.Lock()
	f.loss = p
	f.mu.Unlock()
}
func (f *fakeInjector) SetPeerLoss(peer int, p float64) {
	f.mu.Lock()
	f.peerLoss[peer] = p
	f.mu.Unlock()
}
func (f *fakeInjector) AddressGroups() [][]int { return f.groups }
func (f *fakeInjector) Local(p int) bool {
	if f.localOnly == nil {
		return true
	}
	return f.localOnly[p]
}

func TestRunnerRepliesSchedule(t *testing.T) {
	inj := newFakeInjector(10)
	s := mustParse(t, `{
		"scenario": "run",
		"seed": 5,
		"events": [
			{"kind": "kill", "at_ms": 0, "peers": [2, 3]},
			{"kind": "peer-loss", "at_ms": 10, "peers": [4], "loss": 0.25},
			{"kind": "loss-ramp", "at_ms": 20, "until_ms": 60, "from": 0, "to": 0.1, "step_ms": 20},
			{"kind": "recover", "at_ms": 80, "peers": [2]}
		]
	}`)
	r, err := Start(inj, s)
	if err != nil {
		t.Fatalf("Start: %v", err)
	}
	select {
	case <-r.Done():
	case <-time.After(5 * time.Second):
		t.Fatal("runner did not finish")
	}
	inj.mu.Lock()
	defer inj.mu.Unlock()
	if !inj.down[3] || inj.down[2] {
		t.Fatalf("gate state %v, want 3 down and 2 recovered", inj.down)
	}
	if inj.peerLoss[4] != 0.25 {
		t.Fatalf("peer loss %v", inj.peerLoss)
	}
	if inj.loss != 0.1 {
		t.Fatalf("global loss %g, want ramp end 0.1", inj.loss)
	}
	if r.Live() != 9 {
		t.Fatalf("Live = %d after 2 kills + 1 recover of 10, want 9", r.Live())
	}
	if r.Applied() != len(r.Actions()) {
		t.Fatalf("applied %d of %d actions", r.Applied(), len(r.Actions()))
	}
}

// Two processes expanding the same schedule apply disjoint local slices
// whose union is the full fault pattern, and agree on Live throughout.
func TestRunnerLocalityPartition(t *testing.T) {
	const n = 20
	src := `{
		"scenario": "split",
		"seed": 9,
		"events": [
			{"kind": "kill", "at_ms": 0, "frac": 0.5},
			{"kind": "recover", "at_ms": 50, "all": true}
		]
	}`
	left := newFakeInjector(n)
	left.localOnly = map[int]bool{}
	right := newFakeInjector(n)
	right.localOnly = map[int]bool{}
	for p := 0; p < n; p++ {
		if p < n/2 {
			left.localOnly[p] = true
		} else {
			right.localOnly[p] = true
		}
	}
	rl, err := Start(left, mustParse(t, src))
	if err != nil {
		t.Fatalf("Start left: %v", err)
	}
	rr, err := Start(right, mustParse(t, src))
	if err != nil {
		t.Fatalf("Start right: %v", err)
	}
	rl.Wait()
	rr.Wait()
	for p := 0; p < n; p++ {
		_, inLeft := left.down[p]
		_, inRight := right.down[p]
		if inLeft && inRight {
			t.Fatalf("peer %d gated in both processes", p)
		}
		if inLeft && p >= n/2 || inRight && p < n/2 {
			t.Fatalf("peer %d gated in the wrong process", p)
		}
	}
	// Same expansion → same final live count in both processes.
	if rl.Live() != n || rr.Live() != n {
		t.Fatalf("live after recover-all: left %d right %d, want %d", rl.Live(), rr.Live(), n)
	}
	// Union of gate operations covers every victim exactly once.
	victims := 0
	for _, a := range rl.Actions() {
		if a.Kind == ActKill {
			victims++
		}
	}
	if got := len(left.down) + len(right.down); got != victims {
		t.Fatalf("union gated %d peers, expansion killed %d", got, victims)
	}
}

func TestRunnerStopAbandonsTail(t *testing.T) {
	inj := newFakeInjector(4)
	r := StartActions(inj, []Action{
		{At: 0, Kind: ActKill, Peer: 1, Live: 3},
		{At: time.Hour, Kind: ActRecover, Peer: 1, Live: 4},
	})
	deadline := time.Now().Add(2 * time.Second)
	for r.Applied() == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	r.Stop()
	if r.Applied() != 1 {
		t.Fatalf("applied %d actions, want the first only", r.Applied())
	}
	inj.mu.Lock()
	defer inj.mu.Unlock()
	if !inj.down[1] {
		t.Fatal("first action did not apply before Stop")
	}
}

func TestRecorderCurveAndSummary(t *testing.T) {
	var mu sync.Mutex
	live, comp := 10, 10
	probe := Probe{
		Live: func() int { mu.Lock(); defer mu.Unlock(); return live },
		Completeness: func() (int64, int) {
			mu.Lock()
			defer mu.Unlock()
			return 1, comp
		},
	}
	rec := NewRecorder("unit", 10, 5*time.Millisecond, probe)
	rec.Start()
	time.Sleep(40 * time.Millisecond)
	faultStart := time.Now()
	mu.Lock()
	live, comp = 6, 5
	mu.Unlock()
	time.Sleep(40 * time.Millisecond)
	faultEnd := time.Now()
	mu.Lock()
	live, comp = 10, 10
	mu.Unlock()
	time.Sleep(40 * time.Millisecond)
	rec.Stop()

	c := rec.Curve(faultStart, faultEnd)
	if c.Scenario != "unit" || c.Peers != 10 || c.SampleMs != 5 {
		t.Fatalf("curve header %+v", c)
	}
	if len(c.Samples) < 6 {
		t.Fatalf("only %d samples", len(c.Samples))
	}
	if c.Summary.Baseline != 10 || c.Summary.Recovered != 10 {
		t.Fatalf("summary %+v, want baseline and recovered 10", c.Summary)
	}
	if c.Summary.FaultMin > 5 || c.Summary.FaultMin < 0 {
		t.Fatalf("fault min %d, want <= 5", c.Summary.FaultMin)
	}
	if c.Summary.MinLive != 6 {
		t.Fatalf("min live %d, want 6", c.Summary.MinLive)
	}

	dir := t.TempDir()
	path, err := c.WriteFile(dir)
	if err != nil {
		t.Fatalf("WriteFile: %v", err)
	}
	if filepath.Base(path) != "CURVE_unit.json" {
		t.Fatalf("curve written to %s", path)
	}
	if _, err := os.Stat(path); err != nil {
		t.Fatalf("stat curve: %v", err)
	}

	// No-fault runs summarize everything as baseline.
	c2 := rec.Curve(time.Time{}, time.Time{})
	if c2.FaultStartMs != -1 || c2.FaultEndMs != -1 {
		t.Fatalf("no-fault curve has span %d..%d", c2.FaultStartMs, c2.FaultEndMs)
	}
	if c2.Summary.Baseline != 10 || c2.Summary.Recovered != 0 {
		t.Fatalf("no-fault summary %+v", c2.Summary)
	}
}

// A curve directory that does not exist yet is created, parents and all:
// a run given a fresh path keeps its samples.
func TestCurveWriteFileCreatesDirectory(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "runs", "fresh")
	c := Curve{Scenario: "nested", Peers: 4, Samples: []Sample{{TMs: 0, Live: 4, Completeness: 4}}}
	path, err := c.WriteFile(dir)
	if err != nil {
		t.Fatalf("WriteFile into a fresh nested directory: %v", err)
	}
	if want := filepath.Join(dir, "CURVE_nested.json"); path != want {
		t.Fatalf("curve written to %s, want %s", path, want)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(b), `"scenario": "nested"`) {
		t.Fatalf("curve file holds:\n%s", b)
	}
}
