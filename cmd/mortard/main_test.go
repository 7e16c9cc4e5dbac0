package main

import (
	"bytes"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
)

// lockedBuffer takes the concurrent Writes run makes.
type lockedBuffer struct {
	mu sync.Mutex
	bytes.Buffer
}

func (b *lockedBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.Buffer.Write(p)
}

// mortard parses args and runs them to completion in-process, returning
// everything the run wrote.
func mortard(args ...string) (string, error) {
	cfg, err := parseFlags("mortard", args)
	if err != nil {
		return "", err
	}
	var out lockedBuffer
	err = run(cfg, &out)
	return out.String(), err
}

// Each backend refuses the flags it cannot honour, naming the flag; every
// other combination passes.
func TestCheckMode(t *testing.T) {
	for _, tc := range []struct {
		args    string
		wantErr string // substring; "" means accepted
	}{
		{args: ""},
		{args: "-fail 0.2"},
		{args: "-serve :0", wantErr: "-serve needs a wall-clock backend"},
		{args: "-chaos f", wantErr: "-chaos needs a wall-clock backend"},
		{args: "-replan", wantErr: "-replan needs a wall-clock backend"},
		{args: "-loss 0.5", wantErr: "-loss tunes the -live transport"},
		{args: "-dup 0.5", wantErr: "-dup tunes the -live transport"},
		{args: "-host 0-3", wantErr: "-host is a UDP-mode flag"},
		{args: "-listen :0", wantErr: "-listen is a UDP-mode flag"},
		{args: "-join :0", wantErr: "-join is a UDP-mode flag"},
		{args: "-mtu 160", wantErr: "-mtu is a UDP-mode flag"},
		{args: "-pace 1", wantErr: "-pace is a UDP-mode flag"},
		{args: "-live -fail 0.2 -serve :0 -chaos f -replan -loss 0.1 -dup 0.1"},
		{args: "-peers-file f -host 0-3 -listen :0 -mtu 160 -pace 1 -serve :0 -chaos f -replan"},
		{args: "-peers-file f -host 4-7 -join :0 -chaos f"},
		{args: "-peers-file f -host 0-3 -fail 0.2", wantErr: "-chaos"},
		{args: "-peers-file f -host 0-3 -fail 0.2 -chaos f", wantErr: "-fail"},
		{args: "-peers-file f -host 0-3 -live", wantErr: "-live is dropped by -peers-file"},
		{args: "-peers-file f -host 0-3 -loss 0.5", wantErr: "-loss tunes the -live transport"},
		{args: "-peers-file f", wantErr: "-peers-file requires -host"},
		{args: "-peers-file f -host 4-7 -serve :0", wantErr: "-serve runs on the coordinator"},
	} {
		cfg, err := parseFlags("mortard", strings.Fields(tc.args))
		if err != nil {
			t.Fatalf("%q: %v", tc.args, err)
		}
		err = cfg.check()
		switch {
		case tc.wantErr == "" && err != nil:
			t.Errorf("%q: refused: %v", tc.args, err)
		case tc.wantErr != "" && (err == nil || !strings.Contains(err.Error(), tc.wantErr)):
			t.Errorf("%q: err = %v, want one naming %q", tc.args, err, tc.wantErr)
		}
	}
}

// The simulator is deterministic from its seed, and its output — every
// result row, and with -fail the instant and order of the disconnect and
// reconnect among them — is what the parent of the one-run-path change
// printed, except that the -fail rows, whose windows wait on timers, were
// re-recorded when a timed-out window's deadline became its end plus the
// learned lag, and again when that lag was learned at the per-window rate.
func TestSimulatorGolden(t *testing.T) {
	for _, tc := range []struct {
		golden string
		args   []string
	}{
		{"testdata/sim-seed3.txt", []string{"-peers", "60", "-seed", "3"}},
		{"testdata/sim-seed3-fail.txt", []string{"-peers", "60", "-seed", "3", "-fail", "0.2"}},
	} {
		want, err := os.ReadFile(tc.golden)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 2; i++ {
			got, err := mortard(tc.args...)
			if err != nil {
				t.Fatal(err)
			}
			if got != string(want) {
				t.Errorf("%v, run %d, differs from %s:\n%s", tc.args, i, tc.golden, got)
			}
		}
	}
}

// counters reads the name=value integers of the first line starting with
// prefix.
func counters(t *testing.T, out, prefix string) map[string]int {
	t.Helper()
	for _, line := range strings.Split(out, "\n") {
		if !strings.HasPrefix(line, prefix) {
			continue
		}
		m := map[string]int{}
		for _, kv := range regexp.MustCompile(`(\w+)=(\d+)`).FindAllStringSubmatch(line, -1) {
			m[kv[1]], _ = strconv.Atoi(kv[2])
		}
		return m
	}
	t.Fatalf("no %q line in:\n%s", prefix, out)
	return nil
}

// wantCompleteness fails unless some result row counted every peer.
func wantCompleteness(t *testing.T, out string, peers int) {
	t.Helper()
	if !strings.Contains(out, fmt.Sprintf(" completeness=%d ", peers)) {
		t.Errorf("no window reached completeness=%d:\n%s", peers, out)
	}
}

// The live backend counts every peer, and prints the UDP backend's summary:
// with no loss injected, every frame delivered or dropped is one the pacer
// accepted. (The first full window reports ≈ 3 s in; at -loss 0 no install
// frame is lost, so completeness does not wait on reconciliation.)
func TestLiveRun(t *testing.T) {
	t.Parallel()
	out, err := mortard("-live", "-peers", "12", "-duration", "5s", "-loss", "0")
	if err != nil {
		t.Fatal(err)
	}
	wantCompleteness(t, out, 12)
	c := counters(t, out, "# udp transport:")
	if c["sent"] == 0 || c["delivered"] == 0 || c["delivered"]+c["dropped"] > c["sent"] || c["duplicated"] != 0 {
		t.Errorf("ledger does not reconcile: %v", c)
	}
}

// resultRow matches one printed root result: its time and completeness.
var resultRow = regexp.MustCompile(`(?m)^t=(\S+)\s+query=.* completeness=(\d+) `)

// -chaos on -live reaches the transport's fault point: a 0.9 loss-ramp
// drops frames, and every window reported once it holds misses peers that
// the windows before it counted in full.
func TestLiveChaosLossRamp(t *testing.T) {
	t.Parallel()
	const peers, rampAt = 8, 4500 * time.Millisecond
	dir := t.TempDir()
	sched := filepath.Join(dir, "loss.json")
	if err := os.WriteFile(sched, []byte(fmt.Sprintf(`{"scenario": "live-loss", "seed": 1, "events": [
		{"kind": "loss-ramp", "at_ms": %d, "until_ms": %d, "from": 0.9, "to": 0.9, "step_ms": 1}]}`,
		rampAt.Milliseconds(), rampAt.Milliseconds()+1)), 0o644); err != nil {
		t.Fatal(err)
	}
	out, err := mortard("-live", "-peers", strconv.Itoa(peers), "-duration", "8s", "-loss", "0",
		"-chaos", sched, "-curve-dir", dir)
	if err != nil {
		t.Fatal(err)
	}
	if c := counters(t, out, "# udp transport:"); c["dropped"] == 0 {
		t.Errorf("a 0.9 loss-ramp dropped no frame: %v", c)
	}
	fullBefore, after := false, 0
	for _, m := range resultRow.FindAllStringSubmatch(out, -1) {
		at, err := time.ParseDuration(m[1])
		if err != nil {
			t.Fatal(err)
		}
		n, _ := strconv.Atoi(m[2])
		switch {
		case at < rampAt:
			fullBefore = fullBefore || n == peers
		case at > rampAt+time.Second: // a window filled under the loss
			after++
			if n >= peers {
				t.Errorf("t=%v: completeness %d of %d with 90%% of frames lost", at, n, peers)
			}
		}
	}
	if !fullBefore || after == 0 {
		t.Errorf("want full windows before the ramp and windows after it (full before: %v, after: %d):\n%s",
			fullBefore, after, out)
	}
}

// -curve-dir names a directory that may not exist yet: the run creates it
// and the curve lands there, with every sample. One that cannot be created
// (a path through a regular file) fails the run at start-up, before any
// run time passes.
func TestChaosCurveDirCreated(t *testing.T) {
	t.Parallel()
	dir := t.TempDir()
	sched := filepath.Join(dir, "loss.json")
	if err := os.WriteFile(sched, []byte(`{"scenario": "fresh-dir", "seed": 1, "events": [
		{"kind": "loss-ramp", "at_ms": 500, "until_ms": 501, "from": 0.1, "to": 0.1, "step_ms": 1}]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	curveDir := filepath.Join(dir, "runs", "fresh")
	out, err := mortard("-live", "-peers", "4", "-duration", "2s", "-loss", "0", "-chaos", sched, "-curve-dir", curveDir)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(curveDir, "CURVE_fresh-dir.json")
	if !strings.Contains(out, "curve="+path) {
		t.Errorf("summary does not name %s:\n%s", path, out)
	}
	if c := counters(t, out, "# chaos summary:"); c["samples"] == 0 {
		t.Errorf("no samples recorded: %v", c)
	}
	if _, err := os.Stat(path); err != nil {
		t.Fatalf("curve not written: %v", err)
	}

	start := time.Now()
	_, err = mortard("-live", "-peers", "4", "-duration", "3s", "-chaos", sched, "-curve-dir", filepath.Join(sched, "below-a-file"))
	if err == nil || !strings.Contains(err.Error(), "-curve-dir") {
		t.Fatalf("an uncreatable -curve-dir gave %v, want a -curve-dir error", err)
	}
	if took := time.Since(start); took >= 3*time.Second {
		t.Fatalf("the -curve-dir error came after %v, not at start-up", took)
	}
}

// A coordinator and a worker, each one run over its half of a generated
// peers file, exchange real datagrams on loopback: the coordinator counts
// every peer, and hanging up ends the worker's run. No transport flag is
// set: both processes gossip, so the coordinator plans from coordinates
// every process fitted for its own peers.
func TestUDPCoordinatorAndWorker(t *testing.T) {
	if testing.Short() {
		t.Skip("binds loopback sockets and runs 9 s of wall clock")
	}
	t.Parallel()
	const peers = 8
	ln, err := net.Listen("tcp", "127.0.0.1:0") // a free port for the join barrier
	if err != nil {
		t.Fatal(err)
	}
	join := ln.Addr().String()
	ln.Close()
	pc, err := net.ListenPacket("udp", "127.0.0.1:0") // and one for the first of the two sockets
	if err != nil {
		t.Fatal(err)
	}
	basePort := pc.LocalAddr().(*net.UDPAddr).Port
	pc.Close()
	file := filepath.Join(t.TempDir(), "peers.txt")
	if _, err := mortard("-gen-peers-file", file, "-peers", strconv.Itoa(peers), "-peers-per-socket", "4", "-base-port", strconv.Itoa(basePort)); err != nil {
		t.Fatal(err)
	}

	type result struct {
		out string
		err error
	}
	worker := make(chan result, 1)
	go func() {
		out, err := mortard("-peers-file", file, "-host", "4-7", "-join", join, "-duration", "60s")
		worker <- result{out, err}
	}()
	out, err := mortard("-peers-file", file, "-host", "0-3", "-listen", join, "-duration", "6s")
	if err != nil {
		t.Fatal(err)
	}
	wantCompleteness(t, out, peers)
	if !strings.Contains(out, "# planned from gossiped coordinates: true\n") {
		t.Errorf("coordinator did not plan from gossiped coordinates:\n%s", out)
	}
	if c := counters(t, out, "# udp transport:"); c["sent"] == 0 || c["delivered"] == 0 {
		t.Errorf("no datagrams crossed the sockets: %v", c)
	}
	w := <-worker
	if w.err != nil || !strings.Contains(w.out, "# worker hosting peers 4..7") {
		t.Errorf("worker: err = %v, output:\n%s", w.err, w.out)
	}

	// Alone, with nobody answering for peers 4-7, the coordinator's gossip
	// cannot cover the federation: it still plans, from its local
	// embedding, and says so.
	out, err = mortard("-peers-file", file, "-host", "0-3", "-duration", "1s")
	if err != nil || !strings.Contains(out, "# planned from gossiped coordinates: false\n") {
		t.Errorf("lone coordinator: err = %v, output:\n%s", err, out)
	}
}

// Staggered starts: a worker that joins 1.5 s before the last one does not
// start its ten logged gossip rounds until the barrier completes. Started at
// its own join, those rounds (1 s) would be over before the late worker's
// sockets were bound, and its tenth line could compare at most the 4 × 7
// pairs that end at its own and the coordinator's peers.
func TestEarlyWorkerFitsAfterTheBarrier(t *testing.T) {
	if testing.Short() {
		t.Skip("binds loopback sockets and runs 5 s of wall clock")
	}
	t.Parallel()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	join := ln.Addr().String()
	ln.Close()
	pc, err := net.ListenPacket("udp", "127.0.0.1:0") // the first of three sockets
	if err != nil {
		t.Fatal(err)
	}
	basePort := pc.LocalAddr().(*net.UDPAddr).Port
	pc.Close()
	file := filepath.Join(t.TempDir(), "peers.txt")
	if _, err := mortard("-gen-peers-file", file, "-peers", "12", "-peers-per-socket", "4", "-base-port", strconv.Itoa(basePort)); err != nil {
		t.Fatal(err)
	}
	early := make(chan string, 1)
	go func() {
		out, _ := mortard("-peers-file", file, "-host", "4-7", "-join", join, "-duration", "60s")
		early <- out
	}()
	go func() {
		time.Sleep(1500 * time.Millisecond)
		mortard("-peers-file", file, "-host", "8-11", "-join", join, "-duration", "60s")
	}()
	out, err := mortard("-peers-file", file, "-host", "0-3", "-listen", join, "-duration", "2s")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "# planned from gossiped coordinates: true\n") {
		t.Errorf("coordinator did not plan from gossiped coordinates:\n%s", out)
	}
	w := <-early
	m := regexp.MustCompile(`# vivaldi round 10: .* over (\d+) pairs`).FindStringSubmatch(w)
	if m == nil {
		t.Fatalf("early worker logged no tenth round:\n%s", w)
	}
	if pairs, _ := strconv.Atoi(m[1]); pairs <= 4*7 {
		t.Errorf("early worker's tenth round compared %d pairs: none reach the late worker's peers:\n%s", pairs, w)
	}
}

// What used to exit the process from a helper now comes back from run.
func TestRunReturnsErrors(t *testing.T) {
	dir := t.TempDir()
	badChaos := filepath.Join(dir, "chaos.json")
	if err := os.WriteFile(badChaos, []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	for _, args := range [][]string{
		{"-msl", filepath.Join(dir, "missing.msl")},
		{"-live", "-peers", "4", "-chaos", badChaos},
		{"-live", "-peers", "4", "-duration", "1s", "-serve", ln.Addr().String()},
	} {
		if _, err := mortard(args...); err == nil {
			t.Errorf("%v: run returned no error", args)
		}
	}
}
