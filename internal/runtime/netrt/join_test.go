package netrt_test

import (
	"net"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/runtime/netrt"
)

func writePeers(t *testing.T, content string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "peers.txt")
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// The peers file is the one artifact every process of a federation must
// agree on; malformed lines and genuinely conflicting entries must be
// rejected loudly, not bound into a half-working directory.
func TestLoadDirectoryFailurePaths(t *testing.T) {
	if _, err := netrt.LoadDirectory(filepath.Join(t.TempDir(), "missing.txt")); err == nil {
		t.Fatal("missing peers file accepted")
	}
	if _, err := netrt.LoadDirectory(writePeers(t, "# only comments\n\n")); err == nil {
		t.Fatal("empty peers file accepted")
	}
	_, err := netrt.LoadDirectory(writePeers(t, "127.0.0.1:9000\nnot-an-address\n"))
	if err == nil || !strings.Contains(err.Error(), "line 2") {
		t.Fatalf("malformed line error = %v", err)
	}
	// A ranged line conflicting with an earlier assignment (same peer,
	// different address) is a real error: the peer's datagrams would go to
	// one socket while it listens on another.
	_, err = netrt.LoadDirectory(writePeers(t, "127.0.0.1:9000 0-3\n127.0.0.1:9001 3-5\n"))
	if err == nil || !strings.Contains(err.Error(), "already mapped") {
		t.Fatalf("conflicting range error = %v", err)
	}
	// Ranges must cover the index space contiguously from 0.
	_, err = netrt.LoadDirectory(writePeers(t, "127.0.0.1:9000 0-1\n127.0.0.1:9001 3-4\n"))
	if err == nil || !strings.Contains(err.Error(), "no peer 2") {
		t.Fatalf("gap error = %v", err)
	}
	// The two shapes must not blend — a mixed file is ambiguous about
	// which lines carry implicit indices.
	_, err = netrt.LoadDirectory(writePeers(t, "127.0.0.1:9000 0-1\n127.0.0.1:9001\n"))
	if err == nil {
		t.Fatal("mixed plain/ranged file accepted")
	}
	dir, err := netrt.LoadDirectory(writePeers(t, "# federation\n127.0.0.1:9000\n\n127.0.0.1:9001\n"))
	if err != nil || len(dir) != 2 {
		t.Fatalf("valid file: dir=%v err=%v", dir, err)
	}
}

// Many peers per address is the multiplexed layout, not an error — in both
// the plain shape (repeated lines) and the ranged shape.
func TestLoadDirectoryMultiplexedAddresses(t *testing.T) {
	dir, err := netrt.LoadDirectory(writePeers(t, "127.0.0.1:9000\n127.0.0.1:9000\n127.0.0.1:9001\n127.0.0.1:9000\n"))
	if err != nil {
		t.Fatalf("plain multiplexed file rejected: %v", err)
	}
	want := []string{"127.0.0.1:9000", "127.0.0.1:9000", "127.0.0.1:9001", "127.0.0.1:9000"}
	if len(dir) != len(want) {
		t.Fatalf("dir = %v, want %v", dir, want)
	}
	for i := range want {
		if dir[i] != want[i] {
			t.Fatalf("dir[%d] = %q, want %q", i, dir[i], want[i])
		}
	}

	dir, err = netrt.LoadDirectory(writePeers(t, "# ranged, out of order\n127.0.0.1:9001 4-5\n127.0.0.1:9000 0-3\n127.0.0.1:9001 4\n"))
	if err != nil {
		t.Fatalf("ranged file rejected: %v", err)
	}
	want = []string{"127.0.0.1:9000", "127.0.0.1:9000", "127.0.0.1:9000", "127.0.0.1:9000", "127.0.0.1:9001", "127.0.0.1:9001"}
	if len(dir) != len(want) {
		t.Fatalf("dir = %v, want %v", dir, want)
	}
	for i := range want {
		if dir[i] != want[i] {
			t.Fatalf("dir[%d] = %q, want %q", i, dir[i], want[i])
		}
	}
}

// freePort reserves an ephemeral TCP port and releases it for the test to
// reuse immediately.
func freePort(t *testing.T) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := l.Addr().String()
	l.Close()
	return addr
}

// The barrier must count overlapping JOIN ranges once, drop malformed
// lines, and complete exactly when the directory is covered.
func TestAwaitWorkersCoverage(t *testing.T) {
	addr := freePort(t)
	type result struct {
		conns []net.Conn
		err   error
	}
	done := make(chan result, 1)
	go func() {
		conns, err := netrt.AwaitWorkers(addr, []int{0}, 4, 10*time.Second)
		done <- result{conns, err}
	}()

	dial := func(line string) net.Conn {
		t.Helper()
		var c net.Conn
		var err error
		for i := 0; i < 40; i++ {
			c, err = net.Dial("tcp", addr)
			if err == nil {
				break
			}
			time.Sleep(50 * time.Millisecond)
		}
		if err != nil {
			t.Fatalf("dial barrier: %v", err)
		}
		if _, err := c.Write([]byte(line)); err != nil {
			t.Fatal(err)
		}
		return c
	}
	defer dial("JOIN 1-2\n").Close()
	defer dial("HELLO\n").Close()     // malformed: ignored
	defer dial("JOIN 1-2\n").Close()  // duplicate range: counted once
	defer dial("JOIN 9-12\n").Close() // out of range: ignored
	select {
	case r := <-done:
		t.Fatalf("barrier completed with peer 3 uncovered: %v %v", r.conns, r.err)
	case <-time.After(500 * time.Millisecond):
	}
	defer dial("JOIN 3-3\n").Close()
	select {
	case r := <-done:
		if r.err != nil {
			t.Fatalf("barrier failed: %v", r.err)
		}
		for _, c := range r.conns {
			c.Close()
		}
	case <-time.After(10 * time.Second):
		t.Fatal("barrier did not complete after full coverage")
	}
}

// A coordinator whose workers never arrive must give up after the barrier
// timeout, reporting the uncovered count — and a worker that joins after
// that finds nobody listening and fails its own join timeout instead of
// hanging forever.
func TestJoinAfterBarrierTimeout(t *testing.T) {
	addr := freePort(t)
	start := time.Now()
	_, err := netrt.AwaitWorkers(addr, []int{0}, 3, 400*time.Millisecond)
	if err == nil || !strings.Contains(err.Error(), "2 of 3 peers uncovered") {
		t.Fatalf("barrier timeout error = %v", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("barrier held for %v past its 400ms timeout", elapsed)
	}

	// The late worker: the listener is gone, so the join retries until its
	// own deadline and errors out.
	if _, err := netrt.JoinBarrier(addr, []int{1, 2}, 700*time.Millisecond); err == nil {
		t.Fatal("late join succeeded against a closed barrier")
	}
	if _, err := netrt.JoinBarrier(addr, nil, time.Second); err == nil {
		t.Fatal("join with no local peers accepted")
	}
}

// A worker that joins in time gets a connection that stays open until the
// coordinator hangs up; WaitHangup returns promptly on the hangup.
func TestJoinBarrierHandshake(t *testing.T) {
	addr := freePort(t)
	conns := make(chan []net.Conn, 1)
	go func() {
		cs, err := netrt.AwaitWorkers(addr, []int{0}, 2, 10*time.Second)
		if err != nil {
			t.Error(err)
		}
		conns <- cs
	}()
	wc, err := netrt.JoinBarrier(addr, []int{1}, 10*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	cs := <-conns
	if len(cs) != 1 {
		t.Fatalf("coordinator holds %d worker connections, want 1", len(cs))
	}
	done := make(chan struct{})
	go func() {
		netrt.WaitHangup(wc, 30*time.Second)
		close(done)
	}()
	cs[0].Close() // end of run
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("WaitHangup missed the coordinator hangup")
	}
}

// JoinBarrier returns when the barrier is complete, not when its own line is
// written: an early worker that started gossiping at once would spend its
// logged rounds on sockets the late worker has not bound. And a barrier the
// coordinator abandons fails the early worker's join instead of hanging it.
func TestJoinBarrierWaitsForTheLastWorker(t *testing.T) {
	addr := freePort(t)
	go func() {
		cs, err := netrt.AwaitWorkers(addr, []int{0}, 3, 10*time.Second)
		if err != nil {
			t.Error(err)
		}
		for _, c := range cs {
			defer c.Close()
		}
		time.Sleep(time.Second) // hold the run open past the joins
	}()
	early := make(chan error, 1)
	go func() {
		c, err := netrt.JoinBarrier(addr, []int{1}, 10*time.Second)
		if err == nil {
			c.Close()
		}
		early <- err
	}()
	select {
	case err := <-early:
		t.Fatalf("early worker's join returned (%v) with peer 2 uncovered", err)
	case <-time.After(500 * time.Millisecond):
	}
	late, err := netrt.JoinBarrier(addr, []int{2}, 10*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	late.Close()
	select {
	case err := <-early:
		if err != nil {
			t.Fatalf("early worker's join failed once the barrier completed: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("early worker never heard the barrier complete")
	}

	addr = freePort(t)
	go netrt.AwaitWorkers(addr, []int{0}, 3, 600*time.Millisecond)
	if _, err := netrt.JoinBarrier(addr, []int{1}, 10*time.Second); err == nil || !strings.Contains(err.Error(), "closed before it completed") {
		t.Fatalf("join against an abandoned barrier returned %v", err)
	}
}

// A connection that joins the barrier but never sends its JOIN line (a
// port scan, a hung worker) must not hold the barrier open past its
// timeout: the read is bounded by the same deadline as the accept loop.
func TestAwaitWorkersSilentConnection(t *testing.T) {
	addr := freePort(t)
	done := make(chan error, 1)
	go func() {
		_, err := netrt.AwaitWorkers(addr, []int{0}, 2, 600*time.Millisecond)
		done <- err
	}()
	var c net.Conn
	var err error
	for i := 0; i < 40; i++ {
		c, err = net.Dial("tcp", addr)
		if err == nil {
			break
		}
		time.Sleep(25 * time.Millisecond)
	}
	if err != nil {
		t.Fatalf("dial barrier: %v", err)
	}
	defer c.Close() // connected, silent: write nothing
	select {
	case err := <-done:
		if err == nil || !strings.Contains(err.Error(), "uncovered") {
			t.Fatalf("barrier ended with %v, want timeout error", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("silent connection held the barrier past its timeout")
	}
}
