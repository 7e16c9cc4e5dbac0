package netrt

import (
	"bufio"
	"fmt"
	"net"
	"strings"
	"time"
)

// The join barrier is how a multi-process federation starts in lockstep:
// worker processes dial the coordinator over TCP and announce the peer
// range they host ("JOIN lo-hi\n"); the coordinator accepts until its own
// range plus the joined ranges cover the whole directory, answers every
// worker "GO\n" (only now is every socket of the federation bound, so this
// is when all processes start gossiping) and plans. The connections stay
// open for the run — the coordinator hanging up is the end-of-run signal.

// AwaitWorkers accepts JOIN lines on a TCP listener until the local range
// plus the joined ranges cover every peer of an n-peer directory, or until
// timeout (when positive) elapses. Malformed join lines are dropped and
// the connection closed; overlapping or duplicate ranges are counted once.
// On success every worker is sent GO and the accepted connections are
// returned still open. On timeout the error reports how many peers were
// still uncovered and every accepted connection is closed — a late joiner
// finds nobody listening.
func AwaitWorkers(listen string, local []int, n int, timeout time.Duration) ([]net.Conn, error) {
	covered := make([]bool, n)
	remaining := n
	for _, p := range local {
		if p >= 0 && p < n && !covered[p] {
			covered[p] = true
			remaining--
		}
	}
	if remaining == 0 {
		return nil, nil
	}
	l, err := net.Listen("tcp", listen)
	if err != nil {
		return nil, err
	}
	defer l.Close()
	var deadline time.Time
	if timeout > 0 {
		deadline = time.Now().Add(timeout)
		if tl, ok := l.(*net.TCPListener); ok {
			_ = tl.SetDeadline(deadline)
		}
	}
	var conns []net.Conn
	abort := func(err error) ([]net.Conn, error) {
		for _, c := range conns {
			c.Close()
		}
		return nil, err
	}
	for remaining > 0 {
		c, err := l.Accept()
		if err != nil {
			if ne, ok := err.(net.Error); ok && ne.Timeout() {
				return abort(fmt.Errorf("netrt: join barrier timed out after %v with %d of %d peers uncovered", timeout, remaining, n))
			}
			return abort(err)
		}
		// The JOIN line must arrive within the barrier deadline too — a
		// connection that sends nothing (a port scan, a hung worker) must
		// not hold the barrier open past its timeout.
		if !deadline.IsZero() {
			_ = c.SetReadDeadline(deadline)
		}
		line, err := bufio.NewReader(c).ReadString('\n')
		if err != nil {
			c.Close()
			continue
		}
		_ = c.SetReadDeadline(time.Time{}) // joined: the conn stays open for the run
		spec, ok := strings.CutPrefix(strings.TrimSpace(line), "JOIN ")
		if !ok {
			c.Close()
			continue
		}
		peersRange, err := ParseRange(spec, n)
		if err != nil {
			c.Close()
			continue
		}
		for _, p := range peersRange {
			if !covered[p] {
				covered[p] = true
				remaining--
			}
		}
		conns = append(conns, c)
	}
	for _, c := range conns {
		fmt.Fprintln(c, "GO") // a worker that died since will miss its hang-up too
	}
	return conns, nil
}

// JoinBarrier dials the coordinator's barrier address, retrying until
// timeout (the coordinator may start after its workers), announces the
// local peer range and waits for GO — bounded by the coordinator, whose own
// barrier timeout closes the connection. The returned connection stays
// open until the coordinator hangs up (WaitHangup blocks on that).
func JoinBarrier(addr string, local []int, timeout time.Duration) (net.Conn, error) {
	if len(local) == 0 {
		return nil, fmt.Errorf("netrt: join with no local peers")
	}
	deadline := time.Now().Add(timeout)
	var conn net.Conn
	var err error
	for {
		conn, err = net.DialTimeout("tcp", addr, time.Second)
		if err == nil {
			break
		}
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("netrt: join barrier at %s unreachable after %v: %w", addr, timeout, err)
		}
		time.Sleep(250 * time.Millisecond)
	}
	if _, err := fmt.Fprintf(conn, "JOIN %d-%d\n", local[0], local[len(local)-1]); err != nil {
		conn.Close()
		return nil, err
	}
	if _, err := bufio.NewReader(conn).ReadString('\n'); err != nil {
		conn.Close()
		return nil, fmt.Errorf("netrt: join barrier at %s closed before it completed: %w", addr, err)
	}
	return conn, nil
}

// WaitHangup blocks until the coordinator closes the join connection (the
// end-of-run signal) or the fallback timeout elapses, then closes conn.
func WaitHangup(conn net.Conn, fallback time.Duration) {
	defer conn.Close()
	_ = conn.SetReadDeadline(time.Now().Add(fallback))
	_, _ = bufio.NewReader(conn).ReadString('\n')
}
