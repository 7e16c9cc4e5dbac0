package netrt

import (
	"bytes"
	"net"
	"net/netip"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/wire"
)

// The pass rule, counted datagram by datagram. Everything is queued before
// the writer starts, so the whole submission is one drain pass: small
// frames share a train per destination, a train is written when the next
// frame would pass the MTU, before a frame too large for any train is
// written through (every started train, whatever its destination), and when
// the pass ends — in submission order per destination, with nothing left
// pending.
func TestPacerPassPacksAndFlushesInOrder(t *testing.T) {
	const mtu = 256
	listen := func() *net.UDPConn {
		c, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { c.Close() })
		return c
	}
	// Both destination ids (the key trains are kept under) resolve to one
	// receiving socket, so the test reads the writer's total order.
	out, dst := listen(), listen()
	port := func(c *net.UDPConn) netip.AddrPort {
		ap := c.LocalAddr().(*net.UDPAddr).AddrPort()
		return netip.AddrPortFrom(ap.Addr().Unmap(), ap.Port())
	}
	var dropped, datagrams, trains, trainFrames atomic.Uint64
	p := newPacer(out, pacerOptions{mtu: mtu}, pacerCounters{&dropped, &datagrams, &trains, &trainFrames})

	frame := func(tag byte, n int) []byte { return bytes.Repeat([]byte{tag}, n) }
	// To A: 3 small frames, one MTU-sized frame no train can take, 2 small
	// frames, then 3 frames of 100 bytes (the third does not fit beside the
	// first two). To B, interleaved: 2 small frames.
	toA := [][]byte{frame(1, 20), frame(2, 20), frame(3, 20), frame(4, mtu), frame(5, 20), frame(6, 20),
		frame(7, 100), frame(8, 100), frame(9, 100)}
	toB := [][]byte{frame(101, 20), frame(102, 20)}
	for i, f := range toA {
		p.submit(f, nil, port(dst), 0)
		if i < len(toB) {
			p.submit(toB[i], nil, port(dst), 1)
		}
	}
	exited := make(chan struct{})
	go func() {
		p.loop()
		close(exited)
	}()

	// read returns the frames of the next datagram, and whether it was a
	// train.
	read := func() (frames [][]byte, train bool) {
		buf := make([]byte, 2*mtu)
		dst.SetReadDeadline(time.Now().Add(5 * time.Second))
		n, _, err := dst.ReadFromUDP(buf)
		if err != nil {
			t.Fatalf("a datagram the pass owed was never written: %v", err)
		}
		if buf[0] != frameTrain {
			return [][]byte{buf[:n]}, false
		}
		if err := wire.ForEachTrainFrame(buf[1:n], func(f []byte) { frames = append(frames, f) }); err != nil {
			t.Fatal(err)
		}
		return frames, true
	}
	expect := func(want [][]byte, wantTrain bool) {
		t.Helper()
		got, train := read()
		if train != wantTrain || len(got) != len(want) {
			t.Fatalf("datagram carried %d frames (train=%v), want %d (train=%v)", len(got), train, len(want), wantTrain)
		}
		for i := range want {
			if !bytes.Equal(got[i], want[i]) {
				t.Fatalf("frame %d of the datagram starts %d, want %d: order lost", i, got[i][0], want[i][0])
			}
		}
	}
	expect(toA[0:3], true)  // flushed ahead of the write-through
	expect(toB, true)       // so is B's train: not held behind A's large frame
	expect(toA[3:4], false) // the MTU-sized frame, bare
	expect(toA[4:8], true)  // flushed because frame 9 would pass the MTU
	expect(toA[8:9], false) // end of pass; a train of one goes bare
	p.stop()
	<-exited // the pass is over and the writer's state is ours to read
	if d, tr, tf := datagrams.Load(), trains.Load(), trainFrames.Load(); d != 5 || tr != 3 || tf != 9 {
		t.Fatalf("datagrams=%d trains=%d train_frames=%d, want 5, 3, 9", d, tr, tf)
	}
	for dst, pt := range p.pending {
		if pt.frames != 0 {
			t.Fatalf("pass ended with %d frames pending for destination %d", pt.frames, dst)
		}
	}
}
