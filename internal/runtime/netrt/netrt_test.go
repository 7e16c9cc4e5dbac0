package netrt_test

import (
	"encoding/hex"
	"math"
	"math/rand"
	"net"
	goruntime "runtime"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/eventsim"
	"repro/internal/federation"
	"repro/internal/mortar"
	"repro/internal/msl"
	"repro/internal/netem"
	"repro/internal/plan"
	"repro/internal/runtime"
	"repro/internal/runtime/netrt"
	"repro/internal/runtime/simrt"
	"repro/internal/tuple"
	"repro/internal/vivaldi"
	"repro/internal/wire"
)

func waitFor(t *testing.T, d time.Duration, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatal("condition not reached in time")
}

// Messages must cross real loopback sockets: a bare message Sent from one
// peer arrives at another decoded, with the datagram length as its size.
func TestLoopbackSendReceive(t *testing.T) {
	rts, dir, err := netrt.NewGroup([][]int{{0, 1}}, netrt.Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	rt := rts[0]
	defer rt.Shutdown()
	if len(dir) != 2 || rt.NumPeers() != 2 || !rt.Local(0) || !rt.Local(1) {
		t.Fatalf("group shape wrong: dir=%v local0=%v local1=%v", dir, rt.Local(0), rt.Local(1))
	}

	var mu sync.Mutex
	var got []any
	var sizes []int
	rt.Handle(1, func(from int, payload any, size int) {
		mu.Lock()
		got = append(got, payload)
		sizes = append(sizes, size)
		mu.Unlock()
	})
	if !rt.Send(0, 1, runtime.ClassControl, 0, wire.Heartbeat{Seq: 7, Hash: 99}) {
		t.Fatal("send refused")
	}
	waitFor(t, 5*time.Second, func() bool {
		mu.Lock()
		defer mu.Unlock()
		return len(got) == 1
	})
	mu.Lock()
	hb, ok := got[0].(wire.Heartbeat)
	if !ok || hb.Seq != 7 || hb.Hash != 99 {
		t.Fatalf("received %#v", got[0])
	}
	if sizes[0] <= 0 {
		t.Fatalf("size %d", sizes[0])
	}
	mu.Unlock()

	// A fabric-style Frame payload transmits its pre-encoded bytes.
	env := &wire.Envelope{S: tuple.Summary{Query: "q", Value: float64(3), Count: 1, Levels: []int16{0}}}
	var w wire.Buffer
	if err := wire.EncodeMessage(&w, env); err != nil {
		t.Fatal(err)
	}
	rt.Send(0, 1, runtime.ClassData, w.Len(), &runtime.Frame{Payload: env, Bytes: w.Bytes()})
	waitFor(t, 5*time.Second, func() bool {
		mu.Lock()
		defer mu.Unlock()
		return len(got) == 2
	})
	mu.Lock()
	got2, ok := got[1].(*wire.Envelope)
	mu.Unlock()
	if !ok || got2.S.Query != "q" || got2.S.Value.(float64) != 3 {
		t.Fatalf("envelope arrived as %#v", got[1])
	}
}

// v7Envelope is the "cpu-sum" envelope (Count 42) the wire package's
// sampleMessages opens with, as this release writes it.
const v7Envelope = "0701076370752d73756d0f2b80bcc1960b2a000309220404010600010403"

// The v5 header kind (ns stamps and a class byte) is no longer read. Sent
// from a raw socket claiming to be peer 1, a datagram of it carrying a
// frame this release decodes is dropped and counted, and never delivered:
// the heartbeat peer 1 sends after it arrives alone.
func TestOldHeaderKindDropped(t *testing.T) {
	rts, dir, err := netrt.NewGroup([][]int{{0}, {1}}, netrt.Options{Seed: 37})
	if err != nil {
		t.Fatal(err)
	}
	a, b := rts[0], rts[1]
	defer a.Shutdown()
	defer b.Shutdown()
	got := make(chan any, 4)
	a.Handle(0, func(from int, payload any, size int) { got <- payload })
	b.Handle(1, func(int, any, int) {})

	old, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	defer old.Close()
	dst, err := net.ResolveUDPAddr("udp", dir[0])
	if err != nil {
		t.Fatal(err)
	}
	body, err := hex.DecodeString(v7Envelope)
	if err != nil {
		t.Fatal(err)
	}
	var w wire.Buffer
	w.PutByte(1) // the v5 header kind
	w.PutUvarint(1)
	w.PutUvarint(0)
	w.PutVarint(int64(20 * time.Second)) // transmit stamp, ns
	w.PutVarint(1)                       // echo
	w.PutVarint(0)                       // hold
	w.PutByte(byte(runtime.ClassData))
	w.PutRaw(body)
	_, _, dropped := a.Stats()
	if _, err := old.WriteToUDP(w.Bytes(), dst); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for _, _, d := a.Stats(); d == dropped; _, _, d = a.Stats() {
		if time.Now().After(deadline) {
			t.Fatal("old-kind datagram never counted dropped")
		}
		time.Sleep(time.Millisecond)
	}
	if !b.Send(1, 0, runtime.ClassControl, 0, wire.Heartbeat{Seq: 1}) {
		t.Fatal("send refused")
	}
	select {
	case m := <-got:
		if _, ok := m.(wire.Heartbeat); !ok {
			t.Fatalf("delivered %#v, want the heartbeat alone", m)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("heartbeat never arrived")
	}
	if _, _, d := a.Stats(); d != dropped+1 {
		t.Fatalf("%d datagrams dropped, want the old-kind one", d-dropped)
	}
}

// v7Frame is a kind-7 datagram as the v7 sender wrote it, every field
// present: [7], from peer 1, to peer 0, transmit stamp 20 s, echo of stamp
// 1 µs, hold 0 (µs uvarints), then the v7 heartbeat {Seq 9, Hash 77}.
const v7Frame = "07010080dac40901000702094d"

// readFrame reads one datagram from a raw socket standing in for a remote
// peer and parses the transport header of the message frame in it.
func readFrame(t *testing.T, c *net.UDPConn) (kind byte, from, to uint64, fields []uint64, addr *net.UDPAddr) {
	t.Helper()
	buf := make([]byte, 2048)
	c.SetReadDeadline(time.Now().Add(5 * time.Second))
	n, addr, err := c.ReadFromUDP(buf)
	if err != nil {
		t.Fatal(err)
	}
	rd := wire.NewReader(buf[:n])
	kind, _ = rd.Byte()
	from, _ = rd.Uvarint()
	to, _ = rd.Uvarint()
	want := 0 // presence bits: a stamp, then an echo and its hold
	if kind&1 != 0 {
		want++
	}
	if kind&2 != 0 {
		want += 2
	}
	for range want {
		v, err := rd.Uvarint()
		if err != nil {
			t.Fatalf("kind %d header cut short: % x", kind, buf[:n])
		}
		fields = append(fields, v)
	}
	return kind, from, to, fields, addr
}

// Only kinds 8–11 carry messages. A captured kind-7 datagram (the v7
// header), kind 1 (the v5 header), kind 14 (past every kind) and a kind 9
// whose stamp is cut short are dropped and counted, and deliver nothing;
// so are a ping and a pong in the retired probe shape (kinds 2 and 3, a
// varint stamp and a dimension count), which give no RTT sample and no
// reply. A kind-8 frame of the same heartbeat behind them is delivered.
func TestRetiredKindsDropped(t *testing.T) {
	raw, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()
	rt, err := netrt.New([]string{"127.0.0.1:0", raw.LocalAddr().String()}, []int{0}, netrt.Options{Seed: 43})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Shutdown()
	got := make(chan any, 8)
	rt.Handle(0, func(from int, payload any, size int) { got <- payload })

	// Peer 0 speaks first, so the raw socket learns its address; a first
	// frame to a remote carries a stamp and nothing to echo.
	if !rt.Send(0, 1, runtime.ClassControl, 0, wire.Heartbeat{Seq: 1}) {
		t.Fatal("send refused")
	}
	kind, from, to, _, addr := readFrame(t, raw)
	if kind != 9 || from != 0 || to != 1 {
		t.Fatalf("first frame: kind %d %d→%d, want kind 9 (stamp) 0→1", kind, from, to)
	}

	v7, err := hex.DecodeString(v7Frame)
	if err != nil {
		t.Fatal(err)
	}
	body, err := hex.DecodeString("07020a4d") // the v7 heartbeat {Seq 10, Hash 77}
	if err != nil {
		t.Fatal(err)
	}
	samples := rt.NetStats().RTTSamples
	_, _, dropped := rt.Stats()
	for _, bad := range [][]byte{
		v7,
		append([]byte{1, 1, 0, 0x80, 0xda, 0xc4, 0x09, 1, 0, byte(runtime.ClassData)}, body...),
		append([]byte{14, 1, 0}, body...),
		{9, 1, 0, 0x80, 0xda},
		{2, 1, 0, 2, 0},    // ping: stamp 1, no coordinate
		{3, 1, 0, 2, 0, 0}, // pong: echo of stamp 1, hold 0, no coordinate
	} {
		if _, err := raw.WriteToUDP(bad, addr); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, 5*time.Second, func() bool { _, _, d := rt.Stats(); return d >= dropped+6 })
	if _, err := raw.WriteToUDP(append([]byte{8, 1, 0}, body...), addr); err != nil {
		t.Fatal(err)
	}
	select {
	case m := <-got:
		if hb, ok := m.(wire.Heartbeat); !ok || hb.Seq != 10 {
			t.Fatalf("delivered %#v, want the kind-8 heartbeat {Seq 10} alone", m)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("kind-8 frame never delivered")
	}
	if _, _, d := rt.Stats(); d != dropped+6 {
		t.Fatalf("%d datagrams dropped, want kinds 7, 1, 14, 2 and 3 and the short kind 9", d-dropped)
	}
	if n := rt.NetStats().RTTSamples - samples; n != 0 {
		t.Fatalf("dropped kinds gave %d RTT samples, want none", n)
	}
}

// probe returns a ping or pong from peer 1 to peer 0 in the shape this
// release writes, [kind][from][to][µs stamp] and then c's components and
// the error estimate e as f64s, with extra bytes after it.
func probe(kind byte, stamp uint64, c []float64, e float64, extra ...byte) []byte {
	var w wire.Buffer
	w.PutByte(kind)
	w.PutUvarint(1)
	w.PutUvarint(0)
	w.PutUvarint(stamp)
	for _, v := range c {
		w.PutF64(v)
	}
	w.PutF64(e)
	return append(w.Bytes(), extra...)
}

// A probe whose coordinate holds a non-finite component or an error
// estimate outside [0, 1] is dropped and counted, unanswered: its
// coordinate, cached, would reach the planner through Coordinates and
// turn the local embedding into NaN at the next RTT sample from that
// peer, for good.
func TestNonFiniteCoordinateIgnored(t *testing.T) {
	rts, dir, err := netrt.NewGroup([][]int{{0}, {1}}, netrt.Options{Seed: 41})
	if err != nil {
		t.Fatal(err)
	}
	a, b := rts[0], rts[1]
	defer a.Shutdown()
	defer b.Shutdown()
	a.Handle(0, func(int, any, int) {})
	heard := make(chan struct{}, 1)
	b.Handle(1, func(int, any, int) { heard <- struct{}{} })

	raw, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()
	dst, err := net.ResolveUDPAddr("udp", dir[0])
	if err != nil {
		t.Fatal(err)
	}
	nan, inf := math.NaN(), math.Inf(1)
	bad := []struct {
		c []float64
		e float64
	}{
		{[]float64{1, 1, 1}, 2},
		{[]float64{1, 1, 1}, -1},
		{[]float64{1, 1, 1}, nan},
		{[]float64{1, inf, 1}, 0.5},
		{[]float64{1, 1, -inf}, 0.5},
		{[]float64{nan, 1, 1}, 0.5},
	}
	_, _, dropped := a.Stats()
	sent := a.NetStats().Datagrams
	for _, s := range bad {
		for _, kind := range []byte{netrt.FramePing, netrt.FramePong} {
			if _, err := raw.WriteToUDP(probe(kind, 1, s.c, s.e), dst); err != nil {
				t.Fatal(err)
			}
		}
	}
	want := dropped + 2*uint64(len(bad))
	waitFor(t, 5*time.Second, func() bool { _, _, d := a.Stats(); return d >= want })
	coords, _, known := a.Coordinates()
	if known[1] {
		t.Fatalf("peer 1 known at %v after non-finite probes", coords[1])
	}
	if _, _, d := a.Stats(); d != want || a.NetStats().Datagrams != sent || a.NetStats().RTTSamples != 0 {
		t.Fatalf("%d of %d non-finite probes dropped, %d answered, %d RTT samples", d-dropped, 2*len(bad), a.NetStats().Datagrams-sent, a.NetStats().RTTSamples)
	}

	// An RTT sample from peer 1 must leave peer 0's coordinate finite.
	if !a.Send(0, 1, runtime.ClassControl, 0, wire.Heartbeat{Seq: 1}) {
		t.Fatal("send refused")
	}
	select {
	case <-heard:
	case <-time.After(5 * time.Second):
		t.Fatal("heartbeat never arrived")
	}
	if !b.Send(1, 0, runtime.ClassControl, 0, wire.Heartbeat{Seq: 2}) {
		t.Fatal("send refused")
	}
	waitFor(t, 5*time.Second, func() bool { _, ok := a.Measured(0, 1); return ok })
	coords, errs, _ := a.Coordinates()
	if !vivaldi.Finite(coords[0], errs[0]) {
		t.Fatalf("peer 0 coordinate %v err %v after an RTT sample from peer 1", coords[0], errs[0])
	}
}

// With PeersPerSocket several local peers share one socket; frames must
// still demux to the peer they address, in both directions, within a
// socket and across sockets.
func TestSharedSocketMultiplexedDelivery(t *testing.T) {
	rts, _, err := netrt.NewGroup([][]int{{0, 1}, {2, 3}}, netrt.Options{Seed: 5, PeersPerSocket: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer rts[0].Shutdown()
	defer rts[1].Shutdown()
	for _, rt := range rts {
		if st := rt.NetStats(); st.Sockets != 1 {
			t.Fatalf("expected 1 shared socket for 2 peers, got %d", st.Sockets)
		}
	}
	var mu sync.Mutex
	got := map[int][]int{} // dst -> srcs seen
	for _, rt := range rts {
		for _, p := range rt.LocalPeers() {
			p := p
			rt.Handle(p, func(from int, payload any, size int) {
				mu.Lock()
				got[p] = append(got[p], from)
				mu.Unlock()
			})
		}
	}
	// Same socket (0->1), across runtimes to both peers of one socket
	// (0->2, 1->3), and back (3->0).
	sends := [][2]int{{0, 1}, {0, 2}, {1, 3}, {3, 0}}
	for i, s := range sends {
		from, to := s[0], s[1]
		rt := rts[0]
		if from >= 2 {
			rt = rts[1]
		}
		if !rt.Send(from, to, runtime.ClassControl, 0, wire.Heartbeat{Seq: uint64(i + 1)}) {
			t.Fatalf("send %d->%d refused", from, to)
		}
	}
	waitFor(t, 5*time.Second, func() bool {
		mu.Lock()
		defer mu.Unlock()
		n := 0
		for _, srcs := range got {
			n += len(srcs)
		}
		return n == len(sends)
	})
	mu.Lock()
	defer mu.Unlock()
	for _, s := range sends {
		found := false
		for _, src := range got[s[1]] {
			if src == s[0] {
				found = true
			}
		}
		if !found {
			t.Fatalf("frame %d->%d not delivered to its peer: got %v", s[0], s[1], got)
		}
	}
}

// The receive loop only queues: a handler that blocks holds up its own
// peer, never the socket it shares with others. Peer 1's handler blocks
// while peer 2, behind the same socket, keeps receiving; an Exec to the
// blocked peer queues and returns.
func TestBlockedHandlerDoesNotStallSharedSocket(t *testing.T) {
	rts, _, err := netrt.NewGroup([][]int{{0, 1, 2}}, netrt.Options{Seed: 6, PeersPerSocket: 3})
	if err != nil {
		t.Fatal(err)
	}
	rt := rts[0]
	defer rt.Shutdown()
	entered, release := make(chan struct{}), make(chan struct{})
	defer close(release)
	var once sync.Once
	rt.Handle(1, func(int, any, int) {
		once.Do(func() { close(entered) })
		<-release
	})
	var got atomic.Int32
	rt.Handle(2, func(int, any, int) { got.Add(1) })

	rt.Send(0, 1, runtime.ClassControl, 0, wire.Heartbeat{Seq: 1})
	select {
	case <-entered:
	case <-time.After(5 * time.Second):
		t.Fatal("peer 1's handler never ran")
	}
	var ranAtOne atomic.Bool
	if !rt.Exec(1, func() { ranAtOne.Store(true) }) || ranAtOne.Load() {
		t.Fatal("Exec to a blocked peer must queue and return")
	}
	const frames = 20
	for i := 0; i < frames; i++ {
		rt.Send(0, 2, runtime.ClassControl, 0, wire.Heartbeat{Seq: uint64(i + 2)})
	}
	waitFor(t, 5*time.Second, func() bool { return got.Load() == frames })
}

// A burst of small frames to one remote socket backs up behind the writer
// and must travel in far fewer datagrams than frames — the train layer
// working — while every frame still arrives, in the order it was sent, and
// with nothing left behind in a train once the sender goes quiet.
func TestCoalescedSmallFramesShareDatagrams(t *testing.T) {
	rts, _, err := netrt.NewGroup([][]int{{0, 1}}, netrt.Options{Seed: 9, PeersPerSocket: 2})
	if err != nil {
		t.Fatal(err)
	}
	rt := rts[0]
	defer rt.Shutdown()
	const frames = 200
	var delivered atomic.Uint64
	var misordered atomic.Uint64
	rt.Handle(1, func(from int, payload any, size int) {
		if payload.(wire.Heartbeat).Seq != delivered.Add(1) {
			misordered.Add(1)
		}
	})
	for i := 0; i < frames; i++ {
		if !rt.Send(0, 1, runtime.ClassControl, 0, wire.Heartbeat{Seq: uint64(i + 1)}) {
			t.Fatalf("send %d refused", i)
		}
	}
	// No further sends: the pass that packed a frame is the pass that
	// writes it, so every frame arrives with nothing to push it out.
	waitFor(t, 10*time.Second, func() bool { return delivered.Load() == frames })
	if n := misordered.Load(); n != 0 {
		t.Fatalf("%d of %d frames to one peer arrived out of submission order", n, frames)
	}
	// Every frame was written, in a train or bare. (A datagram is counted
	// just after its write, which delivery can outrun.)
	waitFor(t, 5*time.Second, func() bool {
		st := rt.NetStats()
		return st.TrainFrames+st.Datagrams-st.Trains == frames
	})
	st := rt.NetStats()
	if st.Trains == 0 {
		t.Fatal("no coalesced trains were written")
	}
	if st.TrainFrames <= st.Trains {
		t.Fatalf("trains carried no extra frames: %+v", st)
	}
	if st.Datagrams >= frames {
		t.Fatalf("coalescing did not reduce datagrams: %d datagrams for %d frames", st.Datagrams, frames)
	}
}

// A frame that finds its socket idle is written at once as the bare frame
// it is: no train, and no hold in the writer — the echo round trip of a
// quiet loopback pair stays well under the millisecond any flush timer
// would add to each direction.
func TestIdleSocketAddsNoHold(t *testing.T) {
	rts, _, err := netrt.NewGroup([][]int{{0}, {1}}, netrt.Options{Seed: 10})
	if err != nil {
		t.Fatal(err)
	}
	a, b := rts[0], rts[1]
	defer a.Shutdown()
	defer b.Shutdown()
	back := make(chan struct{}, 1)
	b.Handle(1, func(from int, payload any, size int) {
		b.Send(1, 0, runtime.ClassControl, 0, payload)
	})
	a.Handle(0, func(from int, payload any, size int) { back <- struct{}{} })

	const probes = 50
	rtts := make([]time.Duration, probes)
	for i := range rtts {
		start := time.Now()
		if !a.Send(0, 1, runtime.ClassControl, 0, wire.Heartbeat{Seq: uint64(i + 1)}) {
			t.Fatalf("send %d refused", i)
		}
		select {
		case <-back:
		case <-time.After(5 * time.Second):
			t.Fatalf("echo %d never came back", i)
		}
		rtts[i] = time.Since(start)
	}
	for _, rt := range rts {
		// A datagram is counted just after its write, which the last echo
		// can outrun.
		waitFor(t, 5*time.Second, func() bool { return rt.NetStats().Datagrams >= probes })
		if st := rt.NetStats(); st.Datagrams != probes || st.Trains != 0 {
			t.Fatalf("%d frames sent one at a time on a quiet socket: %+v, want %d bare datagrams", probes, st, probes)
		}
	}
	sort.Slice(rtts, func(i, j int) bool { return rtts[i] < rtts[j] })
	if med := rtts[probes/2]; med >= time.Millisecond {
		t.Fatalf("median echo round trip on an idle loopback pair = %v, want < 1ms", med)
	}
}

// Simulated loss is rolled once per frame, before the frame reaches the
// pair delay (an hour here: a frame rolled after its hold would still be
// waiting) or the writer: at loss 1 no datagram of any kind is written and
// every lost frame is counted as one drop.
func TestLossRolledOncePerFrameBeforeTheWriter(t *testing.T) {
	rts, _, err := netrt.NewGroup([][]int{{0, 1}, {2, 3}}, netrt.Options{
		Seed:      13,
		PairDelay: func(from, to int) time.Duration { return time.Hour },
	})
	if err != nil {
		t.Fatal(err)
	}
	a, b := rts[0], rts[1]
	defer a.Shutdown()
	defer b.Shutdown()
	var got atomic.Uint64
	b.Handle(2, func(from int, payload any, size int) { got.Add(1) })

	a.SetLoss(1)
	const frames = 100
	for i := 0; i < frames; i++ {
		a.Send(i%2, 2, runtime.ClassControl, 0, wire.Heartbeat{Seq: uint64(i + 1)})
	}
	a.Gossip(1, 0, 20*time.Millisecond) // 2 local peers ping 3 others each
	if _, _, dropped := a.Stats(); dropped != frames+6 {
		t.Fatalf("dropped = %d after %d messages and 6 pings at loss 1", dropped, frames)
	}
	if st := a.NetStats(); st.Datagrams != 0 || got.Load() != 0 {
		t.Fatalf("loss 1 let %d datagrams reach the writer (%d delivered)", st.Datagrams, got.Load())
	}

	a.SetLoss(0)
	a.SetPairDelay(nil)
	a.Send(0, 2, runtime.ClassControl, 0, wire.Heartbeat{Seq: frames + 1})
	waitFor(t, 5*time.Second, func() bool { return got.Load() == 1 })
	if _, _, dropped := a.Stats(); dropped != frames+6 {
		t.Fatalf("dropped moved to %d with loss back at 0", dropped)
	}
}

// New must multiplex peers whose directory entries share an address onto
// one socket, and must reject a directory where an address mixes local
// and non-local peers.
func TestNewSharedAddressDirectory(t *testing.T) {
	reserve := func() string {
		c, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
		if err != nil {
			t.Fatal(err)
		}
		addr := c.LocalAddr().String()
		c.Close()
		return addr
	}
	a, b := reserve(), reserve()
	dir := []string{a, a, b, b}
	rt, err := netrt.New(dir, []int{0, 1, 2, 3}, netrt.Options{Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Shutdown()
	if st := rt.NetStats(); st.Sockets != 2 {
		t.Fatalf("4 peers on 2 addresses bound %d sockets", st.Sockets)
	}
	var gotFrom atomic.Int64
	gotFrom.Store(-1)
	rt.Handle(3, func(from int, payload any, size int) { gotFrom.Store(int64(from)) })
	if !rt.Send(0, 3, runtime.ClassControl, 0, wire.Heartbeat{Seq: 1}) {
		t.Fatal("send refused")
	}
	waitFor(t, 5*time.Second, func() bool { return gotFrom.Load() == 0 })

	if _, err := netrt.New([]string{a, a}, []int{0}, netrt.Options{Seed: 12}); err == nil {
		t.Fatal("address mixing local and non-local peers accepted")
	}
}

// SetDown must gate both directions locally, and Shutdown must be clean
// and idempotent.
func TestDownAndShutdown(t *testing.T) {
	rts, _, err := netrt.NewGroup([][]int{{0, 1}}, netrt.Options{Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	rt := rts[0]
	var delivered sync.Map
	rt.Handle(1, func(from int, payload any, size int) { delivered.Store(time.Now(), payload) })

	rt.SetDown(1, true)
	if !rt.Down(1) {
		t.Fatal("down flag lost")
	}
	if rt.Send(0, 1, runtime.ClassData, 0, wire.Heartbeat{Seq: 1}) {
		t.Fatal("send to down peer accepted")
	}
	rt.SetDown(0, true)
	rt.SetDown(1, false)
	if rt.Send(0, 1, runtime.ClassData, 0, wire.Heartbeat{Seq: 2}) {
		t.Fatal("send from down peer accepted")
	}
	rt.SetDown(0, false)
	rt.Shutdown()
	if rt.Send(0, 1, runtime.ClassData, 0, wire.Heartbeat{Seq: 3}) {
		t.Fatal("send accepted after shutdown")
	}
	if rt.Exec(0, func() {}) {
		t.Fatal("Exec accepted after shutdown")
	}
	rt.Shutdown() // idempotent
}

// Gossip must produce measured RTTs across runtimes (Vivaldi's input), and
// message echoes must measure passively once traffic flows both ways.
func TestRTTMeasurement(t *testing.T) {
	rts, _, err := netrt.NewGroup([][]int{{0}, {1}}, netrt.Options{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	a, b := rts[0], rts[1]
	defer a.Shutdown()
	defer b.Shutdown()

	if _, ok := a.Measured(0, 1); ok {
		t.Fatal("measurement before any traffic")
	}
	if a.Latency(0, 1) != time.Millisecond {
		t.Fatalf("default latency = %v", a.Latency(0, 1))
	}
	a.Gossip(3, 0, 20*time.Millisecond)
	d, ok := a.Measured(0, 1)
	if !ok {
		t.Fatal("Gossip produced no measurement")
	}
	if d <= 0 || d > 100*time.Millisecond {
		t.Fatalf("implausible loopback latency %v", d)
	}
	if a.Latency(0, 1) != d || a.Latency(1, 0) != d {
		t.Fatalf("Latency does not serve the measurement: %v vs %v", a.Latency(0, 1), d)
	}

	// Passive echo: traffic b->a then a->b gives b a measurement too.
	b.Handle(1, func(int, any, int) {})
	a.Handle(0, func(int, any, int) {})
	for i := 0; i < 5; i++ {
		b.Send(1, 0, runtime.ClassControl, 0, wire.Heartbeat{Seq: uint64(i + 1)})
		time.Sleep(5 * time.Millisecond)
		a.Send(0, 1, runtime.ClassControl, 0, wire.Heartbeat{Seq: uint64(i + 1)})
		time.Sleep(5 * time.Millisecond)
	}
	waitFor(t, 5*time.Second, func() bool {
		_, ok := b.Measured(1, 0)
		return ok
	})
}

// The RTT fields ride only where a sample needs them. Between two
// loopback runtimes: a peer's second frame to a remote within stampEvery
// carries the bare 3 B header (kind, from, to; indices under 128); a
// received stamp is echoed on exactly one frame back, so it is exactly one
// RTT sample; and a pair with traffic both ways every 100 ms tick still
// takes an RTT sample in each direction at least once per stampEvery plus
// ten ticks of slack. An exchange that overruns stampEvery (a loaded
// machine) skips rather than fails: a's stamp ages out and a new one is
// due, so the header sizes it pins no longer hold.
func TestHeaderStampsOncePerSecondAndEchoesOnce(t *testing.T) {
	rts, _, err := netrt.NewGroup([][]int{{0}, {1}}, netrt.Options{Seed: 47})
	if err != nil {
		t.Fatal(err)
	}
	a, b := rts[0], rts[1]
	defer a.Shutdown()
	defer b.Shutdown()
	var atA, atB atomic.Int64
	a.Handle(0, func(int, any, int) { atA.Add(1) })
	b.Handle(1, func(int, any, int) { atB.Add(1) })
	var w wire.Buffer
	if err := wire.EncodeMessage(&w, wire.Heartbeat{Seq: 1}); err != nil {
		t.Fatal(err)
	}
	frame := &runtime.Frame{Payload: wire.Heartbeat{Seq: 1}, Bytes: w.Bytes()}
	// header sends one frame and returns its header bytes: ClassBytes
	// counts header and body.
	header := func(rt *netrt.Runtime, from, to int) int {
		before, _ := rt.ClassBytes()
		if !rt.Send(from, to, runtime.ClassControl, w.Len(), frame) {
			t.Fatal("send refused")
		}
		after, _ := rt.ClassBytes()
		return int(after-before) - w.Len()
	}
	samples := func(rt *netrt.Runtime) uint64 { return rt.NetStats().RTTSamples }
	start := time.Now()
	fail := func(format string, args ...any) {
		t.Helper()
		if took := time.Since(start); took >= netrt.StampEvery {
			t.Skipf("the exchange took %v, past stampEvery: a's stamp aged out mid-test", took)
		}
		t.Fatalf(format, args...)
	}

	if h := header(a, 0, 1); h <= 3 {
		fail("a's first frame to b: %d B header, want a stamp on it", h)
	}
	if h := header(a, 0, 1); h != 3 {
		fail("a's second frame to b within the second: %d B header, want 3", h)
	}
	waitFor(t, 5*time.Second, func() bool { return atB.Load() == 2 })
	// b's first frame back carries its own stamp and the echo of a's.
	sa := samples(a)
	if h := header(b, 1, 0); h <= 3 {
		fail("b's first frame to a: %d B header, want a stamp and an echo", h)
	}
	waitFor(t, 5*time.Second, func() bool { return samples(a) == sa+1 })
	// a owes b's stamp: its next frame echoes it, the ones after carry none.
	sb := samples(b)
	if h := header(a, 0, 1); h <= 3 {
		fail("a's frame after b's stamp: %d B header, want the echo", h)
	}
	for i := 0; i < 2; i++ {
		if h := header(a, 0, 1); h != 3 {
			fail("a's frame %d after the echo: %d B header, want 3", i+2, h)
		}
	}
	waitFor(t, 5*time.Second, func() bool { return atB.Load() == 5 })
	if n := samples(b) - sb; n != 1 {
		fail("one echoed stamp gave b %d RTT samples, want 1", n)
	}

	// Traffic both ways every tick: no stampEvery plus ten ticks passes
	// without a sample on either side.
	const tick = 100 * time.Millisecond
	bound := netrt.StampEvery + 10*tick
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for _, s := range [][2]int{{0, 1}, {1, 0}} {
		rt := rts[s[0]]
		wg.Add(1)
		go func() {
			defer wg.Done()
			tk := time.NewTicker(tick)
			defer tk.Stop()
			for {
				select {
				case <-stop:
					return
				case <-tk.C:
					rt.Send(s[0], s[1], runtime.ClassControl, w.Len(), frame)
				}
			}
		}()
	}
	defer func() {
		close(stop)
		wg.Wait()
	}()
	last := [2]time.Time{time.Now(), time.Now()}
	seen := [2]uint64{samples(a), samples(b)}
	for end := time.Now().Add(2 * bound); time.Now().Before(end); time.Sleep(10 * time.Millisecond) {
		for i, rt := range rts {
			if n := samples(rt); n != seen[i] {
				seen[i], last[i] = n, time.Now()
			}
			if gap := time.Since(last[i]); gap > bound {
				t.Fatalf("peer %d took no RTT sample for %v with traffic both ways every %v", i, gap, tick)
			}
		}
	}
}

// gossipAll runs rounds of all-pairs gossip on every runtime at once: every
// process of a federation gossips, because a peer's coordinate is only
// fitted from RTTs its own process measures.
func gossipAll(rts []*netrt.Runtime, rounds int) {
	var wg sync.WaitGroup
	for _, rt := range rts {
		wg.Add(1)
		go func(rt *netrt.Runtime) {
			defer wg.Done()
			rt.Gossip(rounds, 0, 20*time.Millisecond)
		}(rt)
	}
	wg.Wait()
}

// runFederations starts sensors on every federation, watches the first
// federation's best root completeness of the "peers" query until it reaches
// target (or 12s pass), shuts everything down, and returns the best count
// seen.
func runFederations(feds []*federation.Federation, target int, shutdown func()) int {
	for i, fed := range feds {
		fed.StartSensors(500*time.Millisecond, func(peer int) tuple.Raw {
			return tuple.Raw{Vals: []float64{1}}
		}, rand.New(rand.NewSource(int64(100+i))))
	}
	deadline := time.Now().Add(12 * time.Second)
	for time.Now().Before(deadline) && feds[0].Ledger.Best("peers") != target {
		time.Sleep(100 * time.Millisecond)
	}
	shutdown()
	return feds[0].Ledger.Best("peers")
}

// The acceptance test: several netrt runtimes in one process — each
// hosting a peer range, every message crossing the kernel's UDP stack on
// loopback — run the default MSL count query end to end. The coordinator
// process plans and installs; the workers' operators arrive over the wire.
// Result completeness must reach the live-node count and match a simulator
// run of the same program.
func TestNetFederationMatchesSim(t *testing.T) {
	const peers = 12
	prog, err := msl.Parse("query peers as count() from sensors window time 1s slide 1s trees 4 bf 16")
	if err != nil {
		t.Fatal(err)
	}

	// --- netrt: three "processes" over loopback UDP ---
	rts, _, err := netrt.NewGroup([][]int{{0, 1, 2, 3}, {4, 5, 6, 7}, {8, 9, 10, 11}}, netrt.Options{Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	// Workers first: their handlers must exist before the coordinator's
	// install multicast lands.
	w1, err := federation.NewWorker(rts[1])
	if err != nil {
		t.Fatal(err)
	}
	w2, err := federation.NewWorker(rts[2])
	if err != nil {
		t.Fatal(err)
	}
	gossipAll(rts, 3) // latency-aware planning input
	coord, err := federation.NewRuntime(rts[0], prog, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	netBest := runFederations([]*federation.Federation{coord, w1, w2}, peers, func() {
		for _, rt := range rts {
			rt.Shutdown()
		}
	})
	sent, delivered, _ := rts[1].Stats()
	if sent == 0 || delivered == 0 {
		t.Fatalf("worker runtime moved no datagrams: sent=%d delivered=%d", sent, delivered)
	}

	// --- simrt: the same program on the deterministic simulator ---
	if simBest := simBaseline(t, prog, peers); netBest != simBest {
		t.Fatalf("netrt completeness %d != simulator completeness %d", netBest, simBest)
	}
}

// The multiplexed data path must be a drop-in: the same federation as
// TestNetFederationMatchesSim, but with peers sharing sockets (and so
// sharing trains), must still reach full completeness.
func TestMultiplexedCoalescedFederation(t *testing.T) {
	const peers = 12
	prog, err := msl.Parse("query peers as count() from sensors window time 1s slide 1s trees 4 bf 16")
	if err != nil {
		t.Fatal(err)
	}
	rts, _, err := netrt.NewGroup(
		[][]int{{0, 1, 2, 3}, {4, 5, 6, 7}, {8, 9, 10, 11}},
		netrt.Options{Seed: 42, PeersPerSocket: 2})
	if err != nil {
		t.Fatal(err)
	}
	for _, rt := range rts {
		if st := rt.NetStats(); st.Sockets != 2 {
			t.Fatalf("4 peers at 2 per socket bound %d sockets", st.Sockets)
		}
	}
	w1, err := federation.NewWorker(rts[1])
	if err != nil {
		t.Fatal(err)
	}
	w2, err := federation.NewWorker(rts[2])
	if err != nil {
		t.Fatal(err)
	}
	gossipAll(rts, 3)
	coord, err := federation.NewRuntime(rts[0], prog, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	best := runFederations([]*federation.Federation{coord, w1, w2}, peers, func() {
		for _, rt := range rts {
			rt.Shutdown()
		}
	})
	if best != peers {
		t.Fatalf("multiplexed+coalesced completeness %d of %d", best, peers)
	}
}

// The tentpole acceptance: a 1,000-peer federation on one machine over
// real sockets — two runtime "processes" of 500 peers each, 125 peers per
// socket — joins, installs, and reaches full completeness, with the trains
// a backlogged writer packs holding the datagram count under the frame
// count. No gossip runs (this test is about the sockets); planning falls
// back to the coordinator-local embedding over default latencies.
func TestThousandPeerMultiplexedFederation(t *testing.T) {
	if testing.Short() {
		t.Skip("1,000-peer federation run skipped in -short mode")
	}
	const peers = 1000
	prog, err := msl.Parse("query peers as count() from sensors window time 2s slide 2s trees 2 bf 32")
	if err != nil {
		t.Fatal(err)
	}
	ranges := make([][]int, 2)
	for p := 0; p < peers; p++ {
		ranges[p/(peers/2)] = append(ranges[p/(peers/2)], p)
	}
	rts, _, err := netrt.NewGroup(ranges, netrt.Options{
		Seed:           1009,
		PeersPerSocket: 125,
		ReadBuffer:     4 << 20,
	})
	if err != nil {
		t.Fatal(err)
	}
	if st := rts[0].NetStats(); st.Sockets != 4 {
		t.Fatalf("500 peers at 125 per socket bound %d sockets", st.Sockets)
	}
	worker, err := federation.NewWorker(rts[1])
	if err != nil {
		t.Fatal(err)
	}
	coord, err := federation.NewRuntime(rts[0], prog, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	best := 0
	coord.Fab.SubscribeAll(func(r mortar.Result) {
		mu.Lock()
		if r.Count > best {
			best = r.Count
		}
		mu.Unlock()
	})
	for i, fed := range []*federation.Federation{coord, worker} {
		fed.StartSensors(time.Second, func(peer int) tuple.Raw {
			return tuple.Raw{Vals: []float64{1}}
		}, rand.New(rand.NewSource(int64(100+i))))
	}
	deadline := time.Now().Add(90 * time.Second)
	for time.Now().Before(deadline) {
		mu.Lock()
		b := best
		mu.Unlock()
		if b == peers {
			break
		}
		time.Sleep(250 * time.Millisecond)
	}
	var sentTotal, datagrams, trains uint64
	for _, rt := range rts {
		sent, _, _ := rt.Stats()
		sentTotal += sent
		st := rt.NetStats()
		datagrams += st.Datagrams
		trains += st.Trains
	}
	for _, rt := range rts {
		rt.Shutdown()
	}
	mu.Lock()
	b := best
	mu.Unlock()
	if b != peers {
		t.Fatalf("1,000-peer federation reached completeness %d of %d", b, peers)
	}
	if trains == 0 {
		t.Fatal("no coalesced trains at 1,000-peer scale")
	}
	if datagrams >= sentTotal {
		t.Fatalf("coalescing ineffective: %d datagrams for %d frames", datagrams, sentTotal)
	}
}

// simBaseline runs the program on the deterministic simulator, over the
// paper's transit-stub topology, for as long as runFederations gives a
// socket run, and returns the completeness it reaches — the independent
// baseline socket runs are held to.
func simBaseline(t *testing.T, prog *msl.Program, peers int) int {
	t.Helper()
	rng := rand.New(rand.NewSource(1))
	sim := eventsim.New(42)
	rt := simrt.New(netem.New(sim, netem.GenerateTransitStub(netem.PaperTopology(peers), rng)))
	fed, err := federation.NewRuntime(rt, prog, rng)
	if err != nil {
		t.Fatal(err)
	}
	fed.StartSensors(500*time.Millisecond, func(peer int) tuple.Raw {
		return tuple.Raw{Vals: []float64{1}}
	}, rand.New(rand.NewSource(100)))
	sim.RunFor(12 * time.Second)
	rt.Shutdown()
	if best := fed.Ledger.Best("peers"); best != peers {
		t.Fatalf("simulator run reached completeness %d of %d", best, peers)
	}
	return peers
}

// The Vivaldi tentpole acceptance: a multi-runtime federation plans its
// trees from gossiped coordinates. Every "process" gossips concurrently —
// worker peers embed themselves from RTTs they measure, which the
// coordinator cannot — then the coordinator's view must cover all peers,
// the embedding must predict measured latency within tolerance, planning
// must consume the gossiped coordinates, and the run must reach the
// simulator's completeness baseline.
func TestVivaldiFederationPlansFromGossipedCoords(t *testing.T) {
	const peers = 12
	prog, err := msl.Parse("query peers as count() from sensors window time 1s slide 1s trees 4 bf 16")
	if err != nil {
		t.Fatal(err)
	}
	rts, _, err := netrt.NewGroup([][]int{{0, 1, 2, 3}, {4, 5, 6, 7}, {8, 9, 10, 11}}, netrt.Options{Seed: 17})
	if err != nil {
		t.Fatal(err)
	}
	// Workers before any traffic, so their handlers exist when the install
	// multicast lands.
	w1, err := federation.NewWorker(rts[1])
	if err != nil {
		t.Fatal(err)
	}
	w2, err := federation.NewWorker(rts[2])
	if err != nil {
		t.Fatal(err)
	}

	// Decentralized Vivaldi: all processes gossip concurrently, ten rounds
	// each (the prototype let Vivaldi run "for at least ten rounds before
	// interconnecting operators").
	gossipAll(rts, 10)

	_, _, known := rts[0].Coordinates()
	for p, k := range known {
		if !k {
			t.Fatalf("coordinator missing peer %d's coordinate after gossip", p)
		}
	}
	med, pairs := rts[0].CoordError()
	if pairs == 0 {
		t.Fatal("no (coordinate, measurement) pairs to judge convergence")
	}
	if med > 2.0 {
		t.Fatalf("median |coord dist - measured| = %.3fms over %d pairs; embedding did not converge", med, pairs)
	}

	coord, err := federation.NewRuntime(rts[0], prog, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	if !coord.PlannedFromCoords {
		t.Fatal("planning fell back to the coordinator-local embedding")
	}
	if _, ok := coord.Model.(plan.CoordModel); !ok {
		t.Fatalf("planning model is %T, want plan.CoordModel", coord.Model)
	}

	netBest := runFederations([]*federation.Federation{coord, w1, w2}, peers, func() {
		for _, rt := range rts {
			rt.Shutdown()
		}
	})
	if simBest := simBaseline(t, prog, peers); netBest != simBest {
		t.Fatalf("gossip-planned completeness %d != simulator completeness %d", netBest, simBest)
	}
}

// Every frame echoes the newest stamp it heard from its destination, and
// netrt's observe turns each echo into a Vivaldi update against the
// coordinate gossip cached. So once trees are wired, protocol traffic
// alone keeps fitting coordinates with no probe traffic at all:
// worker-side coordinates must keep being touched after gossip stops.
func TestProtocolTrafficMovesCoordinates(t *testing.T) {
	const peers = 6
	rts, _, err := netrt.NewGroup([][]int{{0, 1, 2}, {3, 4, 5}}, netrt.Options{Seed: 23})
	if err != nil {
		t.Fatal(err)
	}
	worker, err := federation.NewWorker(rts[1])
	if err != nil {
		t.Fatal(err)
	}
	_ = worker
	prog, err := msl.Parse("query peers as count() from sensors window time 500ms slide 500ms trees 2 bf 3")
	if err != nil {
		t.Fatal(err)
	}
	// One gossip round seeds remote coordinates; afterwards only protocol
	// traffic (heartbeats with HeartbeatPeriod 2s, envelopes, recon) flows.
	for _, rt := range rts {
		rt.Gossip(1, 0, 20*time.Millisecond)
	}
	if _, err := federation.NewRuntime(rts[0], prog, rand.New(rand.NewSource(3))); err != nil {
		t.Fatal(err)
	}
	before := make([]vivaldi.Coordinate, peers)
	cc, _, _ := rts[1].Coordinates()
	copy(before, cc)
	// Heartbeats flow every 2s once wiring lands, summaries every window;
	// require some worker-local coordinate to have moved — updates driven
	// purely by the echo samples protocol frames carry.
	deadline := time.Now().Add(10 * time.Second)
	moved := false
	for time.Now().Before(deadline) && !moved {
		time.Sleep(250 * time.Millisecond)
		now, _, _ := rts[1].Coordinates()
		for _, p := range []int{3, 4, 5} {
			if now[p].Dist(before[p]) > 0 {
				moved = true
				break
			}
		}
	}
	for _, rt := range rts {
		rt.Shutdown()
	}
	if !moved {
		t.Fatal("worker coordinates never moved after gossip stopped; protocol traffic's echo samples fit nothing")
	}
}

// Worker peers adopted over the wire must end up installed and wired: the
// install multicast and the topology service both work across sockets.
func TestInstallCrossesSockets(t *testing.T) {
	const peers = 6
	rts, _, err := netrt.NewGroup([][]int{{0, 1, 2}, {3, 4, 5}}, netrt.Options{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	worker, err := federation.NewWorker(rts[1])
	if err != nil {
		t.Fatal(err)
	}
	prog, err := msl.Parse("query peers as sum() from sensors window time 500ms slide 500ms trees 2 bf 3")
	if err != nil {
		t.Fatal(err)
	}
	coord, err := federation.NewRuntime(rts[0], prog, rand.New(rand.NewSource(2)))
	if err != nil {
		t.Fatal(err)
	}
	// Give the install multicast (and a topology fetch, if a chunk was
	// lost) time to land; peer-state inspection is quiescent-only, so the
	// checks run after shutdown.
	time.Sleep(2 * time.Second)
	for _, rt := range rts {
		rt.Shutdown()
	}
	// Post-shutdown state inspection is safe.
	if got, _ := coord.Fab.Counts("peers", wire.AllEpochs); got != 3 {
		t.Fatalf("coordinator hosts %d of its 3 peers' operators", got)
	}
	if got, _ := worker.Fab.Counts("peers", wire.AllEpochs); got != 3 {
		t.Fatalf("worker hosts %d of its 3 peers' operators", got)
	}
	if _, got := worker.Fab.Counts("peers", wire.AllEpochs); got != 3 {
		t.Fatalf("worker wired %d of its 3 operators", got)
	}
}

// A probe's coordinate is exactly vivaldi.Dims components and the error
// estimate. A probe of any other shape (a corrupt or hostile datagram) is
// dropped and counted before its coordinate is cached: caching a
// foreign-sized one would panic distance computations in CoordError and
// coordinate-based planning. The well-formed probe after them is read.
func TestForeignDimensionCoordinateRejected(t *testing.T) {
	rts, dir, err := netrt.NewGroup([][]int{{0}, {1}}, netrt.Options{Seed: 31})
	if err != nil {
		t.Fatal(err)
	}
	rt := rts[0]
	defer rt.Shutdown()
	defer rts[1].Shutdown()

	attacker, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	defer attacker.Close()
	dst, err := net.ResolveUDPAddr("udp", dir[0])
	if err != nil {
		t.Fatal(err)
	}
	good := probe(netrt.FramePing, 12345, []float64{1.5, 2.5, 3.5}, 0.3)
	for _, c := range []struct {
		name  string
		frame []byte
	}{
		{"2 components", probe(netrt.FramePing, 12345, []float64{1.5, 2.5}, 0.3)},
		{"4 components", probe(netrt.FramePing, 12345, []float64{1.5, 2.5, 3.5, 4.5}, 0.3)},
		{"one byte short", good[:len(good)-1]},
		{"one trailing byte", probe(netrt.FramePing, 12345, []float64{1.5, 2.5, 3.5}, 0.3, 0)},
	} {
		_, _, dropped := rt.Stats()
		if _, err := attacker.WriteToUDP(c.frame, dst); err != nil {
			t.Fatal(err)
		}
		waitFor(t, 5*time.Second, func() bool { _, _, d := rt.Stats(); return d > dropped })
		if _, _, known := rt.Coordinates(); known[1] {
			t.Fatalf("%s: coordinate cached", c.name)
		}
	}
	if _, err := attacker.WriteToUDP(good, dst); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 5*time.Second, func() bool { _, _, known := rt.Coordinates(); return known[1] })
	if coords, errs, _ := rt.Coordinates(); !slices.Equal(coords[1], vivaldi.Coordinate{1.5, 2.5, 3.5}) || errs[1] != 0.3 {
		t.Fatalf("well-formed probe cached %v err %v", coords[1], errs[1])
	}
	rt.Gossip(1, 0, 20*time.Millisecond)
	_, _ = rt.CoordError() // must not panic
}

// A peer this process holds down (a chaos kill) neither probes nor is
// probed: Gossip sends no ping from it or to it, so it takes no RTT
// sample, refits nothing, and no remote learns its coordinate from it;
// and a pong reaching it is dropped and counted, no sample either.
func TestDownPeerDoesNotProbe(t *testing.T) {
	rts, dir, err := netrt.NewGroup([][]int{{0}, {1}}, netrt.Options{Seed: 53})
	if err != nil {
		t.Fatal(err)
	}
	a, b := rts[0], rts[1]
	defer a.Shutdown()
	defer b.Shutdown()
	a.SetDown(0, true)
	b.SetDown(0, true)
	for _, rt := range rts {
		rt.Gossip(3, 0, 50*time.Millisecond)
	}
	for i, rt := range rts {
		if st := rt.NetStats(); st.Datagrams != 0 || st.RTTSamples != 0 {
			t.Fatalf("runtime %d holding peer 0 down wrote %d datagrams and took %d RTT samples", i, st.Datagrams, st.RTTSamples)
		}
	}
	if _, _, known := b.Coordinates(); known[0] {
		t.Fatal("peer 1 learned down peer 0's coordinate")
	}

	// A well-formed pong claiming to be from peer 1 reaches the down peer
	// 0: dropped until peer 0 is back up, then a sample.
	raw, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()
	dst, err := net.ResolveUDPAddr("udp", dir[0])
	if err != nil {
		t.Fatal(err)
	}
	pong := probe(netrt.FramePong, 1, []float64{1, 2, 3}, 0.5)
	_, _, dropped := a.Stats()
	if _, err := raw.WriteToUDP(pong, dst); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 5*time.Second, func() bool { _, _, d := a.Stats(); return d > dropped })
	if _, _, known := a.Coordinates(); known[1] || a.NetStats().RTTSamples != 0 {
		t.Fatal("down peer 0 took a pong's sample")
	}
	a.SetDown(0, false)
	if _, err := raw.WriteToUDP(pong, dst); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 5*time.Second, func() bool { return a.NetStats().RTTSamples == 1 })
}

// Gossip draws its probe targets afresh on every call, not only on every
// round of one call: a caller logging convergence between single-round
// calls (mortard's coordinator) must reach new peers each time, or its
// bounded fan-out never covers the federation.
func TestGossipDrawsFreshTargets(t *testing.T) {
	const peers = 32
	ranges := make([][]int, 2)
	for p := 0; p < peers; p++ {
		ranges[p/(peers/2)] = append(ranges[p/(peers/2)], p)
	}
	rts, _, err := netrt.NewGroup(ranges, netrt.Options{Seed: 61, PeersPerSocket: 4})
	if err != nil {
		t.Fatal(err)
	}
	rt := rts[0] // hosts half; the other half only answers
	defer rt.Shutdown()
	defer rts[1].Shutdown()

	rt.Gossip(1, 1, 50*time.Millisecond)
	_, once := rt.CoordError()
	rt.Gossip(1, 1, 50*time.Millisecond)
	_, twice := rt.CoordError()
	if once == 0 || twice <= once {
		t.Fatalf("measured pairs after one fan-out-1 call = %d, after two = %d: the second call pinged the first one's targets", once, twice)
	}

	for round := 0; round < 10; round++ {
		rt.Gossip(1, 4, 20*time.Millisecond)
	}
	_, _, known := rt.Coordinates()
	for p, k := range known {
		if !k {
			t.Fatalf("ten fan-out-4 calls from %d local peers never reached peer %d", peers/2, p)
		}
	}
}

// A gossip round costs its fan-out, not the federation size: a process
// hosting one of 10,000 peers allocates under a tenth of one n-int
// permutation per fan-out-3 round.
func TestGossipRoundCostsItsFanout(t *testing.T) {
	const peers, rounds = 10000, 100
	sink, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	defer sink.Close()
	dir := make([]string, peers)
	dir[0] = "127.0.0.1:0"
	for p := 1; p < peers; p++ {
		dir[p] = sink.LocalAddr().String()
	}
	rt, err := netrt.New(dir, []int{0}, netrt.Options{Seed: 79})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Shutdown()

	rt.Gossip(1, 3, 0) // warm the buffer pools
	var before, after goruntime.MemStats
	goruntime.ReadMemStats(&before)
	for i := 0; i < rounds; i++ {
		rt.Gossip(1, 3, 0)
	}
	goruntime.ReadMemStats(&after)
	if perRound, limit := (after.TotalAlloc-before.TotalAlloc)/rounds, uint64(peers*8/10); perRound >= limit {
		t.Fatalf("a fan-out-3 gossip round allocates %d B at %d peers, want under %d", perRound, peers, limit)
	}
}

// Every process is fitted before anyone plans. Two runtimes of four peers
// over a 2-14 ms topology are driven as mortard drives a coordinator and a
// worker: both run ten rounds at fan-out 16 side by side, the worker in the
// background and dropping to its slow pace afterwards. Once the
// coordinator's rounds are done no peer, seen from either side, still
// carries the error estimate 1.0 a coordinate is constructed with, and both
// embeddings predict their own measurements. (A coordinator that probes
// alone — silent workers, as a default mortard run was before every process
// gossiped — hears a coordinate from all four worker peers, so planning
// takes the gossiped path, and every one of them is the random initial
// position at error 1.0.)
func TestEveryProcessFittedBeforePlanning(t *testing.T) {
	const peers = 8
	delay := func(a, b int) time.Duration { // peers on a line, 2 ms apart per step
		if a > b {
			a, b = b, a
		}
		return time.Duration(b-a) * 2 * time.Millisecond
	}
	rts, _, err := netrt.NewGroup([][]int{{0, 1, 2, 3}, {4, 5, 6, 7}}, netrt.Options{Seed: 67, PairDelay: delay})
	if err != nil {
		t.Fatal(err)
	}
	coord, worker := rts[0], rts[1]
	var wg sync.WaitGroup
	defer func() {
		coord.Shutdown()
		worker.Shutdown() // ends the background gossip
		wg.Wait()
	}()

	wg.Add(1)
	go func() {
		defer wg.Done()
		worker.Gossip(10, 16, 100*time.Millisecond)
		worker.Gossip(1<<20, 3, 500*time.Millisecond)
	}()
	for round := 0; round < 10; round++ {
		coord.Gossip(1, 16, 100*time.Millisecond)
	}

	for name, rt := range map[string]*netrt.Runtime{"coordinator": coord, "worker": worker} {
		_, errs, known := rt.Coordinates()
		for p := 0; p < peers; p++ {
			if !known[p] || errs[p] == 1.0 {
				t.Errorf("%s: peer %d known=%v error=%v — never fitted", name, p, known[p], errs[p])
			}
		}
		if med, pairs := rt.CoordError(); pairs == 0 || med > 2.0 {
			t.Errorf("%s: median |coord dist - measured| = %.3fms over %d pairs", name, med, pairs)
		}
	}
}
