package netrt_test

import (
	"bytes"
	"math/rand"
	goruntime "runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/mortar"
	"repro/internal/runtime"
	"repro/internal/runtime/netrt"
	"repro/internal/tuple"
	"repro/internal/wire"
)

// SplitFragments must partition any payload exactly, and the Reassembler
// must rebuild it from fragments arriving in any order.
func TestSplitReassembleRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	ra := netrt.NewReassembler(256)
	now := time.Now()
	for _, size := range []int{1, 63, 64, 65, 4096, 100_000} {
		payload := make([]byte, size)
		rng.Read(payload)
		frags := netrt.SplitFragments(42, payload, 64)
		perm := rng.Perm(len(frags))
		var got []byte
		for i, pi := range perm {
			msg, _, err := ra.Add(3, frags[pi], now)
			if err != nil {
				t.Fatal(err)
			}
			if i < len(perm)-1 {
				if msg != nil {
					t.Fatalf("size %d: frame completed after %d of %d fragments", size, i+1, len(frags))
				}
			} else {
				got = msg
			}
		}
		if !bytes.Equal(got, payload) {
			t.Fatalf("size %d: reassembly mismatch", size)
		}
		if ra.Bytes() != 0 || ra.Streams() != 0 {
			t.Fatalf("size %d: reassembler retains %d bytes / %d streams after completion", size, ra.Bytes(), ra.Streams())
		}
	}
}

// A repaired frame dates from its first fragment: the receive path stamps
// the frame's send time one flight before that arrival, so the NACK round
// that brought the missing fragment counts as flight, not as age the
// frame never had.
func TestReassemblerReportsFirstArrival(t *testing.T) {
	ra := netrt.NewReassembler(256)
	frags := netrt.SplitFragments(5, bytes.Repeat([]byte{7}, 200), 64)
	if len(frags) < 3 {
		t.Fatalf("%d fragments, want at least 3", len(frags))
	}
	t0 := time.Now()
	for i, f := range frags[1:] { // the first fragment is lost
		if msg, _, err := ra.Add(2, f, t0.Add(time.Duration(i)*time.Millisecond)); err != nil || msg != nil {
			t.Fatalf("fragment %d: msg %v, err %v; want a partial stream", f.Index, msg != nil, err)
		}
	}
	msg, first, err := ra.Add(2, frags[0], t0.Add(netrt.NackDelay+5*time.Millisecond))
	if err != nil || len(msg) != 200 {
		t.Fatalf("repair: %d bytes, err %v; want the 200-byte frame", len(msg), err)
	}
	if !first.Equal(t0) {
		t.Fatalf("first arrival %v after the train's first datagram, want 0", first.Sub(t0))
	}
}

// On a shared socket one reassembler serves fragment streams from many
// senders at once, their fragments interleaving arbitrarily. Every stream
// must rebuild exactly (no cross-stream or cross-sender bleed), memory
// must stay within the configured bound throughout, and completion must
// drain the reassembler back to empty.
func TestReassemblerInterleavedSenders(t *testing.T) {
	const (
		senders    = 16
		perSender  = 3 // concurrent streams per sender
		payloadLen = 4096
		fragSize   = 256
	)
	rng := rand.New(rand.NewSource(77))
	ra := netrt.NewReassembler(256)
	type key struct{ src, stream int }
	payloads := map[key][]byte{}
	type step struct {
		src  int
		frag wire.Fragment
	}
	var steps []step
	for src := 0; src < senders; src++ {
		for s := 0; s < perSender; s++ {
			// Distinct per-stream pattern: any cross-stream byte bleed
			// breaks the equality check below.
			payload := make([]byte, payloadLen)
			for i := range payload {
				payload[i] = byte(src*31 + s*7 + i)
			}
			payloads[key{src, s}] = payload
			for _, f := range netrt.SplitFragments(uint64(s), payload, fragSize) {
				steps = append(steps, step{src: src, frag: f})
			}
		}
	}
	rng.Shuffle(len(steps), func(i, j int) { steps[i], steps[j] = steps[j], steps[i] })
	now := time.Now()
	done := map[key][]byte{}
	for _, st := range steps {
		msg, _, err := ra.Add(st.src, st.frag, now)
		if err != nil {
			t.Fatal(err)
		}
		if ra.Bytes() > netrt.MaxReasmBytes {
			t.Fatalf("reassembler holds %d bytes, bound %d", ra.Bytes(), netrt.MaxReasmBytes)
		}
		if msg != nil {
			done[key{st.src, int(st.frag.Stream)}] = msg
		}
	}
	if len(done) != senders*perSender {
		t.Fatalf("completed %d of %d interleaved streams", len(done), senders*perSender)
	}
	for k, want := range payloads {
		if !bytes.Equal(done[k], want) {
			t.Fatalf("stream %v reassembled corrupted", k)
		}
	}
	if ra.Bytes() != 0 || ra.Streams() != 0 {
		t.Fatalf("reassembler retains %d bytes / %d streams after all completions", ra.Bytes(), ra.Streams())
	}
}

// The reassembler's memory must stay bounded no matter how many partial
// streams a (lossy or hostile) sender opens, and stale streams must be
// evicted back to zero — the bounded-memory acceptance criterion.
func TestReassemblerBoundedAndEvictsStaleStreams(t *testing.T) {
	ra := netrt.NewReassembler(256)
	base := time.Now()
	payload := make([]byte, 1024)
	// 100 streams from 5 senders, each missing fragment 1 of 4 — none can
	// ever complete.
	for s := 0; s < 100; s++ {
		now := base.Add(time.Duration(s) * time.Millisecond)
		for _, idx := range []uint32{0, 2, 3} {
			f := wire.Fragment{Stream: uint64(s), Index: idx, Count: 4, Payload: payload}
			if _, _, err := ra.Add(s%5, f, now); err != nil {
				t.Fatal(err)
			}
			if ra.Bytes() > netrt.MaxReasmBytes {
				t.Fatalf("reassembly memory %d exceeds the %d bound", ra.Bytes(), netrt.MaxReasmBytes)
			}
			if ra.Streams() > netrt.MaxReasmStreams {
				t.Fatalf("%d concurrent streams exceed the %d bound", ra.Streams(), netrt.MaxReasmStreams)
			}
		}
	}
	if ra.Streams() == 0 {
		t.Fatal("no partial streams held at all")
	}
	// Quiet streams ask for repair, naming exactly the missing fragment.
	reqs := ra.Sweep(base.Add(100*time.Millisecond + netrt.NackDelay))
	if len(reqs) == 0 {
		t.Fatal("no NACKs for incomplete streams")
	}
	for _, req := range reqs {
		if len(req.Missing) != 1 || req.Missing[0] != 1 {
			t.Fatalf("stream %d: missing = %v, want [1]", req.Stream, req.Missing)
		}
	}
	// Once stale, everything is evicted and the memory drains to zero.
	ra.Sweep(base.Add(time.Hour))
	if ra.Bytes() != 0 || ra.Streams() != 0 {
		t.Fatalf("stale eviction left %d bytes / %d streams", ra.Bytes(), ra.Streams())
	}
	if _, evicted := ra.Stats(); evicted != 100 {
		t.Fatalf("evicted %d streams, want all 100", evicted)
	}
}

// The total-bytes bound must hold while existing streams grow, not only
// at stream creation: many tiny streams each swelling toward the frame
// bound would otherwise pin 64 × 4 MB of memory.
func TestReassemblerBoundsStreamGrowth(t *testing.T) {
	ra := netrt.NewReassembler(256)
	now := time.Now()
	payload := make([]byte, netrt.MaxMessage/32) // shared: the test itself holds 128 KB
	// 16 streams open with a one-byte fragment each, then grow round-robin
	// toward the frame bound without ever completing (index 31 never
	// arrives).
	for s := 0; s < 16; s++ {
		f := wire.Fragment{Stream: uint64(s), Index: 0, Count: 32, Payload: []byte{1}}
		if _, _, err := ra.Add(s%4, f, now); err != nil {
			t.Fatal(err)
		}
	}
	for i := 1; i < 31; i++ {
		for s := 0; s < 16; s++ {
			f := wire.Fragment{Stream: uint64(s), Index: uint32(i), Count: 32, Payload: payload}
			if _, _, err := ra.Add(s%4, f, now.Add(time.Duration(i)*time.Millisecond)); err != nil {
				t.Fatal(err)
			}
			if ra.Bytes() > netrt.MaxReasmBytes {
				t.Fatalf("stream growth pushed reassembly memory to %d, over the %d bound", ra.Bytes(), netrt.MaxReasmBytes)
			}
		}
	}
	if _, evicted := ra.Stats(); evicted == 0 {
		t.Fatal("62 MB of growth against an 8 MB bound evicted nothing")
	}
}

// A stream's part slots are allocated when its first fragment lands, before
// any payload, so they must count toward the memory bound. One-byte
// fragments that each announce the largest acceptable count would
// otherwise pin 1.5 MB of slots apiece while Bytes reported one byte.
func TestReassemblerBoundsForgedCountSlots(t *testing.T) {
	const count = netrt.MaxMessage/64 + 1 // the largest count Add accepts
	var before, after goruntime.MemStats
	goruntime.GC()
	goruntime.ReadMemStats(&before)
	ra := netrt.NewReassembler(256)
	now := time.Now()
	for s := 0; s < netrt.MaxReasmStreams; s++ {
		f := wire.Fragment{Stream: uint64(s), Index: 0, Count: count, Payload: []byte{1}}
		if _, _, err := ra.Add(7, f, now.Add(time.Duration(s)*time.Millisecond)); err != nil {
			t.Fatal(err)
		}
		if ra.Bytes() > netrt.MaxReasmBytes {
			t.Fatalf("after %d streams the reassembler reports %d bytes, over the %d bound", s+1, ra.Bytes(), netrt.MaxReasmBytes)
		}
	}
	goruntime.GC()
	goruntime.ReadMemStats(&after)
	goruntime.KeepAlive(ra)
	// The bound plus half again for everything else the heap does meanwhile;
	// uncounted slots would pin 64 × 1.5 MB.
	if grew := int64(after.HeapAlloc) - int64(before.HeapAlloc); grew > netrt.MaxReasmBytes*3/2 {
		t.Fatalf("%d forged one-byte fragments grew the heap by %.1f MB, over 1.5 × the %d MB bound (Bytes reports %d)",
			netrt.MaxReasmStreams, float64(grew)/(1<<20), netrt.MaxReasmBytes>>20, ra.Bytes())
	}
}

// A forged fragment count must be rejected before it can size a huge
// reassembly buffer.
func TestReassemblerRejectsForgedCount(t *testing.T) {
	ra := netrt.NewReassembler(256)
	f := wire.Fragment{Stream: 1, Index: 0, Count: 1 << 30, Payload: []byte("x")}
	if _, _, err := ra.Add(0, f, time.Now()); err == nil {
		t.Fatal("forged count accepted")
	}
	if ra.Streams() != 0 {
		t.Fatal("forged stream retained")
	}
}

// A frame far larger than one datagram must cross loopback sockets intact
// under simulated datagram loss: fragments drop, NACKs request repair, the
// retransmit buffer serves it, and the receiver hands up the reassembled
// message.
func TestLargeFrameSurvivesLoss(t *testing.T) {
	rts, _, err := netrt.NewGroup([][]int{{0}, {1}}, netrt.Options{Seed: 5, MTU: 512})
	if err != nil {
		t.Fatal(err)
	}
	a, b := rts[0], rts[1]
	defer a.Shutdown()
	defer b.Shutdown()
	a.SetLoss(0.10)
	b.SetLoss(0.10)

	vals := make([]float64, 40_000) // ~320 KB encoded
	for i := range vals {
		vals[i] = float64(i)
	}
	env := &wire.Envelope{S: tuple.Summary{Query: "big", Value: vals, Count: 1}}
	var w wire.Buffer
	if err := wire.EncodeMessage(&w, env); err != nil {
		t.Fatal(err)
	}

	var mu sync.Mutex
	var got *wire.Envelope
	b.Handle(1, func(from int, payload any, size int) {
		if e, ok := payload.(*wire.Envelope); ok {
			mu.Lock()
			got = e
			mu.Unlock()
		}
	})
	if !a.Send(0, 1, runtime.ClassData, w.Len(), &runtime.Frame{Payload: env, Bytes: w.Bytes()}) {
		t.Fatal("send refused")
	}
	waitFor(t, 20*time.Second, func() bool {
		mu.Lock()
		defer mu.Unlock()
		return got != nil
	})
	mu.Lock()
	rv := got.S.Value.([]float64)
	mu.Unlock()
	if len(rv) != len(vals) || rv[0] != 0 || rv[len(rv)-1] != float64(len(vals)-1) {
		t.Fatalf("reassembled envelope corrupt: %d values", len(rv))
	}
	fs := a.FragStats()
	if fs.StreamsSent != 1 {
		t.Fatalf("sender fragmented %d streams, want 1", fs.StreamsSent)
	}
	if fs.Retransmits == 0 {
		t.Fatal("10%% loss over hundreds of fragments produced no retransmissions")
	}
	if rb := b.FragStats(); rb.Reassembled != 1 || rb.NacksSent == 0 {
		t.Fatalf("receiver reassembled=%d nacks=%d", rb.Reassembled, rb.NacksSent)
	}
}

// Duplication is rolled once per frame, so a control frame over the MTU is
// sent as two whole trains and reassembled and delivered twice, and a data
// frame over the MTU once.
func TestDuplicatedFrameOverTheMTU(t *testing.T) {
	rts, _, err := netrt.NewGroup([][]int{{0, 1}}, netrt.Options{Seed: 6, MTU: 512})
	if err != nil {
		t.Fatal(err)
	}
	rt := rts[0]
	defer rt.Shutdown()
	rt.SetCtrlDup(1)
	env := &wire.Envelope{S: tuple.Summary{Query: "big", Value: make([]float64, 1000), Count: 1}}
	var w wire.Buffer
	if err := wire.EncodeMessage(&w, env); err != nil {
		t.Fatal(err)
	}
	var got [2]atomic.Int64 // by class
	for class := range got {
		rt.Handle(1, func(from int, payload any, size int) { got[class].Add(1) })
		if !rt.Send(0, 1, runtime.Class(class), w.Len(), &runtime.Frame{Payload: env, Bytes: w.Bytes()}) {
			t.Fatal("send refused")
		}
		want := int64(1 + class) // runtime.ClassControl == 1
		waitFor(t, 5*time.Second, func() bool { return got[class].Load() == want })
	}
	time.Sleep(50 * time.Millisecond)
	if d, c := got[runtime.ClassData].Load(), got[runtime.ClassControl].Load(); d != 1 || c != 2 {
		t.Fatalf("data frame delivered %d times, control frame %d; want 1 and 2", d, c)
	}
	if st, fs := rt.NetStats(), rt.FragStats(); st.Duplicated != 1 || fs.StreamsSent != 2 || fs.Reassembled != 3 {
		t.Fatalf("duplicated=%d streams=%d reassembled=%d; want 1, 2 and 3", st.Duplicated, fs.StreamsSent, fs.Reassembled)
	}
}

// The tentpole acceptance test: a three-"process" loopback federation
// installs a query whose encoded install message is more than 3× the
// configured MTU, under 10% simulated datagram loss on every datagram, and
// still reaches full completeness — the simulator's baseline, where every
// live peer's sensor reaches the window (simBaseline pins that at the
// federation size). A fat query name rides in the install metadata only —
// a summary names its operator by the install's Seq — so the install
// multicast, heartbeats and reconciliation fragment while every summary
// travels in one datagram: the shape any long-named query has.
func TestLargeInstallUnderLossReachesCompleteness(t *testing.T) {
	largeInstallUnderLoss(t, mortar.QueryMeta{
		Name:   "big-" + strings.Repeat("q", 2000),
		Seq:    1,
		OpName: "count",
		Window: tuple.WindowSpec{Kind: tuple.TimeWindow, Range: 500 * time.Millisecond, Slide: 500 * time.Millisecond},
		Root:   0,
	}, "")
}

// TestFatSummariesUnderLossReachCompleteness is the same federation with
// the data plane fragmenting too: each sensor's raw carries a fat key and
// every window's top-1 entry is that key, so every summary envelope is a
// fragment train as well as every install message.
func TestFatSummariesUnderLossReachCompleteness(t *testing.T) {
	largeInstallUnderLoss(t, mortar.QueryMeta{
		Name:   "big-" + strings.Repeat("q", 2000),
		Seq:    1,
		OpName: "topk",
		OpArgs: []string{"1", "0"},
		Window: tuple.WindowSpec{Kind: tuple.TimeWindow, Range: 500 * time.Millisecond, Slide: 500 * time.Millisecond},
		Root:   0,
	}, strings.Repeat("k", 2000))
}

// largeInstallUnderLoss installs meta over nine peers in three netrt
// runtimes (MTU 512, 10 % loss), feeds every peer's sensor one raw keyed
// key each 500 ms, and requires a result counting all nine peers, none
// counting more until 3 s after the first full one, a fragment train
// longer than 3 MTUs, and at least one NACK repair.
func largeInstallUnderLoss(t *testing.T, meta mortar.QueryMeta, key string) {
	const (
		peers = 9
		mtu   = 512
	)
	rts, _, err := netrt.NewGroup([][]int{{0, 1, 2}, {3, 4, 5}, {6, 7, 8}}, netrt.Options{Seed: 99, MTU: mtu})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		for _, rt := range rts {
			rt.Shutdown()
		}
	}()
	for _, rt := range rts {
		rt.SetLoss(0.10)
	}

	cfg := mortar.DefaultConfig()
	cfg.HeartbeatPeriod = 500 * time.Millisecond
	// The acceptance bound: even an empty install chunk of this query is
	// bigger than 3 MTUs, so every install message must fragment.
	var iw wire.Buffer
	if err := wire.EncodeMessage(&iw, wire.Install{Meta: meta}); err != nil {
		t.Fatal(err)
	}
	if iw.Len() <= 3*mtu {
		t.Fatalf("install message is %d bytes, want > %d", iw.Len(), 3*mtu)
	}

	// Worker fabrics first, so handlers exist when the multicast lands.
	fabs := make([]*mortar.Fabric, len(rts))
	for i := len(rts) - 1; i >= 0; i-- {
		fab, err := mortar.NewFabric(rts[i], cfg)
		if err != nil {
			t.Fatal(err)
		}
		fabs[i] = fab
	}
	coord := fabs[0]

	rng := rand.New(rand.NewSource(1))
	coords := make([]cluster.Point, peers)
	for i := range coords {
		coords[i] = cluster.Point{rng.Float64() * 100, rng.Float64() * 100}
	}
	def, err := coord.Compile(meta, nil, coords, 2, 2)
	if err != nil {
		t.Fatal(err)
	}

	var mu sync.Mutex
	best := 0
	coord.SubscribeAll(func(r mortar.Result) {
		mu.Lock()
		if r.Count > best {
			best = r.Count
		}
		mu.Unlock()
	})
	if err := coord.Install(0, def); err != nil {
		t.Fatal(err)
	}
	// Sensors on every process's local peers.
	for gi, rt := range rts {
		fab := fabs[gi]
		for p := 0; p < peers; p++ {
			if !runtime.IsLocal(rt, p) {
				continue
			}
			p := p
			ck := rt.Clock(p)
			ck.After(time.Duration(rng.Int63n(int64(250*time.Millisecond))), func() {
				ck.Every(500*time.Millisecond, func() {
					fab.Inject(p, tuple.Raw{Key: key, Vals: []float64{1}})
				})
			})
		}
	}

	deadline := time.Now().Add(25 * time.Second)
	for time.Now().Before(deadline) {
		mu.Lock()
		b := best
		mu.Unlock()
		if b == peers {
			break
		}
		time.Sleep(100 * time.Millisecond)
	}
	// A few windows more: a member counted twice — one source's two slides
	// re-indexed into one window where two peers' frames disagree — would
	// read above the baseline.
	time.Sleep(3 * time.Second)
	mu.Lock()
	got := best
	mu.Unlock()
	if got != peers {
		t.Fatalf("completeness %d, want the simulator-level baseline %d", got, peers)
	}

	fs := rts[0].FragStats()
	if fs.StreamsSent == 0 {
		t.Fatal("coordinator never fragmented a frame")
	}
	// The longest train proves a frame bigger than 3 MTUs crossed the wire.
	if fs.MaxStreamFrags*uint64(mtu-64) <= 3*mtu {
		t.Fatalf("longest fragment train %d × %d payload bytes does not exceed 3×MTU", fs.MaxStreamFrags, mtu-64)
	}
	var retrans uint64
	for _, rt := range rts {
		retrans += rt.FragStats().Retransmits
	}
	if retrans == 0 {
		t.Fatal("10%% loss never exercised NACK retransmission")
	}
}

// FuzzReassembler feeds arbitrary fragment sequences from four sources,
// sweeping at arbitrary times. The input is a list of steps. A step whose
// first byte has the high bit set advances the clock by its low seven bits
// × 50 ms and sweeps. Any other step is one fragment: the byte's low two
// bits name the source and the next five bits the stream, then come a
// count byte (0xFE: a uint16 count follows; 0xFF: a count past the frame
// bound), a uint16 index (taken modulo count+1, so index == count occurs),
// a payload length byte and the payload. A fragment's payload is fixed the
// first time its (source, stream, index) is sent, as a sender's train is,
// so a completed frame must equal the concatenation of those payloads.
// After every call the memory and stream bounds hold, and an empty
// reassembler holds no bytes.
func FuzzReassembler(f *testing.F) {
	frag := func(src, stream int, count, index uint16, payload []byte) []byte {
		b := []byte{byte(src | stream<<2), byte(count)}
		if count >= 0xFE {
			b = append(b[:1], 0xFE, byte(count), byte(count>>8))
		}
		b = append(b, byte(index), byte(index>>8), byte(len(payload)))
		return append(b, payload...)
	}
	sweep := func(steps byte) []byte { return []byte{0x80 | steps} }
	var honest []byte // two trains interleaved, one of them backwards
	train := netrt.SplitFragments(0, []byte("a frame split into five fragments"), 7)
	for i, p := range train {
		q := train[len(train)-1-i]
		honest = append(honest, frag(0, 1, uint16(p.Count), uint16(p.Index), p.Payload)...)
		honest = append(honest, frag(1, 2, uint16(q.Count), uint16(q.Index), q.Payload)...)
	}
	f.Add(honest)
	f.Add(append(append(frag(1, 3, 4, 0, []byte("x")), sweep(1)...), append(frag(1, 3, 4, 2, []byte("y")), sweep(100)...)...))
	var forged []byte // eight streams announcing 65,535 fragments, then a count past the bound
	for s := 0; s < 8; s++ {
		forged = append(forged, frag(s%4, s, 0xFFFF, 0, []byte{1})...)
	}
	f.Add(append(forged, 0, 0xFF, 0, 0, 1, 1))
	f.Add(append(frag(2, 5, 3, 1, []byte("ab")), frag(2, 5, 4, 1, []byte("ab"))...))
	var full []byte // part slots fill the bound to 2 bytes, then a stream grows
	for s, count := range []uint16{0xFFFF, 0xFFFF, 0xFFFF, 0xFFFF, 0xFFFF, 21850} {
		full = append(full, frag(0, s, count, 0, []byte{1})...)
	}
	f.Add(append(full, frag(0, 0, 0xFFFF, 1, []byte("grows past the bound"))...))
	var every []byte // one partial stream on each of the 128 keys
	for k := 0; k < 128; k++ {
		every = append(every, frag(k&3, k>>2, 2, 0, []byte{byte(k)})...)
	}
	f.Add(every)

	f.Fuzz(func(t *testing.T, in []byte) {
		take := func(n int) []byte {
			n = min(n, len(in))
			b := in[:n:n]
			in = in[n:]
			return b
		}
		u8 := func() byte {
			if b := take(1); len(b) == 1 {
				return b[0]
			}
			return 0
		}
		u16 := func() uint32 { return uint32(u8()) | uint32(u8())<<8 }
		type partKey struct {
			src    int
			stream uint64
			index  uint32
		}
		sent := map[partKey][]byte{}
		ra := netrt.NewReassembler(256)
		now := time.Unix(0, 0)
		check := func(call string) {
			if b, n := ra.Bytes(), ra.Streams(); b > netrt.MaxReasmBytes || n > netrt.MaxReasmStreams || b < 0 || (n == 0 && b != 0) {
				t.Fatalf("after %s: %d bytes in %d streams, bounds %d and %d", call, b, n, netrt.MaxReasmBytes, netrt.MaxReasmStreams)
			}
		}
		for len(in) > 0 {
			op := u8()
			if op&0x80 != 0 {
				now = now.Add(time.Duration(op&0x7f) * 50 * time.Millisecond)
				for _, req := range ra.Sweep(now) {
					if len(req.Missing) == 0 || len(req.Missing) > 256 {
						t.Fatalf("NACK names %d missing fragments", len(req.Missing))
					}
				}
				check("Sweep")
				continue
			}
			src, stream := int(op&3), uint64(op>>2&31)
			count := uint32(u8())
			switch count {
			case 0xFE:
				count = u16()
			case 0xFF:
				count = 1 << 30
			}
			index := u16() % (count + 1)
			payload := append([]byte(nil), take(int(u8()))...)
			key := partKey{src, stream, index}
			if p, ok := sent[key]; ok {
				payload = p
			} else {
				sent[key] = payload
			}
			now = now.Add(time.Millisecond)
			msg, _, err := ra.Add(src, wire.Fragment{Stream: stream, Index: index, Count: count, Payload: payload}, now)
			check("Add")
			if err != nil || msg == nil {
				continue
			}
			var want []byte
			for i := uint32(0); i < count; i++ {
				want = append(want, sent[partKey{src, stream, i}]...)
			}
			if !bytes.Equal(msg, want) {
				t.Fatalf("source %d stream %d completed as %q, want %q", src, stream, msg, want)
			}
		}
	})
}
