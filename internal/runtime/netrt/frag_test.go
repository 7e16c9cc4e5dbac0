package netrt_test

import (
	"bytes"
	"math/rand"
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
	ra := netrt.NewReassembler(netrt.ReasmOptions{})
	now := time.Now()
	for _, size := range []int{1, 63, 64, 65, 4096, 100_000} {
		payload := make([]byte, size)
		rng.Read(payload)
		frags := netrt.SplitFragments(42, payload, 64)
		perm := rng.Perm(len(frags))
		var got []byte
		for i, pi := range perm {
			msg, err := ra.Add(3, frags[pi], now)
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
	maxBytes := senders * perSender * payloadLen * 2
	ra := netrt.NewReassembler(netrt.ReasmOptions{
		MaxMessage: 1 << 20,
		MaxBytes:   maxBytes,
		MaxStreams: senders * perSender,
	})
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
		msg, err := ra.Add(st.src, st.frag, now)
		if err != nil {
			t.Fatal(err)
		}
		if ra.Bytes() > maxBytes {
			t.Fatalf("reassembler holds %d bytes, bound %d", ra.Bytes(), maxBytes)
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
	const (
		maxBytes   = 64 << 10
		maxStreams = 8
	)
	ra := netrt.NewReassembler(netrt.ReasmOptions{
		MaxMessage: 1 << 20,
		MaxBytes:   maxBytes,
		MaxStreams: maxStreams,
		StaleAfter: 100 * time.Millisecond,
		NackDelay:  10 * time.Millisecond,
		MaxNacks:   3,
	})
	base := time.Now()
	payload := make([]byte, 1024)
	// 100 streams from 5 senders, each missing fragment 1 of 4 — none can
	// ever complete.
	for s := 0; s < 100; s++ {
		now := base.Add(time.Duration(s) * time.Millisecond)
		for _, idx := range []uint32{0, 2, 3} {
			f := wire.Fragment{Stream: uint64(s), Index: idx, Count: 4, Payload: payload}
			if _, err := ra.Add(s%5, f, now); err != nil {
				t.Fatal(err)
			}
			if ra.Bytes() > maxBytes {
				t.Fatalf("reassembly memory %d exceeds the %d bound", ra.Bytes(), maxBytes)
			}
			if ra.Streams() > maxStreams {
				t.Fatalf("%d concurrent streams exceed the %d bound", ra.Streams(), maxStreams)
			}
		}
	}
	if ra.Streams() == 0 {
		t.Fatal("no partial streams held at all")
	}
	// Quiet streams ask for repair, naming exactly the missing fragment.
	reqs := ra.Sweep(base.Add(150 * time.Millisecond))
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
	if _, evicted := ra.Stats(); evicted < 92 {
		t.Fatalf("evicted %d streams, want >= 92", evicted)
	}
}

// The total-bytes bound must hold while existing streams grow, not only
// at stream creation: many tiny streams each swelling toward MaxMessage
// would otherwise pin MaxStreams×MaxMessage of memory.
func TestReassemblerBoundsStreamGrowth(t *testing.T) {
	const maxBytes = 2 << 20
	ra := netrt.NewReassembler(netrt.ReasmOptions{MaxMessage: 1 << 20, MaxBytes: maxBytes, MaxStreams: 64})
	now := time.Now()
	payload := make([]byte, 32<<10)
	// 16 streams open with a one-byte fragment each, then grow round-robin
	// toward MaxMessage without ever completing (index 31 never arrives).
	for s := 0; s < 16; s++ {
		f := wire.Fragment{Stream: uint64(s), Index: 0, Count: 32, Payload: []byte{1}}
		if _, err := ra.Add(s%4, f, now); err != nil {
			t.Fatal(err)
		}
	}
	for i := 1; i < 31; i++ {
		for s := 0; s < 16; s++ {
			f := wire.Fragment{Stream: uint64(s), Index: uint32(i), Count: 32, Payload: payload}
			if _, err := ra.Add(s%4, f, now.Add(time.Duration(i)*time.Millisecond)); err != nil {
				t.Fatal(err)
			}
			if ra.Bytes() > maxBytes {
				t.Fatalf("stream growth pushed reassembly memory to %d, over the %d bound", ra.Bytes(), maxBytes)
			}
		}
	}
	if _, evicted := ra.Stats(); evicted == 0 {
		t.Fatal("15 MB of growth against a 2 MB bound evicted nothing")
	}
}

// A forged fragment count must be rejected before it can size a huge
// reassembly buffer.
func TestReassemblerRejectsForgedCount(t *testing.T) {
	ra := netrt.NewReassembler(netrt.ReasmOptions{MaxMessage: 1 << 16})
	f := wire.Fragment{Stream: 1, Index: 0, Count: 1 << 30, Payload: []byte("x")}
	if _, err := ra.Add(0, f, time.Now()); err == nil {
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
// federation size). The install multicast, heartbeats, reconciliation, and
// the fat data envelopes all share the fragmentation path.
func TestLargeInstallUnderLossReachesCompleteness(t *testing.T) {
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
	// A fat query name rides in the install metadata AND in every summary
	// envelope, so the data plane exercises fragmentation continuously.
	meta := mortar.QueryMeta{
		Name:      "big-" + strings.Repeat("q", 2000),
		Seq:       1,
		OpName:    "count",
		Window:    tuple.WindowSpec{Kind: tuple.TimeWindow, Range: 500 * time.Millisecond, Slide: 500 * time.Millisecond},
		Root:      0,
		IssuedSim: rts[0].Clock(0).Now(),
	}
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
		fab, err := mortar.NewFabric(rts[i], nil, cfg)
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
					fab.Inject(p, tuple.Raw{Vals: []float64{1}})
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
