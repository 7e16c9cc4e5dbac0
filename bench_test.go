// Package repro's top-level benchmarks regenerate every data-bearing table
// and figure of "Wide-Scale Data Stream Management" (Logothetis & Yocum,
// USENIX ATC 2008), one benchmark per figure, plus ablation benches for the
// design choices DESIGN.md calls out.
//
// Benchmarks run the Quick experiment configuration by default so that
// `go test -bench=. -benchmem` finishes in minutes; set -figscale=full to
// run the paper-scale parameters. Headline metrics are attached via
// b.ReportMetric, and the full tables print once per benchmark under -v.
package repro

import (
	"flag"
	"fmt"
	"io"
	"math/rand"
	"net"
	"os"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/eventsim"
	"repro/internal/experiments"
	"repro/internal/federation"
	"repro/internal/metrics"
	"repro/internal/mortar"
	"repro/internal/msl"
	"repro/internal/netem"
	"repro/internal/ops"
	"repro/internal/plan"
	rtpkg "repro/internal/runtime"
	"repro/internal/runtime/livert"
	"repro/internal/runtime/netrt"
	"repro/internal/runtime/simrt"
	"repro/internal/treesim"
	"repro/internal/tslist"
	"repro/internal/tuple"
	"repro/internal/vclock"
	"repro/internal/wire"
	"repro/internal/workload"
)

var figScale = flag.String("figscale", "quick", "experiment scale: quick or full")

func benchOptions() experiments.Options {
	return experiments.Options{Seed: 42, Quick: *figScale != "full"}
}

var printOnce sync.Map

// runFigure executes a figure's runner b.N times (the work is dominated by
// the first run; subsequent runs re-use nothing, keeping timings honest)
// and prints its table once.
func runFigure(b *testing.B, id string) {
	b.Helper()
	run, err := experiments.Find(id)
	if err != nil {
		b.Fatal(err)
	}
	var tab *experiments.Table
	for i := 0; i < b.N; i++ {
		tab = run(benchOptions())
	}
	if _, dup := printOnce.LoadOrStore(id, true); !dup && tab != nil {
		var w io.Writer = os.Stdout
		tab.Print(w)
	}
}

func BenchmarkFigure1(b *testing.B)  { runFigure(b, "fig1") }
func BenchmarkFigure9(b *testing.B)  { runFigure(b, "fig9") }
func BenchmarkFigure10(b *testing.B) { runFigure(b, "fig10") }
func BenchmarkFigure11(b *testing.B) { runFigure(b, "fig11") }
func BenchmarkFigure12(b *testing.B) { runFigure(b, "fig12") }
func BenchmarkFigure13(b *testing.B) { runFigure(b, "fig13") }
func BenchmarkFigure14(b *testing.B) { runFigure(b, "fig14") }
func BenchmarkFigure15(b *testing.B) { runFigure(b, "fig15") }
func BenchmarkFigure16(b *testing.B) { runFigure(b, "fig16") }
func BenchmarkFigure17(b *testing.B) { runFigure(b, "fig17") }
func BenchmarkFigure18(b *testing.B) { runFigure(b, "fig18") }

// --- Ablations ---

// ablationRun executes a short failure scenario with the given config and
// returns steady-state completeness (% of live peers).
func ablationRun(b *testing.B, cfg mortar.Config, d int, failFrac float64) float64 {
	b.Helper()
	sim := eventsim.New(42)
	rng := rand.New(rand.NewSource(42))
	p := netem.PaperTopology(170)
	topo := netem.GenerateTransitStub(p, rng)
	net := netem.New(sim, topo)
	fab, err := mortar.NewFabric(simrt.New(net), nil, cfg)
	if err != nil {
		b.Fatal(err)
	}
	meta := mortar.QueryMeta{
		Name:      "abl",
		Seq:       1,
		OpName:    "sum",
		Window:    tuple.WindowSpec{Kind: tuple.TimeWindow, Range: time.Second, Slide: time.Second},
		Root:      0,
		IssuedSim: sim.Now(),
	}
	pts := randomPoints(170, rng)
	def, err := fab.Compile(meta, nil, pts, 16, d)
	if err != nil {
		b.Fatal(err)
	}
	if err := fab.Install(0, def); err != nil {
		b.Fatal(err)
	}
	for i := 0; i < 170; i++ {
		i := i
		phase := time.Duration(rng.Int63n(int64(time.Second)))
		sim.After(phase, func() {
			sim.Every(time.Second, func() { fab.Inject(i, tuple.Raw{Vals: []float64{1}}) })
		})
	}
	var counts []float64
	fab.SubscribeAll(func(r mortar.Result) {
		if sim.Now() > 45*time.Second {
			counts = append(counts, float64(r.Count))
		}
	})
	sim.RunFor(20 * time.Second)
	want := int(failFrac * 170)
	down := 0
	for down < want {
		v := 1 + rng.Intn(169)
		if !fab.Down(v) {
			fab.SetDown(v, true)
			down++
		}
	}
	sim.RunFor(40 * time.Second)
	return metrics.Completeness(int(metrics.Mean(counts)), fab.LiveCount())
}

func randomPoints(n int, rng *rand.Rand) []cluster.Point {
	out := make([]cluster.Point, n)
	for i := range out {
		out[i] = cluster.Point{rng.Float64() * 100, rng.Float64() * 100}
	}
	return out
}

// BenchmarkAblationHeartbeat sweeps the heartbeat period (paper: 2s);
// faster detection recovers sooner but costs control traffic.
func BenchmarkAblationHeartbeat(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, period := range []time.Duration{time.Second, 2 * time.Second, 4 * time.Second} {
			cfg := mortar.DefaultConfig()
			cfg.HeartbeatPeriod = period
			c := ablationRun(b, cfg, 4, 0.3)
			b.ReportMetric(c, "completeness%/hb"+period.String())
		}
	}
}

// BenchmarkAblationSiblings compares derived sibling trees against fully
// random sibling sets: random siblings have more path diversity but lose
// the primary's clustering (Figure 17's tension).
func BenchmarkAblationSiblings(b *testing.B) {
	rng := rand.New(rand.NewSource(42))
	sim := eventsim.New(1)
	topo := netem.GenerateTransitStub(netem.PaperTopology(179), rng)
	net := netem.New(sim, topo)
	hosts := topo.Hosts()
	oneWay := plan.LatencyFunc(func(x, y int) time.Duration { return net.Latency(hosts[x], hosts[y]) })
	pts := randomPoints(179, rng)
	for i := 0; i < b.N; i++ {
		var derived, random float64
		const trials = 10
		for k := 0; k < trials; k++ {
			primary := plan.BuildPrimary(pts, 0, 8, rng)
			sib := plan.DeriveSibling(primary, rng)
			rnd := plan.BuildRandom(179, 0, 8, rng)
			derived += float64(plan.Percentile(plan.LatencyToRoot(sib, oneWay), 90)) / float64(time.Millisecond)
			random += float64(plan.Percentile(plan.LatencyToRoot(rnd, oneWay), 90)) / float64(time.Millisecond)
		}
		b.ReportMetric(derived/trials, "p90ms/derived")
		b.ReportMetric(random/trials, "p90ms/random")
	}
}

// --- Live runtime ---

// BenchmarkLiveThroughput measures end-to-end tuple throughput of a
// federation running on the goroutine-per-peer live runtime: every
// injected tuple crosses a peer mailbox, is windowed, and its summaries
// cross the runtime's loopback UDP socket toward the root. The timed
// section ends only after a drain barrier clears every mailbox, so the
// metric reflects tuples processed, not merely enqueued.
func BenchmarkLiveThroughput(b *testing.B) {
	const peers = 8
	rt := livert.New(peers, livert.Options{
		Seed:     1,
		MinDelay: 50 * time.Microsecond,
		MaxDelay: 200 * time.Microsecond,
	})
	cfg := mortar.DefaultConfig()
	cfg.HeartbeatPeriod = 100 * time.Millisecond
	cfg.MinTimeout = 20 * time.Millisecond
	fab, err := mortar.NewFabric(rt, nil, cfg)
	if err != nil {
		b.Fatal(err)
	}
	var results atomic.Uint64
	fab.SubscribeAll(func(mortar.Result) { results.Add(1) })
	rng := rand.New(rand.NewSource(2))
	meta := mortar.QueryMeta{
		Name:      "bench",
		Seq:       1,
		OpName:    "sum",
		Window:    tuple.WindowSpec{Kind: tuple.TimeWindow, Range: 100 * time.Millisecond, Slide: 100 * time.Millisecond},
		Root:      0,
		IssuedSim: rt.Clock(0).Now(),
	}
	def, err := fab.Compile(meta, nil, randomPoints(peers, rng), 4, 2)
	if err != nil {
		b.Fatal(err)
	}
	if err := fab.Install(0, def); err != nil {
		b.Fatal(err)
	}
	time.Sleep(50 * time.Millisecond) // let the install multicast wire the trees
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fab.Inject(i%peers, tuple.Raw{Vals: []float64{1}})
	}
	// Drain barrier: mailboxes are FIFO, so once these closures run every
	// injected tuple has been windowed.
	for i := 0; i < peers; i++ {
		rtpkg.ExecWait(rt, i, func() {})
	}
	b.StopTimer()
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "tuples/s")
	time.Sleep(400 * time.Millisecond) // let in-flight windows evict and report
	rt.Shutdown()
	b.ReportMetric(float64(results.Load()), "results")
}

// --- Codec microbenchmarks (the per-message cost on the hot summary path) ---

// benchEnvelope is a representative data-plane envelope: a merged summary
// striped over 4 trees, as every interior operator transmits each slide.
func benchEnvelope() *wire.Envelope {
	return &wire.Envelope{
		S: tuple.Summary{
			Query:  "cpu-sum",
			Index:  tuple.Index{TB: 41 * time.Second, TE: 42 * time.Second},
			Value:  float64(17.5),
			Age:    120 * time.Millisecond,
			Count:  42,
			Hops:   3,
			Levels: []int16{2, -1, 3, 0},
		},
		Tree:    1,
		TTLDown: 1,
		SentAt:  95 * time.Second,
	}
}

func BenchmarkWireEncodeEnvelope(b *testing.B) {
	var msg any = benchEnvelope() // boxed once: the loop measures encoding, not conversion
	w := wire.GetBuffer()
	defer wire.PutBuffer(w)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.Reset()
		if err := wire.EncodeMessage(w, msg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkWireDecodeEnvelope(b *testing.B) {
	var w wire.Buffer
	if err := wire.EncodeMessage(&w, benchEnvelope()); err != nil {
		b.Fatal(err)
	}
	buf := w.Bytes()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := wire.DecodeMessage(buf); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkWireEncodeHeartbeat(b *testing.B) {
	var msg any = wire.Heartbeat{Seq: 123456, Hash: 0xfeedface}
	w := wire.GetBuffer()
	defer wire.PutBuffer(w)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.Reset()
		if err := wire.EncodeMessage(w, msg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWireDecodeHeartbeat decodes the heartbeat frame production
// sends (empty coordinate slot) through wire.DecodeMessage — what netrt's
// receive path runs per beat. Only the boxed message allocates; CI gates
// this row at 1 alloc/op.
func BenchmarkWireDecodeHeartbeat(b *testing.B) {
	var w wire.Buffer
	if err := wire.EncodeMessage(&w, wire.Heartbeat{Seq: 123456, Hash: 0xfeedface}); err != nil {
		b.Fatal(err)
	}
	buf := w.Bytes()
	var msg any
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		if msg, err = wire.DecodeMessage(buf); err != nil {
			b.Fatal(err)
		}
	}
	if hb, ok := msg.(wire.Heartbeat); !ok || hb.Seq != 123456 {
		b.Fatalf("decoded %+v", msg)
	}
}

// sketchValues returns one pre-boxed value of each sketch tenant
// sketch-wan runs, shaped like its leaves' (Count 1) values: 50 Zipf(1.2)
// keys over 4,096, and top-k payloads carrying a fractional µs stamp.
func sketchValues() map[string]any {
	keys := workload.NewZipfKeys(rand.New(rand.NewSource(1)), 1.2, 4096)
	raws := make([]tuple.Raw, 50)
	for i := range raws {
		raws[i] = tuple.Raw{Key: keys.Next(), Vals: []float64{1, 1.5e9 + float64(i) + 0.375}}
	}
	out := map[string]any{}
	for name, op := range map[string]ops.Operator{
		"bloom": ops.DefaultBloom(), "hll": ops.DefaultDistinct(), "kv": ops.Entropy{}, "entries": ops.TopK{K: 10},
	} {
		w := op.NewWindow()
		w.Merge(raws...)
		out[name] = w.Value()
	}
	return out
}

// BenchmarkWireEncodeValue encodes one sketch value: a Bloom filter and a
// distinct register array in the shortest bit-array form, an entropy
// histogram (sorted into pooled scratch), and top-k entries. Each reports
// its encoded size; CI gates every sub-benchmark at 0 allocs/op.
func BenchmarkWireEncodeValue(b *testing.B) {
	vals := sketchValues()
	for _, name := range []string{"bloom", "hll", "kv", "entries"} {
		v := vals[name]
		b.Run(name, func(b *testing.B) {
			w := wire.GetBuffer()
			defer wire.PutBuffer(w)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				w.Reset()
				if err := w.PutValue(v); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(w.Len()), "B/value")
		})
	}
}

func BenchmarkWireInstallRoundTrip(b *testing.B) {
	m := wire.Install{
		Meta: wire.QueryMeta{
			Name: "bench", Seq: 3, OpName: "sum",
			Window: tuple.WindowSpec{Kind: tuple.TimeWindow, Range: time.Second, Slide: time.Second},
		},
		Members: map[int]wire.Neighbors{},
		Forward: map[int][]int{},
	}
	for p := 0; p < 16; p++ {
		m.Members[p] = wire.Neighbors{
			Parents:  []int{p - 1, (p + 7) % 16},
			Children: [][]int{{p + 1}, nil},
			Levels:   []int{p % 5, (p + 1) % 5},
		}
		if p%4 == 0 {
			m.Forward[p] = []int{p + 1, p + 2}
		}
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		var w wire.Buffer
		if err := wire.EncodeMessage(&w, m); err != nil {
			b.Fatal(err)
		}
		if _, err := wire.DecodeMessage(w.Bytes()); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Fragmentation layer (the netrt reliable large-message path) ---

// benchFragment measures split + reassemble throughput for one frame size:
// the CPU cost of moving a frame of that size through netrt's fragmenter
// and bounded reassembler, sockets excluded.
func benchFragment(b *testing.B, size int) {
	payload := make([]byte, size)
	rng := rand.New(rand.NewSource(9))
	rng.Read(payload)
	ra := netrt.NewReassembler(256)
	now := time.Now()
	const mtuPayload = 1400 - 64
	b.SetBytes(int64(size))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		frags := netrt.SplitFragments(uint64(i+1), payload, mtuPayload)
		var msg []byte
		for _, f := range frags {
			m, err := ra.Add(0, f, now)
			if err != nil {
				b.Fatal(err)
			}
			if m != nil {
				msg = m
			}
		}
		if len(msg) != size {
			b.Fatalf("reassembled %d of %d bytes", len(msg), size)
		}
	}
}

func BenchmarkFragmentReassemble4KB(b *testing.B)  { benchFragment(b, 4<<10) }
func BenchmarkFragmentReassemble64KB(b *testing.B) { benchFragment(b, 64<<10) }
func BenchmarkFragmentReassemble1MB(b *testing.B)  { benchFragment(b, 1<<20) }

// benchHeartbeatSend measures netrt.Send of a single-datagram heartbeat —
// the hot control-plane path — over real loopback sockets, with the given
// pacing rate. Comparing the paced and unpaced variants isolates the token
// bucket's overhead on traffic that never needs it. The loop outruns the
// socket writer, so the frames back up and share trains: datagrams/frame
// reads well below one.
func benchHeartbeatSend(b *testing.B, pace int) {
	rts, _, err := netrt.NewGroup([][]int{{0, 1}}, netrt.Options{Seed: 1, Pace: pace})
	if err != nil {
		b.Fatal(err)
	}
	rt := rts[0]
	defer rt.Shutdown()
	rt.Handle(1, func(int, any, int) {})
	hb := wire.Heartbeat{Seq: 1, Hash: 0xfeedface}
	var w wire.Buffer
	if err := wire.EncodeMessage(&w, hb); err != nil {
		b.Fatal(err)
	}
	frame := &rtpkg.Frame{Payload: hb, Bytes: w.Bytes()}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rt.Send(0, 1, rtpkg.ClassControl, w.Len(), frame)
	}
	b.StopTimer()
	ns := rt.NetStats()
	if frames := ns.TrainFrames + ns.Datagrams - ns.Trains; frames > 0 { // a bare datagram carries one frame
		b.ReportMetric(float64(ns.Datagrams)/float64(frames), "datagrams/frame")
	}
}

func BenchmarkNetrtHeartbeatSendPaced(b *testing.B)   { benchHeartbeatSend(b, 8<<20) }
func BenchmarkNetrtHeartbeatSendUnpaced(b *testing.B) { benchHeartbeatSend(b, -1) }

// BenchmarkNetrtEnvelopeSend measures the full envelope send path — header
// encode, frame append and pacer hand-off — and gates it at zero
// allocations per send. The remote peer is a bound socket nobody reads:
// -benchmem counts allocations process-wide, so a receiving runtime would
// charge its decode path to this benchmark. Sends run in bursts below the
// pacer's 8,192-frame queue, with the timer stopped while the writer drains
// each one: a loop that outruns the writer would time whichever of a full
// or a draining queue it happened to meet, so no Send may find the queue
// full and drops/op must read 0. The writer still runs beside a burst.
func BenchmarkNetrtEnvelopeSend(b *testing.B) {
	sink, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		b.Fatal(err)
	}
	defer sink.Close()
	dir := []string{"127.0.0.1:0", sink.LocalAddr().String()}
	rt, err := netrt.New(dir, []int{0}, netrt.Options{Seed: 1, Pace: -1})
	if err != nil {
		b.Fatal(err)
	}
	defer rt.Shutdown()
	env := benchEnvelope()
	var w wire.Buffer
	if err := wire.EncodeMessage(&w, env); err != nil {
		b.Fatal(err)
	}
	frame := &rtpkg.Frame{Payload: env, Bytes: w.Bytes()}
	const burst = 4096
	// Pre-warm the buffer pool past one burst: that many buffers can be in
	// flight at once, and a cold pool would charge their one-time
	// allocation to the steady-state path under measurement.
	warm := make([]*wire.Buffer, 2*burst)
	for i := range warm {
		warm[i] = wire.GetBuffer()
		warm[i].Reserve(512)
	}
	for _, pw := range warm {
		wire.PutBuffer(pw)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for sent := 0; sent < b.N; {
		n := min(burst, b.N-sent)
		b.StartTimer()
		for i := 0; i < n; i++ {
			rt.Send(0, 1, rtpkg.ClassData, w.Len(), frame)
		}
		b.StopTimer()
		sent += n
		for {
			ns := rt.NetStats()
			_, _, dropped := rt.Stats()
			if ns.Datagrams-ns.Trains+ns.TrainFrames+dropped >= uint64(sent) { // a bare datagram carries one frame
				break
			}
			runtime.Gosched()
		}
	}
	_, _, dropped := rt.Stats()
	b.ReportMetric(float64(dropped)/float64(b.N), "drops/op")
}

// --- Microbenchmarks of the hot data structures ---

func BenchmarkTSListInsert(b *testing.B) {
	l := tslist.New(func(a, c tuple.Value) tuple.Value {
		if a == nil {
			return c
		}
		if c == nil {
			return a
		}
		return a.(float64) + c.(float64)
	})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tb := time.Duration(i%64) * time.Second
		l.Insert(tuple.Summary{
			Index: tuple.Index{TB: tb, TE: tb + time.Second},
			Value: float64(1), Count: 1,
		}, 0, time.Duration(i+1)*time.Second)
		if l.Len() > 128 {
			l.PopAll()
		}
	}
}

func BenchmarkDynamicStripingSim(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	p := treesim.Params{Nodes: 10000, BF: 32, D: 4, LinkFail: 0.2, Discipline: treesim.DynamicStriping}
	for i := 0; i < b.N; i++ {
		treesim.Completeness(p, rng)
	}
}

func BenchmarkPlanPrimary680(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	pts := randomPoints(680, rng)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		plan.BuildPrimary(pts, 0, 16, rng)
	}
}

func BenchmarkClockSample(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	d := vclock.PlanetLab(1)
	for i := 0; i < b.N; i++ {
		d.Sample(rng)
	}
}

// --- Replanning ---

// BenchmarkReplanDecision measures the drift monitor's per-poll work for
// one 200-peer query: score the deployed tree set under the current
// embedding, build a fresh candidate, and score it — the cost paid every
// monitor interval whether or not a replan fires.
func BenchmarkReplanDecision(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	pts := randomPoints(200, rng)
	deployed := plan.Build(pts, 0, 16, 4, rng)
	model := plan.CoordModel{Coords: pts}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		cur := plan.Quality(model, deployed)
		cand := plan.Build(pts, 0, 16, 4, rng)
		if plan.Quality(model, cand) <= 0 || cur <= 0 {
			b.Fatal("degenerate quality")
		}
	}
}

// BenchmarkReplanCycleSim measures one full epoch migration on the
// deterministic backend: install the next epoch of a live 40-peer query,
// run until every member acks, completeness catches up, the root retires
// the old epoch, and its drained state is gone — the end-to-end cost of
// one make-before-break replan cycle (reported in simulated events, timed
// in real ns).
func BenchmarkReplanCycleSim(b *testing.B) {
	rt := simrt.NewPaper(77, 40, simrt.TopoOptions{Stubs: 8, Transits: 2})
	fab, err := mortar.NewFabric(rt, nil, mortar.DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	pts := randomPoints(40, rng)
	issue := rt.Now()
	mk := func(seq uint64, epoch uint32) *mortar.QueryDef {
		meta := mortar.QueryMeta{
			Name: "cyc", Seq: seq, Epoch: epoch, OpName: "sum",
			Window:    tuple.WindowSpec{Kind: tuple.TimeWindow, Range: time.Second, Slide: time.Second},
			Root:      0,
			IssuedSim: issue,
		}
		def, err := fab.Compile(meta, nil, pts, 8, 2)
		if err != nil {
			b.Fatal(err)
		}
		return def
	}
	if err := fab.Install(0, mk(1, 0)); err != nil {
		b.Fatal(err)
	}
	for i := 0; i < 40; i++ {
		i := i
		rt.After(time.Duration(i)*25*time.Millisecond, func() {
			rt.Every(time.Second, func() { fab.Inject(i, tuple.Raw{Vals: []float64{1}}) })
		})
	}
	rt.RunFor(15 * time.Second)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		epoch := uint32(i + 1)
		if err := fab.Install(0, mk(uint64(i+2), epoch)); err != nil {
			b.Fatal(err)
		}
		retireTarget := uint64(i + 1)
		for step := 0; fab.Stats.EpochsRetired.Load() < retireTarget && step < 120; step++ {
			rt.RunFor(time.Second)
		}
		if fab.Stats.EpochsRetired.Load() < retireTarget {
			b.Fatal("migration did not complete")
		}
		rt.RunFor(10 * time.Second) // drain the retired epoch
	}
}

// BenchmarkControlBytesPerQuery records the paper's sharing curve (Fig 13)
// as a CI artifact: steady-state control bytes per peer per simulated
// second with 1, 4, 16, and 64 count queries over one shared heartbeat
// mesh. Heartbeat edges are the union of every query's tree edges, so the
// per-peer figure must saturate toward the complete graph instead of
// growing linearly in query count: the q64 metric landing under 8x the q1
// metric is the sub-linear acceptance bound the federation test
// (TestControlBytesSubLinear) enforces.
func BenchmarkControlBytesPerQuery(b *testing.B) {
	const hosts = 16
	for _, queries := range []int{1, 4, 16, 64} {
		b.Run(fmt.Sprintf("q%d", queries), func(b *testing.B) {
			var perPeerSec float64
			for i := 0; i < b.N; i++ {
				var src strings.Builder
				for q := 0; q < queries; q++ {
					fmt.Fprintf(&src, "query q%02d as count() from sensors window time 1s slide 1s trees 4 bf 4\n", q)
				}
				prog, err := msl.Parse(src.String())
				if err != nil {
					b.Fatal(err)
				}
				sim := eventsim.New(31)
				rng := rand.New(rand.NewSource(31))
				p := netem.PaperTopology(hosts)
				p.Stubs = 6
				p.Transits = 2
				net := netem.New(sim, netem.GenerateTransitStub(p, rng))
				fed, err := federation.NewRuntime(simrt.New(net), prog, rng)
				if err != nil {
					b.Fatal(err)
				}
				fed.StartSensors(time.Second, func(int) tuple.Raw { return tuple.Raw{Vals: []float64{1}} }, rng)
				const settle = 30 * time.Second
				const window = 60 * time.Second
				sim.RunUntil(settle)
				before := fed.Fab.Stats.ControlBytes.Load()
				sim.RunUntil(settle + window)
				delta := fed.Fab.Stats.ControlBytes.Load() - before
				perPeerSec = float64(delta) / float64(hosts) / window.Seconds()
			}
			b.ReportMetric(perPeerSec, "ctl_bytes/peer/s")
		})
	}
}

// --- Data-plane fast path (batched ingest, zero-alloc merge and encode) ---

// BenchmarkSummaryEncode measures encoding one summary tuple into a pooled
// wire buffer — the per-envelope transmit cost every interior operator pays
// each slide. The steady state must be allocation-free; CI gates allocs/op
// at 0 via benchcompare -alloc-match.
func BenchmarkSummaryEncode(b *testing.B) {
	s := tuple.Summary{
		Query:  "cpu-sum",
		Index:  tuple.Index{TB: 41 * time.Second, TE: 42 * time.Second},
		Value:  float64(17.5), // boxed once; the loop measures encoding
		Age:    120 * time.Millisecond,
		Count:  42,
		Hops:   3,
		Levels: []int16{2, -1, 3, 0},
	}
	w := wire.GetBuffer()
	defer wire.PutBuffer(w)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.Reset()
		if err := wire.EncodeSummary(w, s, 1); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTSListInsertMerge drives a time-space list through its steady
// state: every summary lands on a fresh slide index, a second copy merges
// into it in place, and expired entries recycle through the list's pool.
// With an in-place combiner (histogram fold) the loop must not allocate;
// CI gates allocs/op at 0 via benchcompare -alloc-match.
func BenchmarkTSListInsertMerge(b *testing.B) {
	l := tslist.New(ops.CombineInPlaceNilAware(ops.Entropy{}))
	var ctr tslist.Counters
	l.SetCounters(&ctr)
	s := tuple.Summary{
		Value:  map[string]float64{"a": 1, "b": 2, "c": 3},
		Count:  1,
		Levels: []int16{1, -1, 2, 0},
	}
	const live = 64 // indices in flight before expiry
	step := func(i int) {
		tb := time.Duration(i) * time.Second
		s.Index = tuple.Index{TB: tb, TE: tb + time.Second}
		l.Insert(s, tb, tb+live*time.Second)
		l.Insert(s, tb, tb+live*time.Second) // second arrival: in-place merge
		for _, e := range l.PopExpired(tb) {
			l.Recycle(e)
		}
	}
	for i := 0; i < 2*live; i++ {
		step(i) // warm the entry pool and the combiner's key set
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		step(2*live + i)
	}
	b.StopTimer()
	if got := l.Validate(); got != nil {
		b.Fatal(got)
	}
	if ctr.Merges.Load() == 0 {
		b.Fatal("no merges recorded")
	}
}

// BenchmarkLiveInjectBatch is the ingest-sat workload's data path on the
// live runtime: one op is one pooled 64-tuple InjectBatch from a single
// driver goroutine, round-robin over 8 peers that run ingest-sat's two
// tenants — an unfiltered sum and a max that keeps only its FilterKey's
// tuples, one per batch. An idle peer absorbs the batch on the driver's
// goroutine, a peer a timer holds takes it through its mailbox. Batch
// slices cycle through the fabric's pool and a drain barrier every few
// rounds keeps the mailboxes short, so the path must report 0 allocs/op —
// CI-gated. It reports tuples/s.
func BenchmarkLiveInjectBatch(b *testing.B) {
	const (
		peers   = 8
		batch   = 64
		barrier = 4 * peers // batches between drain barriers
	)
	rt := livert.New(peers, livert.Options{
		Seed:     1,
		MinDelay: 50 * time.Microsecond,
		MaxDelay: 200 * time.Microsecond,
	})
	cfg := mortar.DefaultConfig()
	cfg.HeartbeatPeriod = 100 * time.Millisecond
	cfg.MinTimeout = 20 * time.Millisecond
	fab, err := mortar.NewFabric(rt, nil, cfg)
	if err != nil {
		b.Fatal(err)
	}
	coords := randomPoints(peers, rand.New(rand.NewSource(2)))
	window := tuple.WindowSpec{Kind: tuple.TimeWindow, Range: 100 * time.Millisecond, Slide: 100 * time.Millisecond}
	for i, meta := range []mortar.QueryMeta{
		{Name: "mass", OpName: "sum", OpArgs: []string{"0"}},
		{Name: "lat", OpName: "max", OpArgs: []string{"1"}, FilterKey: "lat"},
	} {
		meta.Seq, meta.Window, meta.IssuedSim = uint64(i+1), window, rt.Clock(0).Now()
		def, err := fab.Compile(meta, nil, coords, 8, 2)
		if err != nil {
			b.Fatal(err)
		}
		if err := fab.Install(0, def); err != nil {
			b.Fatal(err)
		}
	}
	time.Sleep(50 * time.Millisecond) // let the install multicast wire the trees
	vals := []float64{1, 1}
	var drained sync.WaitGroup
	done := drained.Done
	inject := func(i int) {
		raws := append(fab.GetRawBatch(batch), tuple.Raw{Key: "lat", Vals: vals})
		for len(raws) < batch {
			raws = append(raws, tuple.Raw{Vals: vals})
		}
		fab.InjectBatch(i%peers, raws)
		if i%barrier == barrier-1 {
			drained.Add(peers)
			for p := 0; p < peers; p++ {
				rt.Exec(p, done)
			}
			drained.Wait()
		}
	}
	for i := 0; i < 8*barrier; i++ {
		inject(i) // warm-up: batch pool and mailbox queues at their steady size
	}
	base := fab.Stats.TuplesIngested.Load()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		inject(i)
	}
	for p := 0; p < peers; p++ {
		rtpkg.ExecWait(rt, p, func() {})
	}
	b.StopTimer()
	b.ReportMetric(float64(b.N*batch)/b.Elapsed().Seconds(), "tuples/s")
	rt.Shutdown()
	if got := fab.Stats.TuplesIngested.Load() - base; got != uint64(b.N*batch) {
		b.Fatalf("ingested %d of %d tuples", got, b.N*batch)
	}
}

// BenchmarkIngestPaneSteadyState pins the pane-window ingest path: one op is
// one pooled 64-tuple batch merged into a sum operator's open slide on the
// deterministic runtime, with virtual time stepping so that a slide closes
// every 200 batches (ten or more closes at the CI gate's -benchtime). A
// raw leaves nothing behind once merged and a close costs a handful of
// allocations whatever the slide held, so the path must report 0 allocs/op
// — CI-gated.
func BenchmarkIngestPaneSteadyState(b *testing.B) {
	const (
		peers = 2
		batch = 64
		slide = 10 * time.Millisecond
		step  = slide / 200
	)
	rt := simrt.NewPaper(1, peers, simrt.TopoOptions{Stubs: 2, Transits: 1})
	fab, err := mortar.NewFabric(rt, nil, mortar.DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	var mass float64
	fab.SubscribeAll(func(r mortar.Result) {
		if v, ok := r.Value.(float64); ok {
			mass += v
		}
	})
	meta := mortar.QueryMeta{
		Name:      "bench",
		Seq:       1,
		OpName:    "sum",
		Window:    tuple.WindowSpec{Kind: tuple.TimeWindow, Range: slide, Slide: slide},
		Root:      0,
		IssuedSim: rt.Now(),
	}
	def, err := fab.Compile(meta, nil, randomPoints(peers, rand.New(rand.NewSource(2))), 4, 2)
	if err != nil {
		b.Fatal(err)
	}
	if err := fab.Install(0, def); err != nil {
		b.Fatal(err)
	}
	rt.RunFor(time.Second) // wire the trees
	vals := []float64{1}
	inject := func() {
		raws := fab.GetRawBatch(batch)
		for i := 0; i < batch; i++ {
			raws = append(raws, tuple.Raw{Vals: vals})
		}
		fab.InjectBatch(1, raws)
		rt.RunFor(step)
	}
	for i := 0; i < 400; i++ {
		inject() // two slides of warm-up: pools filled, timeouts settled
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		inject()
	}
	b.StopTimer()
	rt.RunFor(5 * time.Second)
	if want := float64((400 + b.N) * batch); mass != want {
		b.Fatalf("root reported %v of %v tuples", mass, want)
	}
}

// BenchmarkSaturationReplay answers the headline data-plane question: what
// aggregate tuple rate can a live 8-peer federation sustain? The replay
// driver ramps the offered rate (doubling, then binary search) against two
// sinks over the same fabric — the batched fast path (InjectBatch) and the
// seed per-tuple path (Inject per raw) — and reports both saturation points
// plus their ratio. A trial passes when the fabric absorbs the offered load
// at >=90% of the target rate including drain time, i.e. before ingest
// latency degrades into unbounded mailbox backlog.
func BenchmarkSaturationReplay(b *testing.B) {
	const peers = 8
	rt := livert.New(peers, livert.Options{
		Seed:     1,
		MinDelay: 50 * time.Microsecond,
		MaxDelay: 200 * time.Microsecond,
	})
	defer rt.Shutdown()
	cfg := mortar.DefaultConfig()
	cfg.HeartbeatPeriod = 100 * time.Millisecond
	cfg.MinTimeout = 20 * time.Millisecond
	fab, err := mortar.NewFabric(rt, nil, cfg)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(2))
	meta := mortar.QueryMeta{
		Name:      "bench",
		Seq:       1,
		OpName:    "sum",
		Window:    tuple.WindowSpec{Kind: tuple.TimeWindow, Range: 100 * time.Millisecond, Slide: 100 * time.Millisecond},
		Root:      0,
		IssuedSim: rt.Clock(0).Now(),
	}
	def, err := fab.Compile(meta, nil, randomPoints(peers, rng), 4, 2)
	if err != nil {
		b.Fatal(err)
	}
	if err := fab.Install(0, def); err != nil {
		b.Fatal(err)
	}
	time.Sleep(50 * time.Millisecond)

	all := make([]int, peers)
	for i := range all {
		all[i] = i
	}
	const trialDur = 200 * time.Millisecond
	attempt := func(sink workload.BatchSink, pooled bool, rate float64) bool {
		r := &workload.Replay{Peers: all, Rate: rate, Batch: 64}
		if pooled {
			r.NewBatch = fab.GetRawBatch
		}
		start := time.Now()
		injected, _ := r.Run(trialDur, sink)
		for i := 0; i < peers; i++ {
			rtpkg.ExecWait(rt, i, func() {}) // drain: FIFO mailboxes
		}
		sustained := float64(injected) / time.Since(start).Seconds()
		time.Sleep(20 * time.Millisecond) // settle before the next trial
		return sustained >= 0.9*rate
	}
	trial := func(sink workload.BatchSink, pooled bool) workload.Trial {
		return func(rate float64) bool {
			// One retry: a single scheduler hiccup must not clip the search.
			return attempt(sink, pooled, rate) || attempt(sink, pooled, rate)
		}
	}
	perTupleSink := func(peer int, raws []tuple.Raw) {
		for _, raw := range raws {
			fab.Inject(peer, raw) // the seed path: one mailbox hop per tuple
		}
	}
	var batched, perTuple float64
	for i := 0; i < b.N; i++ {
		perTuple = workload.FindMaxRate(100_000, 10, 4, trial(perTupleSink, false))
		batched = workload.FindMaxRate(100_000, 10, 4, trial(fab.InjectBatch, true))
	}
	b.ReportMetric(batched, "batched-tuples/s")
	b.ReportMetric(perTuple, "pertuple-tuples/s")
	if perTuple > 0 {
		b.ReportMetric(batched/perTuple, "speedup")
	}
	b.Logf("saturation: batched %.0f tuples/s, per-tuple %.0f tuples/s", batched, perTuple)
}

// BenchmarkMultiHopCoalescing measures what a window's summaries cost on a
// deep overlay over real sockets: 64 peers in bf-4 trees (three hops leaf to
// root), three co-hosted tenant queries planned onto the same trees — the
// multi-tenant shape where one next hop receives several summaries per
// window. It reports the per-query-window summary byte cost
// (summary-bytes/window, lower is better, gated in CI against the previous
// run). Operators forward a window the moment their subtree is counted, so
// each sends one summary per tenant per window, and every summary leaves the
// moment it is routed as a frame of its own (mortar's instance.send). The
// name dates from hold-and-merge staging, when the same federation also ran a
// flush-at-once reference and reported a frame-reduction-x; there is one
// setting now, so one run. That each summary is one frame is asserted where
// frames can be counted exactly, on simrt: mortar.TestEachSummaryIsOneFrame.
func BenchmarkMultiHopCoalescing(b *testing.B) {
	const (
		peers   = 64
		bf      = 4
		trees   = 2
		tenants = 3
		slide   = 250 * time.Millisecond
		warmup  = 1500 * time.Millisecond
		measure = 3 * time.Second
	)
	run := func() (frames, bytes uint64) {
		hosts := make([]int, peers)
		for i := range hosts {
			hosts[i] = i
		}
		rts, _, err := netrt.NewGroup([][]int{hosts}, netrt.Options{Seed: 7, PeersPerSocket: 8})
		if err != nil {
			b.Fatal(err)
		}
		rt := rts[0]
		defer rt.Shutdown()
		cfg := mortar.DefaultConfig()
		cfg.HeartbeatPeriod = 500 * time.Millisecond
		fab, err := mortar.NewFabric(rt, nil, cfg)
		if err != nil {
			b.Fatal(err)
		}
		rng := rand.New(rand.NewSource(3))
		coords := randomPoints(peers, rng)
		for q := 0; q < tenants; q++ {
			meta := mortar.QueryMeta{
				Name:      fmt.Sprintf("mh%d", q),
				Seq:       1,
				OpName:    "sum",
				Window:    tuple.WindowSpec{Kind: tuple.TimeWindow, Range: slide, Slide: slide},
				Root:      0,
				IssuedSim: rt.Clock(0).Now(),
			}
			// One pinned planning rng per query: identical trees, so
			// co-hosted tenants share next-hops (their summaries can ride
			// one frame) exactly as a shared-plan serving deployment does.
			def, err := fab.CompileWith(meta, nil, coords, bf, trees, rand.New(rand.NewSource(42)))
			if err != nil {
				b.Fatal(err)
			}
			if err := fab.Install(0, def); err != nil {
				b.Fatal(err)
			}
		}
		vals := []float64{1}
		for i := 0; i < peers; i++ {
			i := i
			rt.Clock(i).Every(100*time.Millisecond, func() {
				fab.Inject(i, tuple.Raw{Vals: vals})
			})
		}
		time.Sleep(warmup)
		f0, b0 := fab.Stats.DataFrames.Load(), fab.Stats.DataBytes.Load()
		time.Sleep(measure)
		return fab.Stats.DataFrames.Load() - f0, fab.Stats.DataBytes.Load() - b0
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		frames, bytes := run()
		if frames == 0 {
			b.Fatal("no data frames measured")
		}
		windows := float64(tenants) * measure.Seconds() / slide.Seconds()
		b.ReportMetric(float64(bytes)/windows, "summary-bytes/window")
		b.Logf("multi-hop: %d data frames, %.0f summary bytes/window", frames, float64(bytes)/windows)
	}
}
