package mortar

import (
	"math/rand"
	"testing"
	"time"

	"repro/internal/runtime"
	"repro/internal/tuple"
)

// The upstream send path must not allocate in steady state: the envelope
// shell, wire buffer, and frame all come from pools on byte-consuming
// transports. The benchmark sends three summaries to one next hop per cycle
// through instance.send over a stub runtime whose transport consumes frame
// bytes like a socket backend but discards them, so the measurement isolates
// the fabric's send path itself.

// benchTimer and benchTicker satisfy the runtime interfaces without
// scheduling anything.
type benchTimer struct{}

func (benchTimer) Cancel()             {}
func (benchTimer) Stopped() bool       { return true }
func (benchTimer) When() time.Duration { return 0 }

type benchTicker struct{}

func (benchTicker) Stop() {}

type benchClock struct{ now time.Duration }

func (c *benchClock) Now() time.Duration                         { return c.now }
func (c *benchClock) After(time.Duration, func()) runtime.Timer  { return benchTimer{} }
func (c *benchClock) Every(time.Duration, func()) runtime.Ticker { return benchTicker{} }

// benchTransport consumes frame bytes (the socket-backend contract that
// turns on fabric-side pooling) and drops every frame on the floor.
type benchTransport struct{}

func (benchTransport) Send(from, to int, class runtime.Class, size int, payload any) bool {
	return true
}
func (benchTransport) Handle(peer int, h runtime.Handler) {}
func (benchTransport) SetDown(peer int, down bool)        {}
func (benchTransport) Down(peer int) bool                 { return false }
func (benchTransport) Latency(a, b int) time.Duration     { return time.Millisecond }
func (benchTransport) MaxFrame() int                      { return 64 << 10 }
func (benchTransport) ConsumesFrameBytes() bool           { return true }

type benchRuntime struct {
	n      int
	clocks []*benchClock
	tr     benchTransport
	rng    *rand.Rand
}

func (r *benchRuntime) NumPeers() int                 { return r.n }
func (r *benchRuntime) Clock(peer int) runtime.Clock  { return r.clocks[peer] }
func (r *benchRuntime) Transport() runtime.Transport  { return r.tr }
func (r *benchRuntime) Rand() *rand.Rand              { return r.rng }
func (r *benchRuntime) Exec(peer int, fn func()) bool { fn(); return true }
func (r *benchRuntime) Shutdown()                     {}

func BenchmarkSummarySendSteadyState(b *testing.B) {
	rt := &benchRuntime{n: 2, rng: rand.New(rand.NewSource(1))}
	rt.clocks = []*benchClock{{}, {}}
	fab, err := NewFabric(rt, nil, DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	meta := QueryMeta{
		Name:   "d",
		Seq:    1,
		OpName: "distinct",
		Window: tuple.WindowSpec{Kind: tuple.TimeWindow, Range: time.Second, Slide: time.Second},
		Root:   0,
	}
	def, err := fab.Compile(meta, nil, uniformCoords(2, 3), 2, 1)
	if err != nil {
		b.Fatal(err)
	}
	if err := fab.Install(0, def); err != nil {
		b.Fatal(err)
	}
	p := fab.peers[0]
	var inst *instance
	for _, in := range p.insts {
		inst = in
	}
	if inst == nil {
		b.Fatal("no instance installed")
	}

	// Two partials for one window (nothing merges on the send path: each
	// travels as its own frame) plus one for the next.
	mkSum := func(w int64) tuple.Summary {
		d := inst.op.NewWindow()
		for i := 0; i < 32; i++ {
			d.Merge(tuple.Raw{Key: string(rune('a'+i%26)) + string(rune('0'+w)), Vals: []float64{1}})
		}
		return tuple.Summary{
			Query:  "d",
			Index:  tuple.Index{TB: time.Duration(w) * time.Second, TE: time.Duration(w+1) * time.Second},
			Value:  d.Value(),
			Count:  1,
			Levels: []int16{0},
		}
	}
	s1, s2, s3 := mkSum(0), mkSum(0), mkSum(1)

	// One warm-up cycle sizes the pools and traffic counters.
	cycle := func() {
		inst.send(s1, 0, 1, 0)
		inst.send(s2, 0, 1, 0)
		inst.send(s3, 0, 1, 0)
	}
	cycle()
	frames0 := fab.Stats.DataFrames.Load()

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cycle()
	}
	b.StopTimer()
	if got := fab.Stats.DataFrames.Load() - frames0; got != 3*uint64(b.N) {
		b.Fatalf("%d data frames over %d cycles, want 3 a cycle", got, b.N)
	}
}
