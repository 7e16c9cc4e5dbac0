package main

import (
	"fmt"
	"io"
	"math/rand"
	"net/http"
	goruntime "runtime"
	"sort"
	"strconv"
	"sync"
	"time"

	"repro/bench/measure"
	"repro/internal/cluster"
	"repro/internal/ops"
	"repro/internal/runtime"
	"repro/internal/runtime/netrt"
	"repro/internal/tslist"
	"repro/internal/tuple"
	"repro/internal/wire"
	"repro/internal/workload"
)

// probeSet is the traced run's outside-only instrumentation: live probes
// that sample a layer through its public calls while the workload runs,
// and micro-probes that afterwards call a layer's public functions with
// inputs shaped like the workload's. In-program tracing is a later change;
// until then this is every layer as seen from its boundary.
type probeSet struct {
	rec  *measure.Recorder
	stop chan struct{}
	wg   sync.WaitGroup

	echoRT  *netrt.Runtime
	arrived chan time.Time // one echo in flight at a time

	// micro holds the micro-probes' figures by metric name. The live
	// probes keep nothing here: their timings are the actor.probe,
	// netrt.echo and gateway.stats spans.
	micro map[string]float64
}

// probePeers picks the root, one interior peer and one leaf of the primary
// tree, the three places a mailbox wait means something different.
func probePeers(f *fedn) []int {
	t := f.primaryTree()
	if t == nil {
		return []int{0}
	}
	peers := []int{t.Root}
	interior, leaf := -1, -1
	for p := range t.Parent {
		switch {
		case p == t.Root:
		case len(t.Children[p]) > 0 && interior < 0:
			interior = p
		case len(t.Children[p]) == 0 && leaf < 0:
			leaf = p
		}
	}
	for _, p := range []int{interior, leaf} {
		if p >= 0 {
			peers = append(peers, p)
		}
	}
	return peers
}

// newProbes binds the bench-owned two-peer runtime the echo and send
// probes use; close releases it.
func newProbes(rec *measure.Recorder) (*probeSet, error) {
	ps := &probeSet{rec: rec, micro: map[string]float64{}, arrived: make(chan time.Time, 1)}
	rts, _, err := netrt.NewGroup([][]int{{0, 1}}, netrt.Options{Seed: 1})
	if err != nil {
		return nil, fmt.Errorf("echo probe: %w", err)
	}
	ps.echoRT = rts[0]
	ps.echoRT.Handle(1, func(int, any, int) {
		select {
		case ps.arrived <- time.Now():
		default:
		}
	})
	ps.echoRT.Handle(0, func(int, any, int) {})
	return ps, nil
}

func (ps *probeSet) close() { ps.echoRT.Shutdown() }

// startLive launches the live probes against one federation; stopLive ends
// them. Each runs at 10 Hz or slower: they share the two cores with the
// system they watch.
func (ps *probeSet) startLive(f *fedn) {
	ps.stop = make(chan struct{})
	every := func(d time.Duration, fn func(i int)) {
		ps.wg.Add(1)
		go func() {
			defer ps.wg.Done()
			tk := time.NewTicker(d)
			defer tk.Stop()
			for i := 0; ; i++ {
				select {
				case <-ps.stop:
					return
				case <-tk.C:
					fn(i)
				}
			}
		}()
	}
	peers := probePeers(f)
	every(100*time.Millisecond, func(i int) {
		p := peers[i%len(peers)]
		start := time.Now()
		if !runtime.ExecWait(f.rt, p, func() {}) {
			return
		}
		ps.rec.Add("actor.probe", f.id("probe/"+strconv.Itoa(i)), "", start, time.Now())
	})
	env := shapedEnvelope(f.sp, f.sp.tenants[0], 1)
	every(100*time.Millisecond, func(i int) {
		select {
		case <-ps.arrived: // a reply that outlived its timeout
		default:
		}
		start := time.Now()
		if !ps.echoRT.Send(0, 1, runtime.ClassData, 0, env) {
			return
		}
		select {
		case end := <-ps.arrived:
			ps.rec.Add("netrt.echo", f.id("echo/"+strconv.Itoa(i)), "", start, end)
		case <-time.After(80 * time.Millisecond):
		case <-ps.stop:
		}
	})
	every(2*time.Second, func(i int) {
		start := time.Now()
		resp, err := http.Get(f.url + "/v1/stats")
		if err != nil {
			return
		}
		io.Copy(io.Discard, resp.Body) // drained so the round trip is whole
		resp.Body.Close()
		ps.rec.Add("gateway.stats", f.id("stats/"+strconv.Itoa(i)), "", start, time.Now())
	})
}

func (ps *probeSet) stopLive() {
	close(ps.stop)
	ps.wg.Wait()
}

// planProbe times Fabric.Compile over the coordinates the deployed plan
// used — the planner's share of an install.
func planProbe(f *fedn, seed int64) float64 {
	def := f.fed.Def(latName)
	if def == nil {
		return 0
	}
	coords := planCoords(f, seed)
	if coords == nil {
		return 0
	}
	meta := def.Meta
	meta.Name = "plan-probe"
	start := time.Now()
	_, err := f.fed.Fab.CompileWith(meta, nil, coords, f.sp.bf, f.sp.trees, rand.New(rand.NewSource(seed)))
	if err != nil {
		return 0
	}
	return float64(time.Since(start).Nanoseconds()) / 1e6
}

// shapedValue is the partial value one peer's window of the tenant's
// operator holds after a window's worth of the workload's tuples.
func shapedValue(sp *spec, t tenant, seed int64) tuple.Value {
	op, err := ops.New(t.op, t.args)
	if err != nil {
		return float64(1)
	}
	w := op.NewWindow()
	for _, r := range shapedRaws(sp, seed, tuplesPerPeerWindow(sp)) {
		w.Merge(r)
	}
	if v := w.Value(); v != nil {
		return v
	}
	return float64(1)
}

func tuplesPerPeerWindow(sp *spec) int {
	if sp.closedLoop {
		return 4096
	}
	return int(sp.window/sp.tickEvery) * sp.perTick
}

func shapedRaws(sp *spec, seed int64, n int) []tuple.Raw {
	var keys *workload.ZipfKeys
	if sp.zipfKeys {
		keys = workload.NewZipfKeys(rand.New(rand.NewSource(seed)), 1.2, 4096)
	}
	out := make([]tuple.Raw, n)
	for i := range out {
		out[i] = tuple.Raw{Vals: []float64{1, float64(i)}}
		if keys != nil {
			out[i].Key = keys.Next()
		}
	}
	return out
}

// shapedEnvelope is an upstream summary as the workload's interior peers
// send it: the tenant's value type, a level vector with one slot per tree.
func shapedEnvelope(sp *spec, t tenant, seed int64) *wire.Envelope {
	levels := make([]int16, sp.trees)
	for i := range levels {
		levels[i] = int16(1 + i)
	}
	return &wire.Envelope{
		S: tuple.Summary{
			Query:  t.name,
			Index:  tuple.Index{TB: 164 * sp.window, TE: 165 * sp.window},
			Value:  shapedValue(sp, t, seed),
			Age:    420 * time.Millisecond,
			Count:  sp.bf + 1,
			Hops:   1,
			Levels: levels,
		},
		Tree:   0,
		SentAt: 41 * time.Second,
	}
}

// timeOp runs fn in batches for about budget, resting pause between
// batches, and returns the median per-call nanoseconds across batches plus
// mallocs per call.
func timeOp(budget, pause time.Duration, batch int, fn func()) (ns, allocs float64) {
	for i := 0; i < batch; i++ {
		fn() // warm pools and caches
	}
	var per []float64
	var ms0, ms1 goruntime.MemStats
	goruntime.ReadMemStats(&ms0)
	calls := 0
	deadline := time.Now().Add(budget)
	for time.Now().Before(deadline) || len(per) < 5 {
		start := time.Now()
		for i := 0; i < batch; i++ {
			fn()
		}
		per = append(per, float64(time.Since(start).Nanoseconds())/float64(batch))
		calls += batch
		if pause > 0 {
			time.Sleep(pause)
		}
	}
	goruntime.ReadMemStats(&ms1)
	sort.Float64s(per)
	return per[len(per)/2], float64(ms1.Mallocs-ms0.Mallocs) / float64(calls)
}

// runMicro runs the micro-probes, after the federation has shut down so
// they compete with nothing and the malloc count is theirs alone. Figures are means across the workload's tenants
// where a layer's cost depends on the operator.
func (ps *probeSet) runMicro(sp *spec, seed int64) {
	const budget = 60 * time.Millisecond
	nT := float64(len(sp.tenants))

	// wire: envelopes and the batch an interior peer flushes to one parent
	// (one summary per tenant), through the public frame codec.
	batch := &wire.EnvelopeBatch{SentAt: 41 * time.Second}
	var encSum, decSum, decAllocs float64
	for _, t := range sp.tenants {
		env := shapedEnvelope(sp, t, seed)
		batch.Envelopes = append(batch.Envelopes, *env)
		w := wire.GetBuffer()
		ns, _ := timeOp(budget/2, 0, 256, func() {
			w.Reset()
			_ = wire.EncodeMessage(w, env) // shaped by this file: encodes
		})
		encSum += ns
		frame := append([]byte(nil), w.Bytes()...)
		wire.PutBuffer(w)
		ns, al := timeOp(budget/2, 0, 256, func() {
			_, _ = wire.DecodeMessage(frame) // decodes what the line above encoded
		})
		decSum, decAllocs = decSum+ns, decAllocs+al
	}
	ps.micro["wire.encode_summary_ns"] = encSum / nT
	ps.micro["wire.decode_envelope_ns"] = decSum / nT
	ps.micro["wire.decode_allocs_per_op"] = decAllocs / nT
	w := wire.GetBuffer()
	ps.micro["wire.encode_batch_ns"], _ = timeOp(budget, 0, 128, func() {
		w.Reset()
		_ = wire.EncodeMessage(w, batch)
	})
	bframe := append([]byte(nil), w.Bytes()...)
	wire.PutBuffer(w)
	ps.micro["wire.decode_batch_ns"], _ = timeOp(budget, 0, 128, func() {
		_, _ = wire.DecodeMessage(bframe)
	})
	ps.micro["wire.bytes_per_summary"] = float64(len(bframe)) / nT

	// ops: one raw into a window, and one child's value into a parent's.
	var mergeSum, combSum float64
	for _, t := range sp.tenants {
		op, err := ops.New(t.op, t.args)
		if err != nil {
			continue
		}
		raws := shapedRaws(sp, seed, 512)
		win, i := op.NewWindow(), 0
		ns, _ := timeOp(budget/2, 0, 512, func() {
			if i == len(raws) {
				win, i = op.NewWindow(), 0 // a window's worth, then the next window
			}
			win.Merge(raws[i])
			i++
		})
		mergeSum += ns
		a, b := shapedValue(sp, t, seed), shapedValue(sp, t, seed+1)
		ns, _ = timeOp(budget/2, 0, 64, func() { _ = op.Combine(a, b) })
		combSum += ns
	}
	ps.micro["ops.window_merge_ns_per_tuple"] = mergeSum / nT
	ps.micro["ops.combine_ns"] = combSum / nT

	// tslist: one window's life at an interior peer — the local summary
	// opens the entry, bf children merge into it, it expires and recycles
	// — with as many windows in flight as the result latency spans.
	var tsSum float64
	inflight := int(2*time.Second/sp.window) + 1
	for _, t := range sp.tenants {
		op, err := ops.New(t.op, t.args)
		if err != nil {
			continue
		}
		l := tslist.New(ops.CombineInPlaceNilAware(op))
		s := shapedEnvelope(sp, t, seed).S
		step := 0
		ns, _ := timeOp(budget, 0, 64, func() {
			tb := time.Duration(step) * sp.window
			s.Index = tuple.Index{TB: tb, TE: tb + sp.window}
			dl := tb + time.Duration(inflight)*sp.window
			for k := 0; k <= sp.bf; k++ {
				l.Insert(s, tb, dl)
			}
			for _, e := range l.PopExpired(tb) {
				l.Recycle(e)
			}
			step++
		})
		tsSum += ns
	}
	ps.micro["tslist.insert_merge_ns"] = tsSum / nT

	// netrt: the send path alone — header, pacer hand-off — to a peer whose
	// handler discards. Bursts stay well under the pacer queue.
	env := shapedEnvelope(sp, sp.tenants[0], seed)
	var fw wire.Buffer
	if err := wire.EncodeMessage(&fw, env); err == nil {
		frame := &runtime.Frame{Payload: env, Bytes: fw.Bytes()}
		// The rests keep the offered rate under the pacer's default 8 MiB/s,
		// so the probe times the send path and not the full-queue drop path.
		ps.micro["netrt.send_ns"], _ = timeOp(budget, 2*time.Millisecond, 128, func() {
			ps.echoRT.Send(0, 1, runtime.ClassData, fw.Len(), frame)
		})
	}
}

// planCoords returns coordinates to time the planner over: the gossiped
// embedding on netrt; on livert, whose coordinator-local embedding is not
// visible from outside, seed-derived points (the planner's cost depends on
// how many there are, not where).
func planCoords(f *fedn, seed int64) []cluster.Point {
	out := make([]cluster.Point, f.sp.peers)
	if f.net == nil {
		rng := rand.New(rand.NewSource(seed))
		for i := range out {
			out[i] = cluster.Point{40 * rng.Float64(), 40 * rng.Float64()}
		}
		return out
	}
	cc, _, known := f.net.Coordinates()
	for i, c := range cc {
		if !known[i] {
			return nil
		}
		out[i] = cluster.Point(c)
	}
	return out
}
