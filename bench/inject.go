package main

import (
	"math/rand"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/bench/measure"
	"repro/internal/runtime"
	"repro/internal/tuple"
	"repro/internal/workload"
)

// lateSample is how late one open-loop tick was offered.
type lateSample struct {
	at time.Time
	ms float64
}

// injector is a federation's single load generator goroutine. Every raw
// tuple carries Vals = [1, stamp_us]: field 0 is the unit of value mass the
// sum tenants conserve, field 1 the generator clock when the tuple was due
// (microseconds since the bench epoch), which the lat tenant's max turns
// into "creation time of the last event that contributed" per window.
type injector struct {
	f     *fedn
	epoch time.Time
	rec   *measure.Recorder
	keys  *workload.ZipfKeys // nil unless the workload draws Zipf keys

	stop chan struct{}
	done chan struct{}

	// tuples counts tuples offered by run; callNs/callTuples time the
	// sampled InjectBatch calls of a traced run.
	tuples     atomic.Uint64
	callNs     atomic.Int64
	callTuples atomic.Int64

	mu   sync.Mutex
	late []lateSample
}

func newInjector(f *fedn, epoch time.Time, seed int64, rec *measure.Recorder) *injector {
	in := &injector{f: f, epoch: epoch, rec: rec, stop: make(chan struct{}), done: make(chan struct{})}
	if f.sp.zipfKeys {
		in.keys = workload.NewZipfKeys(rand.New(rand.NewSource(seed^0x7a697066)), 1.2, 4096)
	}
	return in
}

// halt stops run and waits for it; from then on nothing more is offered.
func (in *injector) halt() {
	close(in.stop)
	<-in.done
}

func (in *injector) stampUs(t time.Time) float64 {
	return float64(t.Sub(in.epoch).Nanoseconds()) / 1e3
}

func (in *injector) lateSamples() []lateSample {
	in.mu.Lock()
	defer in.mu.Unlock()
	return append([]lateSample(nil), in.late...)
}

// run is the generator goroutine: the workload's own loop until halt.
func (in *injector) run() {
	defer close(in.done)
	stopped := func() bool {
		select {
		case <-in.stop:
			return true
		default:
			return false
		}
	}
	if in.f.sp.closedLoop {
		for batchNo := 0; !stopped(); {
			batchNo = in.burst(batchNo)
		}
		return
	}
	// Ticks fall half a grid step after the grid lines the window
	// boundaries sit on (see tickGrid).
	alignClock(in.f.rt.Clock(0), tickGrid, tickGrid/2)
	ticks := &measure.Ticks{Start: time.Now(), Period: in.f.sp.tickEvery}
	for tickNo := 0; !stopped(); tickNo++ {
		due, late := ticks.Next()
		start := time.Now()
		offered := in.offer(due)
		if in.rec != nil && tickNo%64 == 0 {
			end := time.Now()
			in.rec.Add("workload.inject", in.f.id("tick/"+strconv.Itoa(tickNo)), "", start, end)
			in.callNs.Add(end.Sub(start).Nanoseconds())
			in.callTuples.Add(int64(offered))
		}
		in.tuples.Add(uint64(offered))
		in.mu.Lock()
		in.late = append(in.late, lateSample{at: due, ms: float64(late.Nanoseconds()) / 1e6})
		in.mu.Unlock()
	}
}

// offer gives every live peer one open-loop round — perTick tuples stamped
// with the round's due time, so a late generator shows up in the result
// latency instead of hiding behind it — and returns how many it offered.
// Set-up uses one such round to prime every peer's source stream.
func (in *injector) offer(due time.Time) int {
	sp, fab, tr := in.f.sp, in.f.fed.Fab, in.f.rt.Transport()
	perTick := sp.perTick
	latKey := sp.tenants[0].filterKey // tenants[0] is lat
	stamp := in.stampUs(due)
	offered := 0
	for p := 0; p < sp.peers; p++ {
		if tr.Down(p) {
			continue // a fail-stopped node's sensors are down with it
		}
		b := fab.GetRawBatch(perTick)
		vals := []float64{1, stamp}
		for i := 0; i < perTick; i++ {
			raw := tuple.Raw{Vals: vals}
			switch {
			case i == 0 && latKey != "":
				raw.Key = latKey
			case in.keys != nil:
				raw.Key = in.keys.Next()
			}
			b = append(b, raw)
		}
		fab.InjectBatch(p, b)
		offered += perTick
	}
	return offered
}

var unitVals = []float64{1}

// burst is one closed-loop round: barrierEvery pooled 64-tuple batches
// round-robin, then a drain barrier on every peer, so the generator can
// run no further ahead than the peers absorb. Every latEveryBatches'th
// batch of a peer leads with one stamped lat tuple: the lat tenant's max
// keeps every raw of a window, so it is fed a trickle, not the flood.
func (in *injector) burst(batchNo int) int {
	sp, fab := in.f.sp, in.f.fed.Fab
	for i := 0; i < barrierEvery; i++ {
		p := batchNo % sp.peers
		b := fab.GetRawBatch(batchTuples)
		if (batchNo/sp.peers)%latEveryBatches == 0 {
			b = append(b, tuple.Raw{Key: latName, Vals: []float64{1, in.stampUs(time.Now())}})
		}
		for len(b) < batchTuples {
			b = append(b, tuple.Raw{Vals: unitVals})
		}
		if in.rec != nil && batchNo%64 == 0 {
			start := time.Now()
			fab.InjectBatch(p, b)
			end := time.Now()
			in.rec.Add("workload.inject", in.f.id("batch/"+strconv.Itoa(batchNo)), "", start, end)
			in.callNs.Add(end.Sub(start).Nanoseconds())
			in.callTuples.Add(batchTuples)
		} else {
			fab.InjectBatch(p, b)
		}
		batchNo++
	}
	for p := 0; p < sp.peers; p++ {
		runtime.ExecWait(in.f.rt, p, func() {})
	}
	in.tuples.Add(barrierEvery * batchTuples)
	return batchNo
}
