// Package federation is the high-level entry point this library's
// applications use: it takes a parsed Mortar Stream Language program and a
// runtime backend, plans and installs every query (chaining subscriptions
// for queries that source other queries' output streams), and exposes
// sensor injection and failure control. The mortard command and the
// examples are thin wrappers around it.
//
// The constructors take any runtime.Runtime — the deterministic simulator
// (runtime/simrt) or goroutine peers over UDP sockets (runtime/netrt, whole
// federations in one process through runtime/livert) — and the caller
// drives that backend's lifecycle.
package federation

import (
	"fmt"
	"io"
	"math/rand"
	"sync"
	"time"

	"repro/internal/cluster"
	"repro/internal/mortar"
	"repro/internal/msl"
	"repro/internal/plan"
	"repro/internal/runtime"
	"repro/internal/tuple"
	"repro/internal/vivaldi"
)

// Defaults applied when an MSL statement omits planner knobs.
const (
	DefaultTrees = 4
	DefaultBF    = 16
)

// CoordSource is implemented by runtimes whose peers gossip Vivaldi
// coordinates (runtime/netrt): Coordinates reports this process's view of
// every peer's coordinate and error estimate, with known[i] false where
// nothing has been gossiped yet. When the whole federation is covered,
// planning consumes the gossiped coordinates directly — worker processes
// embedded themselves from their own measurements, so pair latencies the
// coordinator never probed are still priced correctly.
type CoordSource interface {
	Coordinates() (coords []vivaldi.Coordinate, errs []float64, known []bool)
}

// Federation is a running set of queries over a node set.
type Federation struct {
	Fab  *mortar.Fabric
	Prog *msl.Program
	Rt   runtime.Runtime
	// Model is the latency view the queries were *initially* planned
	// against: coordinate distance when planning used gossiped
	// coordinates, measured transport latency otherwise. It is set once
	// by the constructor and never mutated afterwards (replans evaluate a
	// fresh view internally and report costs in ReplanResult instead).
	Model plan.LatencyModel
	// PlannedFromCoords reports whether planning consumed gossiped Vivaldi
	// coordinates (a CoordSource runtime with full coverage) instead of
	// running a coordinator-local embedding over Transport.Latency.
	PlannedFromCoords bool
	// Ledger records every installed query's root results: the best report
	// of each recent window, and the stream fan-out the gateway serves.
	Ledger *Ledger

	// mu guards defs, chains and seq: the replanning monitor and the
	// gateway's install/remove paths mutate them from their own goroutines
	// while the driving goroutine reads definitions.
	mu       sync.Mutex
	defs     map[string]*mortar.QueryDef
	chains   map[string]func() // per-query subscription chain cancels, keyed by downstream query
	chainSrc map[string]string // downstream query -> source query it subscribes to
	down     []int
	seq      uint64
	planRng  *rand.Rand // lazy; replanning only — never perturbs the setup rng stream
}

// NewRuntimeCfg plans and installs every query of prog over any runtime
// backend with the given mortar configuration (mortar.DefaultConfig() is
// the paper's). Queries sourcing "sensors" span all peers; queries
// sourcing another query run at their root only and are fed by
// subscription (§2.2 composition). prog may be nil: the federation then
// starts with zero queries and serves installs arriving later through
// InstallQuery — the gateway's multi-tenant mode, where every query enters
// over HTTP.
func NewRuntimeCfg(rt runtime.Runtime, prog *msl.Program, rng *rand.Rand, cfg mortar.Config) (*Federation, error) {
	f, err := newFederation(rt, cfg)
	if err != nil {
		return nil, err
	}
	f.Prog = prog

	// Network coordinates for planning, as the prototype sources them from
	// Vivaldi (§3.1) — the same view a later replan or tenant install takes.
	var coords []cluster.Point
	coords, f.Model, f.PlannedFromCoords = f.currentView(rng)

	if prog != nil {
		f.mu.Lock()
		defer f.mu.Unlock()
		for _, st := range prog.Statements {
			spec := QuerySpec{
				Name:      st.Name,
				Op:        st.Op,
				Args:      st.Args,
				Source:    st.Source,
				FilterKey: st.FilterKey,
				Window:    st.Window,
				Trees:     st.Trees,
				BF:        st.BF,
			}
			if err := f.installSpecLocked(spec, coords); err != nil {
				return nil, err
			}
		}
	}
	return f, nil
}

// newFederation builds the fabric, an empty query table and the result
// ledger over rt.
func newFederation(rt runtime.Runtime, cfg mortar.Config) (*Federation, error) {
	fab, err := mortar.NewFabric(rt, cfg)
	if err != nil {
		return nil, err
	}
	f := &Federation{
		Fab:      fab,
		Rt:       rt,
		Ledger:   newLedger(),
		defs:     map[string]*mortar.QueryDef{},
		chains:   map[string]func(){},
		chainSrc: map[string]string{},
	}
	fab.SubscribeAll(f.Ledger.Record)
	return f, nil
}

// gossipedCoords returns planning points from the runtime's gossiped
// Vivaldi coordinates, or nil when the runtime is not a CoordSource or
// some peer has not gossiped yet (planning then falls back to the local
// embedding — a partially covered coordinate set would place the unheard
// peers at arbitrary positions).
func gossipedCoords(rt runtime.Runtime, n int) []cluster.Point {
	cs, ok := rt.(CoordSource)
	if !ok {
		return nil
	}
	cc, _, known := cs.Coordinates()
	out := make([]cluster.Point, n)
	for i := 0; i < n; i++ {
		if i >= len(cc) || !known[i] {
			return nil
		}
		out[i] = cluster.Point(cc[i])
	}
	return out
}

// NewWorker builds a fabric over a runtime that hosts a subset of the
// federation's peers (a netrt worker process) without planning or
// installing anything: workers receive their operators through the
// coordinator's install multicast and pair-wise reconciliation, exactly as
// recovered peers do. Only the coordinator — the process hosting the query
// roots — runs NewRuntimeCfg.
func NewWorker(rt runtime.Runtime) (*Federation, error) {
	return newFederation(rt, mortar.DefaultConfig())
}

// Def returns the compiled definition of a query — the newest epoch's.
func (f *Federation) Def(name string) *mortar.QueryDef {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.defs[name]
}

// StartSensors emits one tuple per period per peer using gen, with
// per-peer phase jitter. gen runs inside each peer's serialization domain;
// under a live runtime that means concurrently across peers, so it must
// not share mutable state between peers. On a runtime hosting only a
// subset of the federation (a netrt process), sensors start for the local
// peers only — each process feeds its own peers. The phase draw happens
// for every peer regardless, so the rng stream (and thus simulated runs)
// is independent of locality.
func (f *Federation) StartSensors(period time.Duration, gen func(peer int) tuple.Raw, rng *rand.Rand) {
	for i := 0; i < f.Fab.NumPeers(); i++ {
		i := i
		phase := time.Duration(rng.Int63n(int64(period)))
		if !runtime.IsLocal(f.Rt, i) {
			continue
		}
		ck := f.Rt.Clock(i)
		ck.After(phase, func() {
			ck.Every(period, func() {
				f.Fab.Inject(i, gen(i))
			})
		})
	}
}

// PrintResults streams every root result to w as it is reported. It
// attaches through the fabric's synchronized subscription path and
// serializes the writer, so it is safe to call while a live federation is
// already running.
func (f *Federation) PrintResults(w io.Writer) {
	var mu sync.Mutex
	f.Fab.SubscribeAll(func(r mortar.Result) {
		mu.Lock()
		defer mu.Unlock()
		fmt.Fprintf(w, "t=%-8v query=%-10s window=%-4d value=%v completeness=%d hops=%d\n",
			r.At.Truncate(time.Millisecond), r.Query, r.WindowIndex, r.Value, r.Count, r.Hops)
	})
}

// FailRandom disconnects random non-root peers until n of them are down
// through it. n is clamped to what can still be failed: the peers it
// already holds down plus the non-root peers still up (asking for more,
// say when a chaos schedule already took some down, would otherwise spin
// forever redrawing down peers).
func (f *Federation) FailRandom(n int, rng *rand.Rand) {
	canFail := len(f.down)
	for p := 1; p < f.Fab.NumPeers(); p++ {
		if !f.Fab.Down(p) {
			canFail++
		}
	}
	n = min(n, canFail)
	for len(f.down) < n {
		p := 1 + rng.Intn(f.Fab.NumPeers()-1)
		if !f.Fab.Down(p) {
			f.Fab.SetDown(p, true)
			f.down = append(f.down, p)
		}
	}
}

// RecoverAll reconnects every disconnected peer.
func (f *Federation) RecoverAll() {
	for _, p := range f.down {
		f.Fab.SetDown(p, false)
	}
	f.down = nil
}
