package federation

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cluster"
	"repro/internal/mortar"
	"repro/internal/plan"
	"repro/internal/vivaldi"
)

// ErrNoImprovement is returned by Replan when none of the candidate plans
// beats the deployed one under the current latency view: nothing is
// installed and no epoch is spent. A migration costs install traffic and
// doubled data-plane work while both epochs run — it is only ever worth
// paying for a strictly better plan.
var ErrNoImprovement = errors.New("federation: replan would not improve the deployed plan")

// replanCandidates is how many randomized plans Replan draws before
// concluding no improvement exists (plan.Build's clustering is
// randomized; one draw can be unlucky).
const replanCandidates = 4

// This file is the live-replanning layer: Replan compiles and installs
// the next epoch of a running query from the current latency view, and
// Monitor watches the (gossiped) Vivaldi embedding for drift, triggering
// Replan when the deployed tree set has degraded materially past what a
// fresh plan would cost. The epoch hand-off itself — side-by-side epochs,
// install acks, make-before-break retirement — lives in internal/mortar;
// this layer only decides when a migration is worth its traffic.

// ReplanResult describes one completed replan: the new epoch installed
// and the deployed-versus-new plan cost under the latency view the
// decision was made from (plan.Quality — mean peer-to-root latency).
type ReplanResult struct {
	Query      string
	Epoch      uint32
	OldCost    time.Duration
	NewCost    time.Duration
	FromCoords bool // the view was the gossiped embedding, not measured RTTs
}

// memberModel reindexes a peer-indexed latency model into a query's
// member space, where the planned trees live.
type memberModel struct {
	m       plan.LatencyModel
	members []int
}

func (mm memberModel) Latency(a, b int) time.Duration {
	if a < 0 || b < 0 || a >= len(mm.members) || b >= len(mm.members) {
		return 0
	}
	return mm.m.Latency(mm.members[a], mm.members[b])
}

// replanRngLocked returns the federation's replanning random source,
// creating it on first use — lazily, so federations that never replan
// draw nothing extra from any stream and simulated figure runs are
// untouched.
func (f *Federation) replanRngLocked() *rand.Rand {
	if f.planRng == nil {
		f.planRng = rand.New(rand.NewSource(0x6d6f727461727031))
	}
	return f.planRng
}

// currentView returns the planner's present latency view: the gossiped
// Vivaldi embedding when the runtime covers every peer (the decentralized
// path), else a coordinator-local embedding over the transport's measured
// latencies, which only prices pairs this process can measure. NewRuntimeCfg
// plans from it too, so a partially gossiped coordinate set never places the
// unheard peers at arbitrary positions.
func (f *Federation) currentView(rng *rand.Rand) ([]cluster.Point, plan.LatencyModel, bool) {
	n := f.Rt.NumPeers()
	if coords := gossipedCoords(f.Rt, n); coords != nil {
		return coords, plan.CoordModel{Coords: coords}, true
	}
	tr := f.Rt.Transport()
	sys := vivaldi.NewSystem(n, rng)
	sys.Run(10, 8, func(i, j int) time.Duration { return tr.Latency(i, j) })
	coords := make([]cluster.Point, n)
	for i, c := range sys.Coordinates() {
		coords[i] = cluster.Point(c)
	}
	return coords, plan.LatencyFunc(tr.Latency), false
}

// Replan compiles the named query's next epoch from the current latency
// view and installs it. The new epoch runs beside the old one — tuples
// flow through both tree sets — until every member acks the new wiring
// and its completeness catches up, at which point the root retires the
// old epoch with an epoch-scoped Remove multicast (make-before-break; see
// internal/mortar). The root starts the new epoch's frame at its running
// epoch's frame time, so both epochs index windows in the same frame.
// Safe to call from the monitor goroutine.
func (f *Federation) Replan(name string) (ReplanResult, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	def := f.defs[name]
	if def == nil {
		return ReplanResult{}, fmt.Errorf("federation: unknown query %q", name)
	}
	if len(def.Members) < 2 {
		return ReplanResult{}, fmt.Errorf("federation: query %q has no tree to replan", name)
	}
	rng := f.replanRngLocked()
	coords, model, fromCoords := f.currentView(rng)
	memberCoords := make([]cluster.Point, len(def.Members))
	for i, m := range def.Members {
		if m < 0 || m >= len(coords) {
			return ReplanResult{}, fmt.Errorf("federation: member %d outside coordinate set", m)
		}
		memberCoords[i] = coords[m]
	}

	f.seq++
	meta := def.Meta
	meta.Seq = f.seq
	meta.Epoch++
	bf := def.Trees.Trees[0].BF
	d := def.Trees.D()
	// The installed plan must be the plan the decision is about: draw a
	// few candidates, score each under the same view, and install only a
	// strict improvement over the deployed trees — never a random draw
	// whose cost was not evaluated.
	mm := memberModel{m: model, members: def.Members}
	oldCost := plan.Quality(mm, def.Trees)
	var newDef *mortar.QueryDef
	var newCost time.Duration
	for i := 0; i < replanCandidates; i++ {
		cand, err := f.Fab.CompileWith(meta, def.Members, memberCoords, bf, d, rng)
		if err != nil {
			f.seq-- // nothing was issued
			return ReplanResult{}, fmt.Errorf("federation: replan %q: %w", name, err)
		}
		if q := plan.Quality(mm, cand.Trees); newDef == nil || q < newCost {
			newDef, newCost = cand, q
		}
	}
	if newCost >= oldCost {
		f.seq-- // nothing was issued
		return ReplanResult{Query: name, Epoch: def.Meta.Epoch, OldCost: oldCost, NewCost: newCost, FromCoords: fromCoords},
			ErrNoImprovement
	}
	if err := f.Fab.Install(meta.Root, newDef); err != nil {
		return ReplanResult{}, fmt.Errorf("federation: replan %q: %w", name, err)
	}
	res := ReplanResult{
		Query:      name,
		Epoch:      meta.Epoch,
		OldCost:    oldCost,
		NewCost:    newCost,
		FromCoords: fromCoords,
	}
	// f.Model is deliberately NOT updated: it is an exported, unguarded
	// field documenting the view the initial plans were made from, and
	// writing it from the monitor goroutine would race every reader.
	f.defs[name] = newDef
	return res, nil
}

// MonitorOptions tunes the drift monitor. Zero values pick the defaults.
type MonitorOptions struct {
	// Interval is the poll period. Default 2s.
	Interval time.Duration
	// Threshold is the relative degradation that arms a replan: the
	// deployed plan's cost under the current view must exceed a fresh
	// candidate's by this fraction. Default 0.25.
	Threshold float64
	// Hysteresis is how many consecutive polls must breach the threshold
	// before a replan fires, so measurement jitter cannot thrash the
	// federation. Default 2.
	Hysteresis int
	// MinReplanInterval is the shortest time between two replans of the
	// same query — migrations cost install traffic and double data-plane
	// work while both epochs run; this bounds that overhead. Default 30s.
	MinReplanInterval time.Duration
	// OnReplan, when set, observes every completed replan (monitor
	// goroutine).
	OnReplan func(ReplanResult)
	// OnError, when set, observes replan failures other than
	// ErrNoImprovement (monitor goroutine) — a federation whose replans
	// permanently fail should not look like a healthy quiet one.
	OnError func(query string, err error)
}

func (o MonitorOptions) withDefaults() MonitorOptions {
	if o.Interval <= 0 {
		o.Interval = 2 * time.Second
	}
	if o.Threshold <= 0 {
		o.Threshold = 0.25
	}
	if o.Hysteresis <= 0 {
		o.Hysteresis = 2
	}
	if o.MinReplanInterval <= 0 {
		o.MinReplanInterval = 30 * time.Second
	}
	return o
}

// Monitor watches the federation's latency view and replans queries whose
// deployed trees have drifted materially from what the current embedding
// would plan. Wall-clock driven: use it on the live runtime (netrt),
// not inside the discrete-event simulator.
type Monitor struct {
	f   *Federation
	opt MonitorOptions

	stop     chan struct{}
	done     chan struct{}
	stopOnce sync.Once

	replans atomic.Uint64
}

// StartMonitor begins drift monitoring with the given options and returns
// the running monitor. Call Stop before shutting the runtime down.
func (f *Federation) StartMonitor(opt MonitorOptions) *Monitor {
	m := &Monitor{
		f:    f,
		opt:  opt.withDefaults(),
		stop: make(chan struct{}),
		done: make(chan struct{}),
	}
	go m.loop()
	return m
}

// Stop ends monitoring and waits for the monitor goroutine to exit.
func (m *Monitor) Stop() {
	m.stopOnce.Do(func() { close(m.stop) })
	<-m.done
}

// Replans returns how many replans this monitor has triggered.
func (m *Monitor) Replans() uint64 { return m.replans.Load() }

func (m *Monitor) loop() {
	defer close(m.done)
	t := time.NewTicker(m.opt.Interval)
	defer t.Stop()
	breaches := map[string]int{}
	lastReplan := map[string]time.Time{}
	// The candidate planner draws from its own stream: candidate builds
	// race nothing and replans use the federation's replanning source.
	rng := rand.New(rand.NewSource(0x647269667431))
	for {
		select {
		case <-m.stop:
			return
		case <-t.C:
		}
		names := m.f.queryNames()
		if len(names) == 0 {
			continue
		}
		// One view per poll: every query is judged against the same one.
		coords, model, _ := m.f.currentView(rng)
		for _, name := range names {
			if m.degraded(name, coords, model, rng) {
				breaches[name]++
			} else {
				breaches[name] = 0
			}
			if breaches[name] < m.opt.Hysteresis {
				continue
			}
			if last, ok := lastReplan[name]; ok && time.Since(last) < m.opt.MinReplanInterval {
				continue
			}
			res, err := m.f.Replan(name)
			if err != nil {
				// Drop back to re-arming through hysteresis instead of
				// re-attempting every poll. ErrNoImprovement is the
				// benign case; anything else is a real failure and must
				// be surfaced, not swallowed.
				breaches[name] = 0
				if !errors.Is(err, ErrNoImprovement) && m.opt.OnError != nil {
					m.opt.OnError(name, err)
				}
				continue
			}
			breaches[name] = 0
			lastReplan[name] = time.Now()
			m.replans.Add(1)
			if m.opt.OnReplan != nil {
				m.opt.OnReplan(res)
			}
		}
	}
}

// queryNames snapshots the replannable query names.
func (f *Federation) queryNames() []string {
	f.mu.Lock()
	defer f.mu.Unlock()
	names := make([]string, 0, len(f.defs))
	for name, def := range f.defs {
		if def != nil && len(def.Members) >= 2 {
			names = append(names, name)
		}
	}
	return names
}

// degraded scores one query's deployed plan against a fresh candidate
// under the poll's latency view and reports whether the deployed cost
// exceeds the candidate's by more than the threshold.
func (m *Monitor) degraded(name string, coords []cluster.Point, model plan.LatencyModel, rng *rand.Rand) bool {
	f := m.f
	f.mu.Lock()
	def := f.defs[name]
	f.mu.Unlock()
	if def == nil || len(def.Members) < 2 {
		return false
	}
	memberCoords := make([]cluster.Point, len(def.Members))
	rootIdx := -1
	for i, mm := range def.Members {
		if mm < 0 || mm >= len(coords) {
			return false
		}
		memberCoords[i] = coords[mm]
		if mm == def.Meta.Root {
			rootIdx = i
		}
	}
	if rootIdx < 0 {
		return false
	}
	bf := def.Trees.Trees[0].BF
	d := def.Trees.D()
	candidate := plan.Build(memberCoords, rootIdx, bf, d, rng)
	mm := memberModel{m: model, members: def.Members}
	cur := plan.Quality(mm, def.Trees)
	cand := plan.Quality(mm, candidate)
	if cand <= 0 {
		return false
	}
	return float64(cur) > (1+m.opt.Threshold)*float64(cand)
}
