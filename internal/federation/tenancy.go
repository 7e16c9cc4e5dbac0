package federation

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/cluster"
	"repro/internal/mortar"
	"repro/internal/msl"
	"repro/internal/tuple"
)

// This file is the multi-tenant lifecycle layer: queries arrive and leave
// one at a time, concurrently, while the federation keeps running — the
// mode the HTTP gateway drives. The paper's efficiency argument (§6, Fig
// 13) depends on exactly this: hundreds of independent queries sharing one
// heartbeat/reconciliation mesh, so the marginal control cost of the next
// query is only its own install traffic plus tree-edge heartbeats the mesh
// union does not already carry.

// QuerySpec describes one query to install: the operator pipeline stage,
// its window, and the planner knobs. It is the programmatic form of one
// MSL statement, and the gateway's JSON install body decodes into it.
type QuerySpec struct {
	// Name uniquely identifies the query across the federation.
	Name string
	// Op and Args select the in-network operator from the registry.
	Op   string
	Args []string
	// Source is msl.SourceSensors ("sensors") for raw streams — the query
	// then spans every peer — or the name of an installed query whose root
	// output stream feeds this one (root-only composition, §2.2). Empty
	// defaults to sensors.
	Source string
	// FilterKey drops raw tuples whose key differs. Empty means no filter.
	FilterKey string
	// Window is the operator's sliding window.
	Window tuple.WindowSpec
	// Trees is the tree-set size D; 0 picks DefaultTrees.
	Trees int
	// BF is the branching factor; 0 picks DefaultBF.
	BF int
}

// QueryStatus is one installed query's liveness as seen from the
// coordinator: which epoch is current, how many peers have installed and
// wired it, and the membership size those counts are out of.
type QueryStatus struct {
	Name      string
	Epoch     uint32
	Members   int
	Installed int
	Wired     int
	// CtlBytes and DataBytes are this process's transmitted bytes
	// attributable to the query alone (install/remove/topology/ack traffic
	// and tuple envelopes; the shared heartbeat mesh is accounted
	// separately on the fabric).
	CtlBytes  uint64
	DataBytes uint64
}

// validate rejects a spec before any federation state is touched, so the
// gateway can map the error straight to a 400.
func (s QuerySpec) validate() error {
	if s.Name == "" {
		return fmt.Errorf("federation: query name must not be empty")
	}
	if s.Op == "" {
		return fmt.Errorf("federation: query %q: operator must not be empty", s.Name)
	}
	if err := s.Window.Validate(); err != nil {
		return fmt.Errorf("federation: query %q: %w", s.Name, err)
	}
	if s.Trees < 0 || s.BF < 0 {
		return fmt.Errorf("federation: query %q: negative planner knobs", s.Name)
	}
	return nil
}

// InstallQuery plans and installs one query over the running federation,
// planning against the current latency view (the gossiped Vivaldi
// embedding when available). Safe to call concurrently with other
// installs, removals, and the replanning monitor. The query starts
// receiving sensor input immediately: sensors feed every non-draining
// instance at a peer, so no per-query sensor wiring is needed.
func (f *Federation) InstallQuery(spec QuerySpec) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	coords, _, _ := f.currentView(f.replanRngLocked())
	return f.installSpecLocked(spec, coords, f.Rt.Clock(0).Now())
}

// installSpecLocked validates, compiles, installs, and (for composed
// queries) chains one spec. Callers hold f.mu.
func (f *Federation) installSpecLocked(spec QuerySpec, coords []cluster.Point, now time.Duration) error {
	if err := spec.validate(); err != nil {
		return err
	}
	if spec.Source == "" {
		spec.Source = msl.SourceSensors
	}
	if _, exists := f.defs[spec.Name]; exists {
		return fmt.Errorf("federation: query %q already installed", spec.Name)
	}
	if spec.Source != msl.SourceSensors {
		if _, ok := f.defs[spec.Source]; !ok {
			return fmt.Errorf("federation: query %q sources unknown query %q", spec.Name, spec.Source)
		}
	}
	trees, bf := spec.Trees, spec.BF
	if trees == 0 {
		trees = DefaultTrees
	}
	if bf == 0 {
		bf = DefaultBF
	}
	f.seq++
	meta := mortar.QueryMeta{
		Name:      spec.Name,
		Seq:       f.seq,
		OpName:    spec.Op,
		OpArgs:    spec.Args,
		Window:    spec.Window,
		FilterKey: spec.FilterKey,
		Root:      0,
		IssuedSim: now,
	}
	var def *mortar.QueryDef
	var err error
	if spec.Source == msl.SourceSensors {
		def, err = f.Fab.Compile(meta, nil, coords, bf, trees)
	} else {
		// Downstream query: a root-only operator fed by subscription.
		def, err = f.Fab.Compile(meta, []int{0}, coords[:1], bf, 1)
	}
	if err != nil {
		f.seq-- // nothing was issued
		return fmt.Errorf("federation: query %q: %w", spec.Name, err)
	}
	// Armed before the install, so a report made before Install returns is
	// recorded.
	f.Ledger.arm(spec.Name)
	if err := f.Fab.Install(0, def); err != nil {
		f.Ledger.drop(spec.Name)
		return fmt.Errorf("federation: query %q: %w", spec.Name, err)
	}
	f.defs[spec.Name] = def
	if spec.Source != msl.SourceSensors {
		f.chains[spec.Name] = f.Fab.Chain(spec.Source, 0)
		f.chainSrc[spec.Name] = spec.Source
	}
	return nil
}

// RemoveQuery uninstalls one query: its subscription chain (if composed)
// is severed first so no further tuples enter, then an epoch-wildcard
// Remove multicast drains every instance across the mesh, and the ledger
// forgets the query and closes its streams. Removing a query other queries
// still source is rejected — their chains would feed a tombstone forever.
func (f *Federation) RemoveQuery(name string) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if _, ok := f.defs[name]; !ok {
		return fmt.Errorf("federation: unknown query %q", name)
	}
	for down, src := range f.chainSrc {
		if src == name {
			return fmt.Errorf("federation: query %q still feeds %q; remove the downstream query first", name, down)
		}
	}
	if cancel, ok := f.chains[name]; ok {
		cancel()
		delete(f.chains, name)
		delete(f.chainSrc, name)
	}
	f.seq++
	if err := f.Fab.Remove(0, name, f.seq); err != nil {
		f.seq--
		return fmt.Errorf("federation: remove %q: %w", name, err)
	}
	delete(f.defs, name)
	f.Ledger.drop(name)
	return nil
}

// QueryCount returns how many queries are installed. Unlike Queries it
// never enters a peer's serialization domain, so it is cheap enough to call
// under a lock (the gateway's admission path).
func (f *Federation) QueryCount() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return len(f.defs)
}

// Queries lists every installed query's status, sorted by name. The
// per-epoch counts enter each local peer's serialization domain, so do not
// call this while holding a lock a fabric subscription callback takes.
func (f *Federation) Queries() []QueryStatus {
	f.mu.Lock()
	names := make([]string, 0, len(f.defs))
	defs := make(map[string]*mortar.QueryDef, len(f.defs))
	for name, def := range f.defs {
		names = append(names, name)
		defs[name] = def
	}
	f.mu.Unlock()
	sort.Strings(names)
	out := make([]QueryStatus, 0, len(names))
	for _, name := range names {
		def := defs[name]
		st := QueryStatus{Name: name}
		if def != nil {
			st.Epoch = def.Meta.Epoch
			st.Members = len(def.Members)
			st.Installed, st.Wired = f.Fab.Counts(name, def.Meta.Epoch)
		}
		st.CtlBytes, st.DataBytes = f.Fab.QueryTraffic(name)
		out = append(out, st)
	}
	return out
}
