// Package mortar is the core of this reproduction: the Mortar peer runtime.
// It glues the substrates together into the system the paper describes —
// continuous queries planned onto static tree sets (internal/plan), tuples
// striped dynamically across the trees (§3.3), time-division data
// partitioning through per-operator time-space lists (§4, internal/tslist),
// syncless age-based indexing (§5), shared heartbeats, and pair-wise
// reconciliation for eventually consistent query installation (§6).
//
// Peers are single-threaded event-driven actors, mirroring the prototype's
// SEDA design, written against the internal/runtime interfaces: the same
// Fabric runs inside the deterministic simulator backend (runtime/simrt,
// used by the figure experiments) or with one goroutine per peer over UDP
// sockets (runtime/netrt; runtime/livert hosts a whole federation on one).
package mortar

import (
	"fmt"
	"time"

	"repro/internal/ops"
	"repro/internal/plan"
	"repro/internal/tuple"
	"repro/internal/wire"
)

// QueryMeta is the part of a query definition every hosting peer keeps: the
// operator type, its query-specific arguments, and the window. It is small
// and travels in install and reconciliation messages; tree topology stays
// at the query root, which acts as the topology server (§6.1). The shape
// (and its codec) lives in internal/wire; see wire.QueryMeta for the field
// documentation.
type QueryMeta = wire.QueryMeta

// QueryDef is the full compiled query: metadata plus the planned tree set
// and the member list mapping tree indices to peer IDs (queries are scoped:
// only the nodes that provide data participate, §2.1). Only the issuing
// peer and the query root hold it.
type QueryDef struct {
	Meta QueryMeta
	// Trees is the planned tree set over member indices 0..len(Members)-1.
	Trees *plan.Set
	// Members maps member index to fabric peer ID.
	Members []int
}

// Validate checks the definition before installation.
func (d *QueryDef) Validate() error {
	if d.Meta.Name == "" {
		return fmt.Errorf("mortar: query needs a name")
	}
	op, err := ops.New(d.Meta.OpName, d.Meta.OpArgs)
	if err != nil {
		return fmt.Errorf("mortar: %v", err)
	}
	if err := d.Meta.Window.Validate(); err != nil {
		return err
	}
	if err := ops.CheckWindow(op, d.Meta.Window); err != nil {
		return fmt.Errorf("mortar: %v", err)
	}
	if d.Trees == nil || d.Trees.D() < 1 {
		return fmt.Errorf("mortar: query needs a planned tree set")
	}
	if len(d.Members) != d.Trees.NumPeers() {
		return fmt.Errorf("mortar: %d members for %d tree peers", len(d.Members), d.Trees.NumPeers())
	}
	rootIdx := d.Trees.Trees[0].Root
	if d.Meta.Root != d.Members[rootIdx] {
		return fmt.Errorf("mortar: meta root %d != tree root peer %d", d.Meta.Root, d.Members[rootIdx])
	}
	return nil
}

// memberIndex returns the tree index of a peer, or -1 if the peer is not in
// the query's node set.
func (d *QueryDef) memberIndex(peer int) int {
	for i, m := range d.Members {
		if m == peer {
			return i
		}
	}
	return -1
}

// neighbors is one peer's position in a query's tree set: its parent,
// children, level and subtree size per tree. This is what the install
// multicast carries per node and what the topology service returns during
// recovery. The shape (and its codec) lives in internal/wire as
// wire.Neighbors.
type neighbors = wire.Neighbors

// subtreeSizes returns every member's subtree size on every tree of the
// set, indexed [tree][member]: one pass per tree, shared by all the members
// a caller extracts positions for.
func (d *QueryDef) subtreeSizes() [][]int {
	sizes := make([][]int, d.Trees.D())
	for i, t := range d.Trees.Trees {
		sizes[i] = t.SubtreeSizes()
	}
	return sizes
}

// neighborsFor extracts a member's position, translating member indices to
// peer IDs; sizes is d.subtreeSizes().
func neighborsFor(d *QueryDef, sizes [][]int, memberIdx int) neighbors {
	s := d.Trees
	nb := neighbors{
		Parents:  make([]int, s.D()),
		Children: make([][]int, s.D()),
		Levels:   make([]int, s.D()),
		Subtree:  make([]int, s.D()),
	}
	for i, t := range s.Trees {
		if pa := t.Parent[memberIdx]; pa >= 0 {
			nb.Parents[i] = d.Members[pa]
		} else {
			nb.Parents[i] = -1
		}
		for _, c := range t.Children[memberIdx] {
			nb.Children[i] = append(nb.Children[i], d.Members[c])
		}
		nb.Levels[i] = t.Level[memberIdx]
		nb.Subtree[i] = sizes[i][memberIdx]
	}
	return nb
}

// Result is one answer emitted by a query's root operator.
type Result struct {
	Query string
	// Epoch is the plan epoch whose root reported this result. During a
	// migration both epochs report; consumers judging completeness should
	// take the per-window maximum across epochs.
	Epoch uint32
	// WindowIndex is the root-local logical slide number (time windows).
	WindowIndex int64
	// Index is the validity interval in the root's local frame.
	Index tuple.Index
	// Value is the finalized user-facing value.
	Value tuple.Value
	// Count is the completeness field: participants reflected in the value.
	Count int
	// Hops is the maximum overlay path length among merged tuples.
	Hops int
	// At is the time the root reported the result, on the root's clock.
	At time.Duration
	// Age is the averaged constituent age at report time.
	Age time.Duration
}
