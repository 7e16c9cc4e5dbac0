// Package plan implements Mortar's physical dataflow planner (§3): building
// a network-aware "primary" aggregation tree by recursive clustering of
// network coordinates, deriving sibling trees through random rotations that
// trade a little clustering for path diversity, and random trees as the
// baseline the paper compares against in Figure 17.
//
// The planner works on peer indices 0..n-1; callers map those to transport
// addresses. Every peer in the node set appears in every tree exactly once
// — Mortar deploys an operator at each source so data is reduced before it
// crosses the network.
package plan

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"repro/internal/cluster"
)

// LatencyModel is the planner's view of the network: an estimate of the
// one-way latency between any two peers. Two families back it — measured
// RTTs from a transport (LatencyFunc over Transport.Latency) and gossiped
// Vivaldi coordinates (CoordModel), which is how worker processes price
// pairs they cannot measure themselves.
type LatencyModel interface {
	// Latency estimates the one-way latency between peers a and b.
	Latency(a, b int) time.Duration
}

// LatencyFunc adapts a pair-latency function to a LatencyModel.
type LatencyFunc func(a, b int) time.Duration

// Latency implements LatencyModel.
func (f LatencyFunc) Latency(a, b int) time.Duration { return f(a, b) }

// CoordModel is a LatencyModel backed by network coordinates: the
// predicted latency between two peers is the Euclidean distance between
// their coordinates, in milliseconds (Vivaldi's embedding unit).
type CoordModel struct {
	Coords []cluster.Point
}

// Latency implements LatencyModel by coordinate distance.
func (m CoordModel) Latency(a, b int) time.Duration {
	if a < 0 || b < 0 || a >= len(m.Coords) || b >= len(m.Coords) {
		return 0
	}
	ca, cb := m.Coords[a], m.Coords[b]
	n := len(ca)
	if len(cb) < n {
		n = len(cb)
	}
	var s float64
	for i := 0; i < n; i++ {
		d := ca[i] - cb[i]
		s += d * d
	}
	return time.Duration(math.Sqrt(s) * float64(time.Millisecond))
}

// Tree is a rooted aggregation tree over peers 0..n-1.
type Tree struct {
	// BF is the branching factor the tree was built with.
	BF int
	// Root is the peer hosting the root operator.
	Root int
	// Parent[p] is p's parent peer, or -1 for the root.
	Parent []int
	// Children[p] lists p's child peers.
	Children [][]int
	// Level[p] is p's depth; the root is at level 0.
	Level []int
}

// NumPeers returns the number of peers in the tree.
func (t *Tree) NumPeers() int { return len(t.Parent) }

// Height returns the maximum level.
func (t *Tree) Height() int {
	h := 0
	for _, l := range t.Level {
		if l > h {
			h = l
		}
	}
	return h
}

// SubtreeSizes returns, per peer, how many peers its subtree holds, itself
// included: the root's is NumPeers, a leaf's is 1. One post-order pass —
// peers are visited in breadth-first order and folded into their parents
// in reverse.
func (t *Tree) SubtreeSizes() []int {
	order := make([]int, 0, len(t.Parent))
	order = append(order, t.Root)
	for i := 0; i < len(order); i++ {
		order = append(order, t.Children[order[i]]...)
	}
	size := make([]int, len(t.Parent))
	for i := len(order) - 1; i >= 0; i-- {
		p := order[i]
		size[p]++
		if pa := t.Parent[p]; pa >= 0 {
			size[pa] += size[p]
		}
	}
	return size
}

// Validate checks structural invariants: a single root, parent/child
// symmetry, all peers reachable, and levels consistent with parents.
func (t *Tree) Validate() error {
	n := len(t.Parent)
	if t.Root < 0 || t.Root >= n {
		return fmt.Errorf("plan: root %d out of range", t.Root)
	}
	if t.Parent[t.Root] != -1 {
		return fmt.Errorf("plan: root has parent %d", t.Parent[t.Root])
	}
	if t.Level[t.Root] != 0 {
		return fmt.Errorf("plan: root at level %d", t.Level[t.Root])
	}
	seen := 0
	for p := 0; p < n; p++ {
		if p != t.Root {
			pa := t.Parent[p]
			if pa < 0 || pa >= n {
				return fmt.Errorf("plan: peer %d has invalid parent %d", p, pa)
			}
			if t.Level[p] != t.Level[pa]+1 {
				return fmt.Errorf("plan: peer %d level %d, parent level %d",
					p, t.Level[p], t.Level[pa])
			}
			found := false
			for _, c := range t.Children[pa] {
				if c == p {
					found = true
					break
				}
			}
			if !found {
				return fmt.Errorf("plan: peer %d missing from parent %d's children", p, pa)
			}
		}
		seen++
	}
	// Reachability via BFS from the root.
	visited := make([]bool, n)
	queue := []int{t.Root}
	visited[t.Root] = true
	count := 1
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		for _, c := range t.Children[v] {
			if visited[c] {
				return fmt.Errorf("plan: peer %d visited twice", c)
			}
			visited[c] = true
			count++
			queue = append(queue, c)
		}
	}
	if count != n {
		return fmt.Errorf("plan: %d of %d peers reachable from root", count, n)
	}
	return nil
}

func newTreeFromParents(root, bf int, parent []int) *Tree {
	n := len(parent)
	t := &Tree{
		BF:       bf,
		Root:     root,
		Parent:   parent,
		Children: make([][]int, n),
		Level:    make([]int, n),
	}
	for p, pa := range parent {
		if pa >= 0 {
			t.Children[pa] = append(t.Children[pa], p)
		}
	}
	// Levels by BFS.
	queue := []int{root}
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		for _, c := range t.Children[v] {
			t.Level[c] = t.Level[v] + 1
			queue = append(queue, c)
		}
	}
	return t
}

// BuildPrimary plans the network-aware primary tree (§3.1): it recursively
// finds bf clusters of the peers' network coordinates, makes the peer
// nearest each cluster centroid a child of the current root, and recurses
// into each cluster. The recursion ends when the node set fits within the
// branching factor. This places the majority of the data close to the root
// operator.
func BuildPrimary(coords []cluster.Point, root, bf int, rng *rand.Rand) *Tree {
	n := len(coords)
	if root < 0 || root >= n {
		panic("plan: root out of range")
	}
	if bf < 2 {
		panic("plan: branching factor must be >= 2")
	}
	parent := make([]int, n)
	for i := range parent {
		parent[i] = -1
	}
	rest := make([]int, 0, n-1)
	for p := 0; p < n; p++ {
		if p != root {
			rest = append(rest, p)
		}
	}
	placeCluster(coords, root, rest, bf, parent, rng)
	return newTreeFromParents(root, bf, parent)
}

// placeCluster attaches the peers in set beneath root.
func placeCluster(coords []cluster.Point, root int, set []int, bf int, parent []int, rng *rand.Rand) {
	if len(set) == 0 {
		return
	}
	if len(set) <= bf {
		for _, p := range set {
			parent[p] = root
		}
		return
	}
	pts := make([]cluster.Point, len(set))
	for i, p := range set {
		pts[i] = cluster.Point(coords[p])
	}
	res := cluster.KMeans(pts, bf, rng)
	for c, members := range res.Members {
		if len(members) == 0 {
			continue
		}
		// The child operator is the member peer nearest the centroid.
		head := set[nearest(pts, members, res.Centroids[c])]
		parent[head] = root
		var sub []int
		for _, m := range members {
			if set[m] != head {
				sub = append(sub, set[m])
			}
		}
		placeCluster(coords, head, sub, bf, parent, rng)
	}
}

func nearest(pts []cluster.Point, members []int, centroid cluster.Point) int {
	best, bd := 0, -1.0
	for i, m := range members {
		var d float64
		for k := range centroid {
			diff := pts[m][k] - centroid[k]
			d += diff * diff
		}
		if bd < 0 || d < bd {
			best, bd = i, d
		}
	}
	return members[best]
}

// DeriveSibling derives one sibling tree from the primary (§3.2): it walks
// the tree in post-order and, at each internal node, exchanges a random
// child with the current parent. Leaves percolate up into the interior,
// creating path diversity while retaining most of the primary's clustering.
// The root's occupant can change; data still drains to the query root
// through dynamic striping across the tree set.
func DeriveSibling(primary *Tree, rng *rand.Rand) *Tree {
	n := primary.NumPeers()
	// occupant[pos] = the peer currently occupying tree position pos, where
	// positions are named by the peers of the primary tree.
	occupant := make([]int, n)
	for i := range occupant {
		occupant[i] = i
	}
	var walk func(pos int)
	walk = func(pos int) {
		for _, c := range primary.Children[pos] {
			walk(c)
		}
		if len(primary.Children[pos]) == 0 {
			return // leaf position: nothing to rotate
		}
		c := primary.Children[pos][rng.Intn(len(primary.Children[pos]))]
		occupant[pos], occupant[c] = occupant[c], occupant[pos]
	}
	walk(primary.Root)
	// The query root operator lives at the injecting peer in every tree of
	// the set (tuples from all trees drain to the same root operator), so if
	// the final rotation displaced the root peer, swap it back into the root
	// position.
	if occupant[primary.Root] != primary.Root {
		for pos, occ := range occupant {
			if occ == primary.Root {
				occupant[pos], occupant[primary.Root] = occupant[primary.Root], occupant[pos]
				break
			}
		}
	}
	// Rebuild parent pointers in peer space: the peer occupying position p
	// has, as parent, the peer occupying p's primary parent position.
	parent := make([]int, n)
	for pos := 0; pos < n; pos++ {
		if pos == primary.Root {
			parent[occupant[pos]] = -1
			continue
		}
		parent[occupant[pos]] = occupant[primary.Parent[pos]]
	}
	return newTreeFromParents(primary.Root, primary.BF, parent)
}

// BuildRandom builds a uniformly random full tree with the given branching
// factor: peers are shuffled and packed into a complete bf-ary tree shape.
// This is the "Random" baseline of Figure 17 and the tree model of the
// Figure 1 simulation.
func BuildRandom(n, root, bf int, rng *rand.Rand) *Tree {
	if bf < 2 {
		panic("plan: branching factor must be >= 2")
	}
	order := rng.Perm(n)
	// Ensure the requested root is first.
	for i, p := range order {
		if p == root {
			order[0], order[i] = order[i], order[0]
			break
		}
	}
	parent := make([]int, n)
	for i := range parent {
		parent[i] = -1
	}
	for i := 1; i < n; i++ {
		parent[order[i]] = order[(i-1)/bf]
	}
	return newTreeFromParents(root, bf, parent)
}

// Set is the planned tree set for one query: the primary tree plus derived
// siblings. Tuples stripe across all D trees.
type Set struct {
	Trees []*Tree
}

// Build plans a full tree set: a primary from the coordinates plus D-1
// siblings.
func Build(coords []cluster.Point, root, bf, d int, rng *rand.Rand) *Set {
	if d < 1 {
		panic("plan: tree set size must be >= 1")
	}
	primary := BuildPrimary(coords, root, bf, rng)
	s := &Set{Trees: []*Tree{primary}}
	for i := 1; i < d; i++ {
		s.Trees = append(s.Trees, DeriveSibling(primary, rng))
	}
	return s
}

// D returns the tree-set size.
func (s *Set) D() int { return len(s.Trees) }

// NumPeers returns the peer count.
func (s *Set) NumPeers() int { return s.Trees[0].NumPeers() }

// Parents returns p's parent in each tree (-1 where p is the root).
func (s *Set) Parents(p int) []int {
	out := make([]int, len(s.Trees))
	for i, t := range s.Trees {
		out[i] = t.Parent[p]
	}
	return out
}

// UniqueNeighbors returns, for each peer, the set of distinct peers that are
// a parent or child of it in any tree of any of the given sets. Heartbeats
// are exchanged per unique parent-child pair and shared across queries, so
// this is the quantity Figure 13 plots.
func UniqueNeighbors(sets []*Set) []map[int]struct{} {
	if len(sets) == 0 {
		return nil
	}
	n := sets[0].NumPeers()
	out := make([]map[int]struct{}, n)
	for i := range out {
		out[i] = make(map[int]struct{})
	}
	for _, s := range sets {
		for _, t := range s.Trees {
			for p, pa := range t.Parent {
				if pa < 0 {
					continue
				}
				out[p][pa] = struct{}{}
				out[pa][p] = struct{}{}
			}
		}
	}
	return out
}

// UniqueChildren returns, for each peer, the number of distinct children it
// must heartbeat across all trees of all sets.
func UniqueChildren(sets []*Set) []int {
	if len(sets) == 0 {
		return nil
	}
	n := sets[0].NumPeers()
	kids := make([]map[int]struct{}, n)
	for i := range kids {
		kids[i] = make(map[int]struct{})
	}
	for _, s := range sets {
		for _, t := range s.Trees {
			for p, pa := range t.Parent {
				if pa >= 0 {
					kids[pa][p] = struct{}{}
				}
			}
		}
	}
	out := make([]int, n)
	for i, m := range kids {
		out[i] = len(m)
	}
	return out
}

// LatencyToRoot returns, per peer, the summed link latency along the
// overlay path to the tree root — "the minimum amount of time for a summary
// tuple from that peer to reach the query root" (Figure 17). The model may
// be measured latencies (LatencyFunc) or coordinate distance (CoordModel).
func LatencyToRoot(t *Tree, m LatencyModel) []time.Duration {
	n := t.NumPeers()
	out := make([]time.Duration, n)
	done := make([]bool, n)
	done[t.Root] = true
	var resolve func(p int) time.Duration
	resolve = func(p int) time.Duration {
		if done[p] {
			return out[p]
		}
		out[p] = resolve(t.Parent[p]) + m.Latency(p, t.Parent[p])
		done[p] = true
		return out[p]
	}
	for p := 0; p < n; p++ {
		resolve(p)
	}
	return out
}

// Quality scores a deployed tree set against a latency view: the mean,
// over every tree of the set, of the mean overlay latency from each peer
// to the root (the summed link latencies of Figure 17). Lower is better.
// Scoring the same set under two models — the embedding the set was
// planned from versus the current one — measures how far the network has
// drifted from the plan; scoring two sets under the current model ranks a
// deployed plan against a candidate replan, which is how the replanning
// monitor decides a migration is worth its traffic.
func Quality(m LatencyModel, s *Set) time.Duration {
	if s == nil || len(s.Trees) == 0 {
		return 0
	}
	var total time.Duration
	var paths int
	for _, t := range s.Trees {
		for _, d := range LatencyToRoot(t, m) {
			total += d
			paths++
		}
	}
	if paths == 0 {
		return 0
	}
	return total / time.Duration(paths)
}

// Percentile returns the q'th percentile (0..100) of the given durations.
func Percentile(ds []time.Duration, q float64) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	sorted := make([]time.Duration, len(ds))
	copy(sorted, ds)
	for i := 1; i < len(sorted); i++ {
		for j := i; j > 0 && sorted[j] < sorted[j-1]; j-- {
			sorted[j], sorted[j-1] = sorted[j-1], sorted[j]
		}
	}
	idx := int(q / 100 * float64(len(sorted)-1))
	return sorted[idx]
}
