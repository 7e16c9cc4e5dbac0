// Package pastry implements the routing state of a Pastry-style structured
// overlay (Rowstron & Druschel): 64-bit node IDs split into 4-bit digits,
// per-node routing tables indexed by (shared prefix length, next digit),
// and leaf sets of numerically adjacent nodes. It underpins the SDIMS
// baseline (internal/sdims) the paper compares against in §7.2.3.
//
// The package is pure routing state — liveness beliefs are injected by the
// caller, and staleness of those beliefs is exactly what produces the
// routing inconsistencies and aggregation over-counting the comparison
// demonstrates.
package pastry

import (
	"math/rand"
	"sort"
)

// ID is a 64-bit node identifier, treated as 16 hex digits for prefix
// routing.
type ID uint64

const (
	digits    = 16 // 64 bits / 4 bits per digit
	digitBits = 4
)

func digit(id ID, pos int) int {
	shift := uint((digits - 1 - pos) * digitBits)
	return int(id>>shift) & 0xF
}

// sharedPrefix returns the number of leading hex digits a and b share.
func sharedPrefix(a, b ID) int {
	n := 0
	for n < digits && digit(a, n) == digit(b, n) {
		n++
	}
	return n
}

// dist is the circular numeric distance between two IDs.
func dist(a, b ID) uint64 {
	d := uint64(a - b)
	if d2 := uint64(b - a); d2 < d {
		return d2
	}
	return d
}

// Ring is the global ID assignment: one random ID per peer.
type Ring struct {
	IDs    []ID
	sorted []int // peer indices sorted by ID
}

// NewRing assigns distinct random IDs to n peers.
func NewRing(n int, rng *rand.Rand) *Ring {
	r := &Ring{IDs: make([]ID, n)}
	seen := map[ID]bool{}
	for i := range r.IDs {
		for {
			id := ID(rng.Uint64())
			if !seen[id] {
				seen[id] = true
				r.IDs[i] = id
				break
			}
		}
	}
	r.sorted = make([]int, n)
	for i := range r.sorted {
		r.sorted[i] = i
	}
	sort.Slice(r.sorted, func(a, b int) bool { return r.IDs[r.sorted[a]] < r.IDs[r.sorted[b]] })
	return r
}

// RootFor returns the peer whose ID is numerically closest to key among
// peers accepted by alive (ground truth; used by tests and to key
// aggregations).
func (r *Ring) RootFor(key ID, alive func(int) bool) int {
	best, bd := -1, uint64(0)
	for p, id := range r.IDs {
		if alive != nil && !alive(p) {
			continue
		}
		d := dist(id, key)
		if best < 0 || d < bd {
			best, bd = p, d
		}
	}
	return best
}

// State is one node's routing state: its view of the overlay.
type State struct {
	ring *Ring
	self int
	// table[row][col]: a peer whose ID shares `row` digits with ours and
	// has digit `col` at position row; -1 if none known.
	table [digits][16]int
	leaf  []int // numerically adjacent peers (both sides)
	dead  map[int]bool
	rng   *rand.Rand
	// LeafSize is the total leaf-set size (split across both sides).
	LeafSize int
}

// NewState builds a node's initial routing state from the ring, as a
// freshly joined Pastry node would after exchanging state with its
// neighbors.
func NewState(ring *Ring, self int, leafSize int, rng *rand.Rand) *State {
	s := &State{
		ring:     ring,
		self:     self,
		dead:     map[int]bool{},
		rng:      rng,
		LeafSize: leafSize,
	}
	for row := range s.table {
		for col := range s.table[row] {
			s.table[row][col] = -1
		}
	}
	s.Rebuild()
	return s
}

// Rebuild refreshes the routing table and leaf set from the ring, keeping
// current death beliefs. Existing live entries are preserved — maintenance
// repairs holes, it does not reshuffle working routes (reshuffling would
// re-parent aggregation subtrees every round and over-count even without
// failures).
func (s *State) Rebuild() {
	myID := s.ring.IDs[s.self]
	for row := range s.table {
		for col := range s.table[row] {
			if p := s.table[row][col]; p >= 0 && !s.dead[p] {
				continue
			}
			s.table[row][col] = -1
		}
	}
	// Collect candidates per (row, col); choose uniformly among them so
	// different nodes hold different entries (as proximity-based Pastry
	// tables do). Buckets draw in (row, col) order — a map here would hand
	// each bucket a different draw from run to run.
	var buckets [digits][16][]int
	for p, id := range s.ring.IDs {
		if p == s.self || s.dead[p] {
			continue
		}
		row := sharedPrefix(myID, id)
		if row >= digits {
			continue
		}
		col := digit(id, row)
		if s.table[row][col] >= 0 {
			continue // live entry kept
		}
		buckets[row][col] = append(buckets[row][col], p)
	}
	for row := range buckets {
		for col, cands := range buckets[row] {
			if len(cands) > 0 {
				s.table[row][col] = cands[s.rng.Intn(len(cands))]
			}
		}
	}
	s.rebuildLeaf()
}

func (s *State) rebuildLeaf() {
	n := len(s.ring.sorted)
	pos := 0
	for i, p := range s.ring.sorted {
		if p == s.self {
			pos = i
			break
		}
	}
	s.leaf = s.leaf[:0]
	half := s.LeafSize / 2
	for side := 0; side < 2; side++ {
		got := 0
		for off := 1; off < n && got < half; off++ {
			var idx int
			if side == 0 {
				idx = (pos + off) % n
			} else {
				idx = (pos - off + n) % n
			}
			p := s.ring.sorted[idx]
			if p == s.self || s.dead[p] {
				continue
			}
			s.leaf = append(s.leaf, p)
			got++
		}
	}
}

// MarkDead records a failed peer and removes it from routing state.
func (s *State) MarkDead(p int) {
	if s.dead[p] {
		return
	}
	s.dead[p] = true
	for row := range s.table {
		for col := range s.table[row] {
			if s.table[row][col] == p {
				s.table[row][col] = -1
			}
		}
	}
	s.rebuildLeaf()
}

// MarkAlive clears a death belief (the peer recovered).
func (s *State) MarkAlive(p int) {
	if !s.dead[p] {
		return
	}
	delete(s.dead, p)
}

// BelievedDead reports the current belief about p.
func (s *State) BelievedDead(p int) bool { return s.dead[p] }

// Neighbors returns the peers this node monitors, ascending: leaf set plus
// populated routing entries (the ping targets).
func (s *State) Neighbors() []int {
	set := map[int]struct{}{}
	for _, p := range s.leaf {
		set[p] = struct{}{}
	}
	for row := range s.table {
		for col := range s.table[row] {
			if p := s.table[row][col]; p >= 0 {
				set[p] = struct{}{}
			}
		}
	}
	out := make([]int, 0, len(set))
	for p := range set {
		out = append(out, p)
	}
	sort.Ints(out)
	return out
}

// circularBetween reports whether x lies on the ring arc from lo to hi
// (walking upward with wraparound).
func circularBetween(lo, x, hi ID) bool {
	return uint64(x-lo) <= uint64(hi-lo)
}

// NextHop routes toward key: it returns the next peer, or (self, true) if
// this node believes it is the key's root. Standard Pastry: when the key
// falls within the leaf-set span, deliver to the numerically closest
// member; otherwise take the routing-table entry for the key's next digit
// (strictly growing the shared prefix); otherwise the rare case — any
// known node with at least the same prefix that is strictly closer.
// Termination: each hop grows (prefix, -numeric distance)
// lexicographically.
func (s *State) NextHop(key ID) (int, bool) {
	myID := s.ring.IDs[s.self]
	myDist := dist(myID, key)
	if len(s.leaf) > 0 {
		// Span bounds: the leaves furthest below and above self on the
		// ring.
		lo, hi := myID, myID
		var loOff, hiOff uint64
		for _, p := range s.leaf {
			id := s.ring.IDs[p]
			up := uint64(id - myID)
			down := uint64(myID - id)
			if up <= down { // on the upper arc
				if up > hiOff {
					hiOff, hi = up, id
				}
			} else {
				if down > loOff {
					loOff, lo = down, id
				}
			}
		}
		if circularBetween(lo, key, hi) {
			best, bd := s.self, myDist
			for _, p := range s.leaf {
				if d := dist(s.ring.IDs[p], key); d < bd {
					best, bd = p, d
				}
			}
			if best == s.self {
				return s.self, true
			}
			return best, false
		}
	}
	row := sharedPrefix(myID, key)
	if row < digits {
		col := digit(key, row)
		if p := s.table[row][col]; p >= 0 {
			return p, false
		}
	}
	// Rare case: any known node at least as prefix-close and strictly
	// numerically closer.
	for _, p := range s.Neighbors() {
		id := s.ring.IDs[p]
		if sharedPrefix(id, key) >= row && dist(id, key) < myDist {
			return p, false
		}
	}
	return s.self, true
}
