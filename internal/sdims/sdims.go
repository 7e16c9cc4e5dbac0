// Package sdims implements the aggregating snapshot-query baseline the
// paper compares Mortar against (§7.2.3): SDIMS (Yalagandula & Dahlin),
// built over a Pastry-style DHT. Each attribute is aggregated up the tree
// induced by DHT routes toward the attribute key's root. The update-up
// policy ensures only the root holds the aggregate; probes read it.
//
// The behaviours the comparison hinges on are reproduced faithfully:
//   - aggregation trees follow DHT routing state, so stale liveness beliefs
//     re-parent subtrees while old partials persist until their lease
//     expires — over-counting past 100% completeness during churn;
//   - every publish propagates immediately up the whole path (no
//     in-network batching), plus periodic pings, leaf and route
//     maintenance — the bandwidth footprint the paper measured at ~5x
//     Mortar's while probing five times less often.
package sdims

import (
	"math/rand"
	"sort"
	"time"

	"repro/internal/eventsim"
	"repro/internal/netem"
	"repro/internal/pastry"
)

// Config carries the timer settings from §7.2.3: "the ping neighbor period
// is 20 seconds, the lease period is 30 seconds, leaf maintenance is 10
// seconds and route maintenance is 60 seconds. SDIMS nodes publish a value
// every five seconds and we probe for the result every 5 seconds."
type Config struct {
	PingPeriod    time.Duration
	Lease         time.Duration
	LeafMaint     time.Duration
	RouteMaint    time.Duration
	PublishPeriod time.Duration
	LeafSize      int
}

// DefaultConfig returns the paper's settings.
func DefaultConfig() Config {
	return Config{
		PingPeriod:    20 * time.Second,
		Lease:         30 * time.Second,
		LeafMaint:     10 * time.Second,
		RouteMaint:    60 * time.Second,
		PublishPeriod: 5 * time.Second,
		LeafSize:      8,
	}
}

// message types
type msgUpdate struct {
	Key   pastry.ID
	From  int
	Value float64
	Count int
}

type msgPing struct{ Seq uint64 }
type msgPong struct{ Seq uint64 }

// msgProbe and msgProbeReply implement the snapshot read.
type msgProbe struct{ Key pastry.ID }
type msgProbeReply struct {
	Key   pastry.ID
	Value float64
	Count int
}

const (
	updateSize = 92 // key + value + version + Pastry header
	pingSize   = 48
	probeSize  = 56
)

// System is an SDIMS deployment: one node per host of the topology.
type System struct {
	Sim *eventsim.Sim
	Net *netem.Network
	Cfg Config

	ring   *pastry.Ring
	nodes  []*node
	hosts  []netem.NodeID
	peerOf map[netem.NodeID]int

	// Key is the aggregation attribute all experiments use.
	Key pastry.ID

	// LastProbe holds the most recent probe reply (value, count).
	LastProbe struct {
		Value float64
		Count int
		At    time.Duration
	}
}

type node struct {
	sys  *System
	id   int
	st   *pastry.State
	down func() bool

	value    float64 // local contribution
	hasValue bool
	children map[int]childEntry
	pingSeq  uint64
	awaiting map[int]uint64 // peer -> ping seq outstanding
	missed   map[int]int
}

type childEntry struct {
	value   float64
	count   int
	expires time.Duration
}

// New builds an SDIMS system over the network's hosts.
func New(net *netem.Network, cfg Config) *System {
	hosts := net.Topology().Hosts()
	sim := net.Sim()
	rng := rand.New(rand.NewSource(sim.Rand().Int63()))
	s := &System{
		Sim:    sim,
		Net:    net,
		Cfg:    cfg,
		ring:   pastry.NewRing(len(hosts), rng),
		hosts:  hosts,
		peerOf: map[netem.NodeID]int{},
		Key:    pastry.ID(rng.Uint64()),
	}
	for i, h := range hosts {
		s.peerOf[h] = i
		n := &node{
			sys:      s,
			id:       i,
			st:       pastry.NewState(s.ring, i, cfg.LeafSize, rand.New(rand.NewSource(rng.Int63()))),
			children: map[int]childEntry{},
			awaiting: map[int]uint64{},
			missed:   map[int]int{},
		}
		s.nodes = append(s.nodes, n)
		h := h
		net.Handle(h, n.deliver)
	}
	return s
}

// Start arms every node's timers with per-node phase jitter.
func (s *System) Start() {
	rng := rand.New(rand.NewSource(s.Sim.Rand().Int63()))
	for _, n := range s.nodes {
		n := n
		jitter := func(d time.Duration) time.Duration {
			return d + time.Duration(rng.Int63n(int64(d)))
		}
		s.Sim.After(jitter(s.Cfg.PublishPeriod), func() { n.publishLoop() })
		s.Sim.After(jitter(s.Cfg.PingPeriod), func() { n.pingLoop() })
		s.Sim.After(jitter(s.Cfg.LeafMaint), func() { n.leafMaintLoop() })
		s.Sim.After(jitter(s.Cfg.RouteMaint), func() { n.routeMaintLoop() })
	}
}

// SetValue sets a node's local contribution (the experiments publish the
// constant 1 to count peers).
func (s *System) SetValue(peer int, v float64) {
	s.nodes[peer].value = v
	s.nodes[peer].hasValue = true
}

// Probe issues a snapshot probe from the given peer; the reply lands in
// LastProbe.
func (s *System) Probe(from int) {
	n := s.nodes[from]
	next, isRoot := n.st.NextHop(s.Key)
	if isRoot {
		v, c := n.subtotal()
		s.LastProbe.Value = v
		s.LastProbe.Count = c
		s.LastProbe.At = s.Sim.Now()
		return
	}
	s.send(from, next, netem.ClassControl, probeSize, msgProbe{Key: s.Key})
}

// RootValue reads the aggregate at the current true root directly (the
// experiment's ground-truth-free measurement; equivalent to a probe that
// found the root).
func (s *System) RootValue() (float64, int) {
	root := s.ring.RootFor(s.Key, func(p int) bool { return !s.Net.Down(s.hosts[p]) })
	if root < 0 {
		return 0, 0
	}
	return s.nodes[root].subtotal()
}

func (s *System) send(from, to int, class netem.TrafficClass, size int, payload any) {
	s.Net.Send(s.hosts[from], s.hosts[to], class, size, payload)
}

func (n *node) isDown() bool { return n.sys.Net.Down(n.sys.hosts[n.id]) }

// subtotal is this node's own value plus unexpired child partials.
func (n *node) subtotal() (float64, int) {
	v := n.value
	c := 0
	if n.hasValue {
		c = 1
	}
	now := n.sys.Sim.Now()
	// Ascending child order: a float sum taken in map order could differ in
	// its last bit from run to run.
	kids := make([]int, 0, len(n.children))
	for k := range n.children {
		kids = append(kids, k)
	}
	sort.Ints(kids)
	for _, k := range kids {
		if e := n.children[k]; e.expires > now {
			v += e.value
			c += e.count
		}
	}
	return v, c
}

// publishLoop sends the subtotal one hop toward the key root. The receiving
// parent updates its cache and immediately propagates upward — SDIMS does
// not wait to batch children ("nodes fail to wait before sending tuples to
// their parents").
func (n *node) publishLoop() {
	defer n.sys.Sim.After(n.sys.Cfg.PublishPeriod, func() { n.publishLoop() })
	n.publish()
}

func (n *node) publish() {
	// Disconnected nodes keep trying; the network drops their traffic.
	next, isRoot := n.st.NextHop(n.sys.Key)
	if isRoot {
		return // root holds the aggregate
	}
	v, c := n.subtotal()
	n.sys.send(n.id, next, netem.ClassData, updateSize, msgUpdate{
		Key: n.sys.Key, From: n.id, Value: v, Count: c,
	})
}

func (n *node) pingLoop() {
	defer n.sys.Sim.After(n.sys.Cfg.PingPeriod, func() { n.pingLoop() })
	for _, p := range n.st.Neighbors() {
		if seq, ok := n.awaiting[p]; ok && seq > 0 {
			// Previous ping unanswered.
			n.missed[p]++
			if n.missed[p] >= 2 {
				n.st.MarkDead(p)
				delete(n.awaiting, p)
				delete(n.missed, p)
				// Reactive recovery: repair the routing state now, which
				// costs a burst of lookups (the bandwidth spikes of
				// Figure 16).
				n.st.Rebuild()
				n.repairTraffic()
				continue
			}
		}
		n.pingSeq++
		n.awaiting[p] = n.pingSeq
		n.sys.send(n.id, p, netem.ClassControl, pingSize, msgPing{Seq: n.pingSeq})
	}
}

// repairTraffic charges the cost of re-populating routing entries from
// other nodes (state exchange with a handful of peers).
func (n *node) repairTraffic() {
	nb := n.st.Neighbors()
	for i, p := range nb {
		if i >= 6 {
			break
		}
		n.sys.send(n.id, p, netem.ClassControl, 6*updateSize, msgPing{Seq: 0})
	}
}

func (n *node) leafMaintLoop() {
	defer n.sys.Sim.After(n.sys.Cfg.LeafMaint, func() { n.leafMaintLoop() })
	// Exchange leaf sets with one neighbor; recovered peers are given
	// another chance (beliefs age out optimistically on maintenance).
	for _, p := range n.st.Neighbors() {
		n.sys.send(n.id, p, netem.ClassControl, 2*updateSize, msgPing{Seq: 0})
		break
	}
	n.reconsiderDead()
	n.st.Rebuild()
}

func (n *node) routeMaintLoop() {
	defer n.sys.Sim.After(n.sys.Cfg.RouteMaint, func() { n.routeMaintLoop() })
	nb := n.st.Neighbors()
	for i, p := range nb {
		if i >= 4 {
			break
		}
		n.sys.send(n.id, p, netem.ClassControl, 3*updateSize, msgPing{Seq: 0})
	}
	n.reconsiderDead()
	n.st.Rebuild()
}

// reconsiderDead probes one believed-dead peer so recovered nodes rejoin.
func (n *node) reconsiderDead() {
	for p := 0; p < len(n.sys.nodes); p++ {
		if n.st.BelievedDead(p) && !n.sys.Net.Down(n.sys.hosts[p]) {
			n.st.MarkAlive(p)
			break
		}
	}
}

func (n *node) deliver(from netem.NodeID, payload any, size int) {
	src := n.sys.peerOf[from]
	switch m := payload.(type) {
	case msgUpdate:
		n.children[m.From] = childEntry{
			value:   m.Value,
			count:   m.Count,
			expires: n.sys.Sim.Now() + n.sys.Cfg.Lease,
		}
		// Immediate upward propagation.
		n.publish()
	case msgPing:
		if m.Seq > 0 {
			n.sys.send(n.id, src, netem.ClassControl, pingSize, msgPong{Seq: m.Seq})
		}
	case msgPong:
		if n.awaiting[src] == m.Seq {
			delete(n.awaiting, src)
			n.missed[src] = 0
		}
		n.st.MarkAlive(src)
	case msgProbe:
		next, isRoot := n.st.NextHop(m.Key)
		if isRoot {
			v, c := n.subtotal()
			n.sys.LastProbe.Value = v
			n.sys.LastProbe.Count = c
			n.sys.LastProbe.At = n.sys.Sim.Now()
			return
		}
		n.sys.send(n.id, next, netem.ClassControl, probeSize, m)
	case msgProbeReply:
		n.sys.LastProbe.Value = m.Value
		n.sys.LastProbe.Count = m.Count
		n.sys.LastProbe.At = n.sys.Sim.Now()
	}
}
