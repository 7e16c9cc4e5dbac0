// Package netem is an in-process packet-level network emulator. It stands in
// for the ModelNet cluster used in the paper's evaluation: a topology of
// transit routers, stub routers, and end hosts; links with latency,
// bandwidth, and loss; node and link failures; and per-link traffic
// accounting so experiments can report "total network load" the way the
// paper's Figures 14 and 16 do.
//
// The emulator is driven by an eventsim.Sim, so all behaviour is
// deterministic given a seed.
package netem

import (
	"fmt"
	"time"
)

// NodeID identifies a node (host or router) in a topology.
type NodeID int

// NodeKind classifies topology nodes.
type NodeKind uint8

const (
	// Host is an end system that runs peer software.
	Host NodeKind = iota
	// StubRouter aggregates hosts at a site.
	StubRouter
	// TransitRouter forms the topology core.
	TransitRouter
)

func (k NodeKind) String() string {
	switch k {
	case Host:
		return "host"
	case StubRouter:
		return "stub"
	case TransitRouter:
		return "transit"
	default:
		return fmt.Sprintf("NodeKind(%d)", uint8(k))
	}
}

// Link is an undirected edge between two nodes.
type Link struct {
	A, B    NodeID
	Latency time.Duration // one-way propagation delay
	// Bandwidth is the link capacity in bits per second. Zero means
	// infinite (no serialization delay).
	Bandwidth float64
	// Loss is the per-traversal drop probability in [0, 1).
	Loss float64
}

// Topology is an undirected graph of nodes and links.
type Topology struct {
	kinds []NodeKind
	links []Link
	adj   [][]halfEdge // adjacency: node -> outgoing half-edges
}

type halfEdge struct {
	to   NodeID
	link int // index into links
}

// NewTopology returns an empty topology.
func NewTopology() *Topology { return &Topology{} }

// AddNode adds a node of the given kind and returns its ID.
func (t *Topology) AddNode(kind NodeKind) NodeID {
	id := NodeID(len(t.kinds))
	t.kinds = append(t.kinds, kind)
	t.adj = append(t.adj, nil)
	return id
}

// AddLink connects a and b. It panics on self-loops or unknown nodes, which
// indicate generator bugs.
func (t *Topology) AddLink(l Link) int {
	if l.A == l.B {
		panic("netem: self-loop")
	}
	if int(l.A) >= len(t.kinds) || int(l.B) >= len(t.kinds) || l.A < 0 || l.B < 0 {
		panic("netem: link references unknown node")
	}
	idx := len(t.links)
	t.links = append(t.links, l)
	t.adj[l.A] = append(t.adj[l.A], halfEdge{to: l.B, link: idx})
	t.adj[l.B] = append(t.adj[l.B], halfEdge{to: l.A, link: idx})
	return idx
}

// NumNodes returns the node count.
func (t *Topology) NumNodes() int { return len(t.kinds) }

// NumLinks returns the link count.
func (t *Topology) NumLinks() int { return len(t.links) }

// Kind returns a node's kind.
func (t *Topology) Kind(n NodeID) NodeKind { return t.kinds[n] }

// Hosts returns all host-kind node IDs in increasing order.
func (t *Topology) Hosts() []NodeID {
	var hosts []NodeID
	for i, k := range t.kinds {
		if k == Host {
			hosts = append(hosts, NodeID(i))
		}
	}
	return hosts
}

// Neighbors returns the IDs adjacent to n.
func (t *Topology) Neighbors(n NodeID) []NodeID {
	out := make([]NodeID, len(t.adj[n]))
	for i, e := range t.adj[n] {
		out[i] = e.to
	}
	return out
}
