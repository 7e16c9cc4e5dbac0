// Package runtime defines the execution-environment abstraction the Mortar
// peer core runs against. A peer needs exactly four things from its world: a
// clock to read time and schedule callbacks (Clock, Timer, Ticker), a
// best-effort datagram transport with per-peer serialized delivery
// (Transport), and an execution context that serializes everything a peer
// does (Spawner). Runtime bundles them for a fixed-size federation.
//
// Two implementations exist:
//
//   - runtime/simrt adapts the deterministic discrete-event pair
//     eventsim+netem. Every peer runs on one virtual clock, read through
//     its own clock model, and one event loop, so a whole federation runs
//     single-threaded and every run is exactly reproducible from a seed.
//     The figure experiments and most tests use it.
//   - runtime/netrt runs each local peer as a goroutine with a mailbox and
//     wall-clock timers, and sends every message as a UDP datagram;
//     runtime/livert hosts a whole federation on one loopback socket. It is
//     what deploys, and runs under the race detector.
//
// Both carry a message the same way: the sender hands Send an encoded
// Frame, and the receiver's handler gets the message decoded from its
// bytes, so every message crosses the wire codec on either backend.
//
// The peer core (internal/mortar) imports only this package, never a
// backend, so the same protocol code runs simulated or live.
package runtime

import (
	"math/rand"
	"time"
)

// Class labels a message for accounting purposes, so backends can split
// network load into data and control overhead (the paper reports heartbeat
// overhead separately from query traffic).
type Class uint8

const (
	// ClassData carries query tuples.
	ClassData Class = iota
	// ClassControl carries heartbeats, reconciliation, installs, probes.
	ClassControl
)

// Timer is a handle to a scheduled callback.
type Timer interface {
	// Cancel prevents the callback from running. Cancelling an already
	// fired or cancelled timer is a no-op.
	Cancel()
	// Stopped reports whether the timer has fired or been cancelled.
	Stopped() bool
}

// Ticker repeatedly invokes a callback at a fixed period until stopped.
type Ticker interface {
	// Stop halts the ticker; an in-flight tick is cancelled.
	Stop()
}

// Clock is a peer's one clock (live, wall time since its process started;
// simulated, its clock model's reading of virtual time) and schedules its
// work. Callbacks run inside the owning peer's serialization domain: they
// never overlap with each other or with message delivery to that peer.
type Clock interface {
	// Now returns the peer's current time.
	Now() time.Duration
	// After schedules fn to run d from now. A non-positive d schedules fn
	// for the earliest opportunity.
	After(d time.Duration, fn func()) Timer
	// Every schedules fn to run every period, starting one period from
	// now. Period must be positive.
	Every(period time.Duration, fn func()) Ticker
}

// Handler receives a message delivered to a peer. from is the sending
// peer's index, or negative when the sender is unknown.
type Handler func(from int, payload any, size int)

// Frame pairs a message's decoded form with its wire encoding. The sender
// encodes each message exactly once; every transport copies Bytes inside
// Send and delivers the message decoded from them on the far side, so the
// sender may recycle the Frame and its Bytes as soon as Send returns.
// Payload is for observers that wrap a transport (tests read it to tap
// traffic); no backend delivers it. Size accounting always uses the
// encoded length, so the emulator's network load numbers match what a
// deployed system would put on the wire.
type Frame struct {
	Payload any
	Bytes   []byte
}

// Locality is implemented by runtimes that host only a subset of the
// federation's peers — a netrt process hosting a peer range. Exec, Clock
// callbacks, and message receipt work only for local peers; drivers use
// Local to scope per-peer work (sensor injection, failure control) to the
// peers this process owns. Runtimes that do not implement Locality host
// every peer.
type Locality interface {
	// Local reports whether the peer runs in this process.
	Local(peer int) bool
}

// IsLocal reports whether a peer is hosted by this runtime process: true
// unless the runtime implements Locality and disowns the peer.
func IsLocal(rt Runtime, peer int) bool {
	if l, ok := rt.(Locality); ok {
		return l.Local(peer)
	}
	return true
}

// Transport moves messages between peers, addressed by federation index.
// Delivery is best-effort (messages may be lost, delayed, or — on some
// backends — duplicated) but always serialized per receiving peer: a peer's
// handler never runs concurrently with itself or with that peer's timer
// callbacks.
type Transport interface {
	// Send transmits payload, normally a *Frame, of the given encoded
	// size in bytes. It never blocks; it returns false if the source
	// itself is down, the destination is unreachable, or the backend
	// cannot carry the payload (simrt carries Frames only).
	Send(from, to int, class Class, size int, payload any) bool
	// Handle registers the delivery handler for a peer, replacing any
	// previous handler. Register handlers before any traffic flows.
	Handle(peer int, h Handler)
	// SetDown disconnects (true) or reconnects (false) a peer. A down peer
	// neither sends nor receives; messages in flight to it are dropped at
	// delivery time.
	SetDown(peer int, down bool)
	// Down reports whether a peer is disconnected.
	Down(peer int) bool
	// Latency estimates the one-way network latency between two peers,
	// for planner input (Vivaldi measurements in the prototype).
	Latency(a, b int) time.Duration
}

// Spawner manages the execution contexts peers run in. Under the simulator
// every peer shares the single event loop and Exec is a direct call; under
// the live runtime each peer has a mailbox drained by its own goroutine,
// and Exec runs fn on the caller's goroutine when the peer is idle and
// queues it otherwise.
type Spawner interface {
	// Exec runs fn inside the peer's serialization domain. It reports
	// whether fn was accepted (false after Shutdown). Exec may run fn
	// before it returns, but never waits for the peer's other work, so
	// the caller must hold no lock fn may take; use ExecWait to wait for
	// fn itself.
	Exec(peer int, fn func()) bool
	// Shutdown stops message and timer delivery and waits for peer
	// contexts to drain. After Shutdown returns, no peer code runs and
	// peer state may be inspected from the caller's goroutine.
	Shutdown()
}

// Runtime binds per-peer clocks, the shared transport, and peer execution
// contexts for a federation of NumPeers peers.
type Runtime interface {
	// NumPeers returns the federation size.
	NumPeers() int
	// Clock returns the scheduling clock for a peer.
	Clock(peer int) Clock
	// Transport returns the shared transport.
	Transport() Transport
	// Rand returns the runtime's deterministic random source, for setup
	// work such as query planning. It is not synchronized: use it only
	// from the driving goroutine, not from peer callbacks.
	Rand() *rand.Rand
	Spawner
}

// ExecWait runs fn inside the peer's serialization domain and blocks until
// it returns; it reports whether fn ran. It must be called from a driving
// goroutine, never from inside a peer callback: there a live backend
// deadlocks when the peer waited on is busy — the callback's own peer
// always is, another may be waiting back. An idle peer runs fn on the
// caller's goroutine, so the wait is then free.
func ExecWait(rt Runtime, peer int, fn func()) bool {
	done := make(chan struct{})
	if !rt.Exec(peer, func() {
		fn()
		close(done)
	}) {
		return false
	}
	<-done
	return true
}
