// Package simrt adapts the deterministic discrete-event pair
// internal/eventsim + internal/netem to the runtime interfaces. Every peer
// runs on the single virtual clock and event loop, and messages ride the
// emulated topology with its latency, bandwidth, loss, and failure models —
// so a federation built over simrt reproduces results bit-for-bit from a
// seed, which is what the paper-figure experiments and the deterministic
// tests rely on. A peer's one clock is its clock model (internal/vclock)
// reading the virtual clock, as a deployed process has only its own.
package simrt

import (
	"math/rand"
	"slices"
	"time"

	"repro/internal/eventsim"
	"repro/internal/netem"
	"repro/internal/runtime"
	"repro/internal/vclock"
	"repro/internal/wire"
)

// Runtime drives one peer per host of an emulated network. It implements
// runtime.Runtime and runtime.Transport.
type Runtime struct {
	sim    *eventsim.Sim
	net    *netem.Network
	hosts  []netem.NodeID
	peerOf map[netem.NodeID]int
	clocks []vclock.Clock
	rng    *rand.Rand
}

var _ runtime.Runtime = (*Runtime)(nil)
var _ runtime.Transport = (*Runtime)(nil)

// New adapts an existing network: one peer per host, in host order, peer
// i on the clock model clocks[i] — every clock perfect when none is given.
// It draws one value from the simulator's random stream to seed the
// planning RNG (exactly as the pre-runtime fabric constructor did,
// preserving deterministic results).
func New(net *netem.Network, clocks ...vclock.Clock) *Runtime {
	hosts := net.Topology().Hosts()
	if len(clocks) == 0 {
		clocks = slices.Repeat([]vclock.Clock{vclock.Perfect()}, len(hosts))
	}
	r := &Runtime{
		sim:    net.Sim(),
		net:    net,
		hosts:  hosts,
		peerOf: make(map[netem.NodeID]int, len(hosts)),
		clocks: clocks,
		rng:    rand.New(rand.NewSource(net.Sim().Rand().Int63())),
	}
	for i, h := range hosts {
		r.peerOf[h] = i
	}
	return r
}

// TopoOptions tweak the paper transit-stub parameters for NewPaper. Zero
// fields keep netem.PaperTopology's defaults.
type TopoOptions struct {
	Stubs    int
	Transits int
	Loss     float64
}

// NewPaper builds a self-contained simulated runtime over the paper's
// transit-stub topology: a fresh simulator and network seeded from seed,
// with one peer per host, clocked as New's are. This is the one-call
// testbed most tests want.
func NewPaper(seed int64, hosts int, o TopoOptions, clocks ...vclock.Clock) *Runtime {
	sim := eventsim.New(seed)
	rng := rand.New(rand.NewSource(seed))
	p := netem.PaperTopology(hosts)
	if o.Stubs > 0 {
		p.Stubs = o.Stubs
	}
	if o.Transits > 0 {
		p.Transits = o.Transits
	}
	if o.Loss > 0 {
		p.Loss = o.Loss
	}
	topo := netem.GenerateTransitStub(p, rng)
	return New(netem.New(sim, topo), clocks...)
}

// Sim returns the driving simulator.
func (r *Runtime) Sim() *eventsim.Sim { return r.sim }

// Net returns the underlying emulated network.
func (r *Runtime) Net() *netem.Network { return r.net }

// --- runtime.Runtime ---

// NumPeers returns the federation size.
func (r *Runtime) NumPeers() int { return len(r.hosts) }

// Clock returns a peer's clock: the virtual clock as the peer's clock model
// reports it.
func (r *Runtime) Clock(peer int) runtime.Clock { return peerClock{r.sim, r.clocks[peer]} }

// Transport returns the emulated network as a peer-indexed transport.
func (r *Runtime) Transport() runtime.Transport { return r }

// Rand returns the planning RNG derived from the simulator's stream.
func (r *Runtime) Rand() *rand.Rand { return r.rng }

// Exec runs fn immediately: the caller is, by construction, the single
// simulation goroutine, which is every peer's serialization domain.
func (r *Runtime) Exec(peer int, fn func()) bool { fn(); return true }

// Shutdown is a no-op: the simulation stops when its driver stops stepping.
func (r *Runtime) Shutdown() {}

// --- runtime.Transport ---

func classOf(c runtime.Class) netem.TrafficClass {
	if c == runtime.ClassControl {
		return netem.ClassControl
	}
	return netem.ClassData
}

// datagram is one frame in flight: a copy of its wire bytes and the
// virtual (true) time it left.
type datagram struct {
	bytes  []byte
	sentAt time.Duration
}

// Send transmits a *runtime.Frame over the emulated topology, charging the
// wire size. It copies the frame's bytes, so the caller may recycle the
// frame at once, and the receiver decodes them as a socket backend would:
// every message crosses the wire codec. Any other payload is refused.
func (r *Runtime) Send(from, to int, class runtime.Class, size int, payload any) bool {
	fr, ok := payload.(*runtime.Frame)
	if !ok {
		return false
	}
	d := datagram{bytes: append([]byte(nil), fr.Bytes...), sentAt: r.sim.Now()}
	return r.net.Send(r.hosts[from], r.hosts[to], classOf(class), size, d)
}

// Handle registers a peer's delivery handler, translating host IDs back to
// peer indices and decoding each frame. A message's SentAt is the
// receiver's clock read at the moment the frame was sent, so the receiver
// measures the flight on its own oscillator.
func (r *Runtime) Handle(peer int, h runtime.Handler) {
	ck := r.clocks[peer]
	r.net.Handle(r.hosts[peer], func(from netem.NodeID, payload any, size int) {
		src, ok := r.peerOf[from]
		if !ok {
			src = -1
		}
		d := payload.(datagram)
		msg, err := wire.DecodeMessage(d.bytes)
		if err != nil {
			return
		}
		h(src, wire.StampSentAt(msg, ck.Reported(d.sentAt)), size)
	})
}

// SetDown fails or recovers a peer's host.
func (r *Runtime) SetDown(peer int, down bool) { r.net.SetDown(r.hosts[peer], down) }

// Down reports whether a peer's host is failed.
func (r *Runtime) Down(peer int) bool { return r.net.Down(r.hosts[peer]) }

// Latency returns the shortest-path propagation delay between two peers.
func (r *Runtime) Latency(a, b int) time.Duration {
	return r.net.Latency(r.hosts[a], r.hosts[b])
}

// --- driving helpers (sim-only surface used by tests and experiments) ---

// Now returns the current virtual time.
func (r *Runtime) Now() time.Duration { return r.sim.Now() }

// After schedules fn on the shared virtual clock.
func (r *Runtime) After(d time.Duration, fn func()) *eventsim.Timer { return r.sim.After(d, fn) }

// Every schedules a repeating callback on the shared virtual clock.
func (r *Runtime) Every(period time.Duration, fn func()) *eventsim.Ticker {
	return r.sim.Every(period, fn)
}

// RunFor executes events for the next d of virtual time.
func (r *Runtime) RunFor(d time.Duration) { r.sim.RunFor(d) }

// RunUntil executes events up to virtual time t.
func (r *Runtime) RunUntil(t time.Duration) { r.sim.RunUntil(t) }

// ControlBytes returns cumulative control-plane bytes across all links.
func (r *Runtime) ControlBytes() int64 {
	return r.net.Accounting().TotalBytes(netem.ClassControl)
}

// DataBytes returns cumulative data-plane bytes across all links.
func (r *Runtime) DataBytes() int64 {
	return r.net.Accounting().TotalBytes(netem.ClassData)
}

// peerClock adapts the simulator to runtime.Clock through one peer's
// clock model: Now is the model's reading of virtual time, and a delay
// runs on the model's oscillator (a fast clock's second passes in less
// than a virtual one). eventsim's Timer and Ticker already satisfy the
// runtime interfaces.
type peerClock struct {
	sim *eventsim.Sim
	ck  vclock.Clock
}

func (c peerClock) Now() time.Duration { return c.ck.Reported(c.sim.Now()) }

func (c peerClock) After(d time.Duration, fn func()) runtime.Timer {
	return c.sim.After(time.Duration(float64(d)/c.ck.Skew), fn)
}

func (c peerClock) Every(period time.Duration, fn func()) runtime.Ticker {
	return c.sim.Every(time.Duration(float64(period)/c.ck.Skew), fn)
}
