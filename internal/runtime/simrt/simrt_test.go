package simrt

import (
	"testing"
	"time"

	"repro/internal/runtime"
	"repro/internal/tuple"
	"repro/internal/vclock"
	"repro/internal/wire"
)

// frame encodes msg the way the fabric does before Send.
func frame(t *testing.T, msg any) *runtime.Frame {
	t.Helper()
	var w wire.Buffer
	if err := wire.EncodeMessage(&w, msg); err != nil {
		t.Fatal(err)
	}
	return &runtime.Frame{Payload: msg, Bytes: w.Bytes()}
}

// The adapter must present the emulated hosts as peer indices with
// serialized (direct-call) execution and class-mapped accounting.
func TestAdapterBasics(t *testing.T) {
	rt := NewPaper(1, 12, TopoOptions{Stubs: 4, Transits: 2})
	if rt.NumPeers() != 12 {
		t.Fatalf("NumPeers = %d, want 12", rt.NumPeers())
	}
	if lat := rt.Latency(0, 1); lat <= 0 {
		t.Fatalf("latency %v between distinct peers", lat)
	}

	var got []int
	rt.Handle(1, func(from int, payload any, size int) { got = append(got, from) })
	rt.Send(0, 1, runtime.ClassControl, 16, frame(t, wire.Heartbeat{Seq: 1}))
	rt.Send(2, 1, runtime.ClassData, 16, frame(t, wire.Heartbeat{Seq: 2}))
	rt.RunFor(time.Second)
	if len(got) != 2 || got[0] != 0 || got[1] != 2 {
		t.Fatalf("delivered senders %v, want [0 2]", got)
	}
	if rt.ControlBytes() == 0 || rt.DataBytes() == 0 {
		t.Fatalf("accounting: control %d data %d", rt.ControlBytes(), rt.DataBytes())
	}

	ran := false
	if !rt.Exec(3, func() { ran = true }) || !ran {
		t.Fatal("Exec must run synchronously on the simulator")
	}

	rt.SetDown(4, true)
	if !rt.Down(4) {
		t.Fatal("SetDown not reflected")
	}

	// Clock callbacks share the virtual event loop.
	fired := time.Duration(-1)
	ck := rt.Clock(5)
	ck.After(3*time.Second, func() { fired = ck.Now() })
	rt.RunFor(5 * time.Second)
	if fired != rt.Now()-2*time.Second {
		t.Fatalf("timer fired at %v, clock now %v", fired, rt.Now())
	}
}

// Two adapters over the same seed must drive identical virtual schedules.
func TestNewPaperDeterministic(t *testing.T) {
	trace := func() []time.Duration {
		rt := NewPaper(9, 20, TopoOptions{})
		var at []time.Duration
		rt.Handle(1, func(from int, payload any, size int) { at = append(at, rt.Now()) })
		for i := 0; i < 10; i++ {
			rt.Clock(0).After(time.Duration(i)*time.Second, func() {
				rt.Send(0, 1, runtime.ClassData, 64, frame(t, wire.Heartbeat{Seq: uint64(i)}))
			})
		}
		rt.RunFor(20 * time.Second)
		return at
	}
	a, b := trace(), trace()
	if len(a) == 0 || len(a) != len(b) {
		t.Fatalf("trace lengths %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("delivery %d at %v vs %v", i, a[i], b[i])
		}
	}
}

// Send carries a copy of a Frame's bytes, so the sender may reuse them at
// once, and the receiver gets the message decoded from them — with an
// envelope's SentAt set to its send time (perfect clocks read virtual
// time). Any other payload is refused.
func TestFramesCrossTheCodec(t *testing.T) {
	rt := NewPaper(2, 4, TopoOptions{Stubs: 2, Transits: 1})
	var got []any
	rt.Handle(1, func(from int, payload any, size int) { got = append(got, payload) })
	if rt.Send(0, 1, runtime.ClassControl, 16, wire.Heartbeat{Seq: 1}) {
		t.Fatal("a bare message was accepted")
	}
	rt.RunFor(time.Second)
	sentAt := rt.Now()
	env := &wire.Envelope{S: tuple.Summary{Count: 7}, Seq: 3, SentAt: time.Hour}
	fr := frame(t, env)
	if !rt.Send(0, 1, runtime.ClassData, len(fr.Bytes), fr) {
		t.Fatal("send refused")
	}
	clear(fr.Bytes)
	rt.RunFor(time.Second)
	if len(got) != 1 {
		t.Fatalf("delivered %d messages, want 1", len(got))
	}
	e, ok := got[0].(*wire.Envelope)
	if !ok || e == env {
		t.Fatalf("delivered %T %p, want a decoded *wire.Envelope", got[0], got[0])
	}
	if e.Seq != 3 || e.S.Count != 7 || e.SentAt != sentAt {
		t.Fatalf("delivered Seq %d count %d SentAt %v, want 3, 7, %v", e.Seq, e.S.Count, e.SentAt, sentAt)
	}
}

// A peer's clock is its clock model's: Now reports the model's reading of
// virtual time, a timer runs on the model's oscillator, and an install
// arriving at the peer carries as SentAt the peer's clock read at the
// moment it was sent.
func TestPeerClockModel(t *testing.T) {
	net := NewPaper(3, 4, TopoOptions{Stubs: 2, Transits: 1}).Net()
	ck := vclock.Clock{Offset: -time.Hour, Skew: 1.25}
	rt := New(net, vclock.Perfect(), ck, vclock.Perfect(), vclock.Perfect())
	rt.RunFor(2 * time.Second)
	if got, want := rt.Clock(1).Now(), ck.Reported(rt.Now()); got != want || rt.Clock(0).Now() != rt.Now() {
		t.Fatalf("peer 1 reads %v, want %v; peer 0 reads %v at %v", got, want, rt.Clock(0).Now(), rt.Now())
	}
	fired := time.Duration(-1)
	start := rt.Now()
	rt.Clock(1).After(5*time.Second, func() { fired = rt.Now() - start })
	rt.RunFor(10 * time.Second)
	if fired != 4*time.Second {
		t.Fatalf("a 5 s timer on a 1.25× oscillator fired after %v of virtual time, want 4s", fired)
	}

	var got []any
	rt.Handle(1, func(from int, payload any, size int) { got = append(got, payload) })
	sentAt := rt.Clock(1).Now()
	rt.Send(0, 1, runtime.ClassControl, 0, frame(t, wire.Install{Meta: wire.QueryMeta{Name: "q"}}))
	rt.RunFor(time.Second)
	if len(got) != 1 || got[0].(wire.Install).SentAt != sentAt {
		t.Fatalf("delivered %#v, want an install with SentAt %v", got, sentAt)
	}
}
