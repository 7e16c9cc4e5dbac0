package wire

import (
	"encoding/hex"
	"errors"
	"reflect"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/tuple"
)

// sampleMeta returns a representative query metadata record.
func sampleMeta() QueryMeta {
	return QueryMeta{
		Name:      "wifi-top5",
		Seq:       7,
		Epoch:     2,
		OpName:    "topk",
		OpArgs:    []string{"5", "rssi"},
		Window:    tuple.WindowSpec{Kind: tuple.TimeWindow, Range: 2 * time.Second, Slide: time.Second},
		FilterKey: "aa:bb:cc",
		Root:      3,
		Age:       1500 * time.Millisecond,
	}
}

func sampleNeighbors() Neighbors {
	return Neighbors{
		Parents:  []int{-1, 4},
		Children: [][]int{{1, 2, 9}, nil},
		Levels:   []int{0, 3},
		Subtree:  []int{64, 1},
	}
}

// sampleMessages returns one instance of every message kind, the full set
// the peers exchange. v5Frames to v10Frames hold their captured
// encodings: an edit here must leave capturedMessages returning
// what was captured.
func sampleMessages() []any {
	return []any{
		&Envelope{
			S: tuple.Summary{
				Query:  "cpu-sum",
				Index:  tuple.Index{TB: -2 * time.Second, TE: 3 * time.Second},
				Value:  float64(17),
				Age:    1500 * time.Millisecond,
				Count:  42,
				Hops:   3,
				Levels: []int16{2, -1, 3, 0},
			},
			Tree:    2,
			TTLDown: 1,
			Seq:     12,
			SentAt:  123456 * time.Microsecond,
			Epoch:   3,
		},
		&EnvelopeBatch{
			SentAt: 2 * time.Second,
			Envelopes: []Envelope{
				{
					S: tuple.Summary{
						Query:  "cpu-sum",
						Index:  tuple.Index{TB: time.Second, TE: 2 * time.Second},
						Value:  float64(4),
						Age:    40 * time.Millisecond,
						Count:  3,
						Hops:   1,
						Levels: []int16{1, -1, 2, 0},
					},
					Tree: 0, TTLDown: 2, SentAt: 2 * time.Second, Epoch: 3,
				},
				{
					S: tuple.Summary{
						Query:  "cpu-sum",
						Index:  tuple.Index{TB: 2 * time.Second, TE: 3 * time.Second},
						Value:  float64(9),
						Count:  1,
						Levels: []int16{1, -1, 2, 0}, // identical to base: empty diff
					},
					Tree: 0, SentAt: 2 * time.Second, Epoch: 3,
				},
				{
					S: tuple.Summary{
						Query:    "mem-max",
						Index:    tuple.Index{TB: time.Second, TE: 2 * time.Second},
						Boundary: true, // boundary: nil value
						Count:    1,
						Levels:   []int16{0, 0}, // shorter than base, one diff
					},
					Tree: 1, TTLDown: 1, SentAt: 2 * time.Second, Epoch: 0,
				},
			},
		},
		Heartbeat{Seq: 300, Hash: 0xdeadbeefcafe},
		Heartbeat{Seq: 1}, // no piggybacked hash
		Install{
			Meta: sampleMeta(),
			Members: map[int]Neighbors{
				3: sampleNeighbors(),
				9: {Parents: []int{3, 3}, Children: [][]int{nil, nil}, Levels: []int{1, 1}, Subtree: []int{1, 300}},
			},
			Forward: map[int][]int{3: {9, 12}, 9: {14}},
		},
		Remove{Name: "cpu-sum", Seq: 9, Epoch: AllEpochs, Forward: map[int][]int{0: {1, 2}}},
		Remove{Name: "cpu-sum", Seq: 12, Epoch: 3}, // epoch-scoped retirement
		ReconSummary{
			Installed: map[QueryKey]uint64{{Name: "a", Epoch: 0}: 1, {Name: "a", Epoch: 1}: 4, {Name: "b", Epoch: 0}: 2},
			Removed:   map[string][]RemovedMark{"c": {{Seq: 3, Epoch: AllEpochs}, {Seq: 7, Epoch: 1}}},
			Metas:     []QueryMeta{sampleMeta()},
		},
		ReconSummary{}, // an idle peer's summary: everything empty
		ReconDefs{
			Metas:   []QueryMeta{sampleMeta(), {Name: "bare", OpName: "count", Window: tuple.WindowSpec{Kind: tuple.TupleWindow, RangeN: 20, SlideN: 10}}},
			Removed: map[string][]RemovedMark{"gone": {{Seq: 4, Epoch: 2}}},
		},
		TopoRequest{Query: "cpu-sum", Epoch: 2, Peer: 17},
		TopoReply{Query: "cpu-sum", Epoch: 2, Seq: 2, NB: sampleNeighbors()},
		TopoReply{Query: "gone", Seq: 5, Unknown: true}, // zero NB
		InstallAck{Query: "cpu-sum", Epoch: 2, Seq: 11, Peer: 6},
	}
}

// Every message kind must round-trip through the framed codec unchanged
// but for SentAt, which the receiving runtime sets, and an envelope's
// age, which travels at µs precision — this is
// the property the socket runtime relies on: what a netrt receiver decodes
// is exactly what the sender's fabric passed to send.
func TestMessageRoundTripAllKinds(t *testing.T) {
	for _, msg := range sampleMessages() {
		var w Buffer
		if err := EncodeMessage(&w, msg); err != nil {
			t.Fatalf("encode %T: %v", msg, err)
		}
		got, err := DecodeMessage(w.Bytes())
		if err != nil {
			t.Fatalf("decode %T: %v", msg, err)
		}
		if e, ok := got.(*Envelope); ok && e.SentAt != 0 {
			t.Fatalf("envelope SentAt %v after the codec, want 0", e.SentAt)
		}
		if msg = asDecoded(msg); !reflect.DeepEqual(got, msg) {
			t.Fatalf("round trip %T:\n got %#v\nwant %#v", msg, got, msg)
		}
	}
}

// StampSentAt sets the SentAt of exactly the kinds a receiver frames from
// — the envelope, the install and both reconciliation messages — and
// passes every other kind through as it came.
func TestStampSentAt(t *testing.T) {
	const at = 42 * time.Millisecond
	for _, msg := range sampleMessages() {
		got := StampSentAt(msg, at)
		var sentAt time.Duration
		switch m := got.(type) {
		case *Envelope:
			sentAt = m.SentAt
		case Install:
			sentAt = m.SentAt
		case ReconSummary:
			sentAt = m.SentAt
		case ReconDefs:
			sentAt = m.SentAt
		default:
			if !reflect.DeepEqual(got, msg) {
				t.Fatalf("%T changed to %#v", msg, got)
			}
			continue
		}
		if sentAt != at {
			t.Fatalf("%T stamped SentAt %v, want %v", msg, sentAt, at)
		}
	}
}

// Unknown message types are encode errors; unknown kinds, bad versions,
// and trailing garbage are ErrCorrupt on decode.
func TestMessageFraming(t *testing.T) {
	var w Buffer
	if err := EncodeMessage(&w, struct{}{}); err == nil {
		t.Fatal("no error for unsupported message type")
	}
	if _, err := DecodeMessage([]byte{Version + 1, MsgHeartbeat, 1, 0}); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("bad version: %v", err)
	}
	if _, err := DecodeMessage([]byte{Version, 200, 1, 0}); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("unknown kind: %v", err)
	}
	for _, msg := range sampleMessages() {
		w = Buffer{}
		if err := EncodeMessage(&w, msg); err != nil {
			t.Fatal(err)
		}
		if _, err := DecodeMessage(append(w.Bytes(), 0xff)); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("%T with a trailing byte: %v", msg, err)
		}
	}
	if _, err := DecodeMessage(nil); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("empty frame: %v", err)
	}
}

// Every truncation of every message kind must fail with ErrCorrupt —
// never panic, never decode successfully (varint continuation bits and the
// trailing-bytes check make strict prefixes invalid).
func TestMessageTruncations(t *testing.T) {
	for _, msg := range sampleMessages() {
		var w Buffer
		if err := EncodeMessage(&w, msg); err != nil {
			t.Fatal(err)
		}
		full := w.Bytes()
		for cut := 0; cut < len(full); cut++ {
			if _, err := DecodeMessage(full[:cut]); !errors.Is(err, ErrCorrupt) {
				t.Fatalf("%T truncated at %d of %d: err = %v", msg, cut, len(full), err)
			}
		}
	}
}

// A subtree count that does not fit an int32 is corrupt, not truncated.
func TestOversizedSubtreeIsCorrupt(t *testing.T) {
	var w Buffer
	w.appendKind(MsgTopoReply)
	w.PutString("q")
	w.PutUvarint(0)
	w.PutUvarint(1)
	w.PutUvarint(1)       // one tree
	w.PutVarint(-1)       // parent
	w.PutVarint(0)        // level
	w.PutUvarint(1 << 31) // subtree
	w.PutUvarint(0)       // children
	w.PutBool(false)
	if _, err := DecodeMessage(w.Bytes()); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("oversized subtree count: %v", err)
	}
}

// A heartbeat is [Seq][Hash] and nothing after it: the coordinate slot v5
// heartbeats ended in is trailing bytes now, and the captured v5 heartbeat
// with a filled slot is refused by its version. Coordinates ride netrt's
// probe frames alone (netrt's FuzzProbeCoord).
func TestHeartbeatHasNoCoordinateSlot(t *testing.T) {
	filled, err := hex.DecodeString(v5FilledSlotHeartbeat)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeMessage(filled); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("v5 heartbeat with a filled slot: %v", err)
	}
	filled[0] = Version
	if _, err := DecodeMessage(filled); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("v%d heartbeat with a coordinate slot: %v", Version, err)
	}
	var w Buffer
	w.b = append(w.b, Version, MsgHeartbeat)
	w.PutUvarint(42)
	w.PutUvarint(7)
	if got, err := DecodeMessage(w.Bytes()); err != nil || got != any(Heartbeat{Seq: 42, Hash: 7}) {
		t.Fatalf("heartbeat: %#v, %v", got, err)
	}
}

// An epoch field beyond uint32 is corrupt, not silently truncated.
func TestOversizedEpochIsCorrupt(t *testing.T) {
	var w Buffer
	w.b = append(w.b, Version, MsgRemove)
	w.PutString("q")
	w.PutUvarint(1)
	w.PutUvarint(1 << 40)
	w.PutUvarint(0)
	if _, err := DecodeMessage(w.Bytes()); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("oversized epoch: %v", err)
	}
}

// A corrupt length prefix must not drive allocation: a frame claiming 2^40
// members is rejected by the remaining-bytes bound before any make().
func TestDecodeBoundsAllocation(t *testing.T) {
	var w Buffer
	w.appendKind(MsgInstall)
	EncodeQueryMeta(&w, QueryMeta{Name: "q", OpName: "count"})
	w.PutUvarint(1 << 40) // absurd member count, then nothing
	if _, err := DecodeMessage(w.Bytes()); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("absurd member count: %v", err)
	}

	w = Buffer{}
	w.appendKind(MsgReconSummary)
	w.PutUvarint(1 << 50)
	if _, err := DecodeMessage(w.Bytes()); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("absurd installed count: %v", err)
	}
}

// Property: envelopes with arbitrary summary state survive the framed
// round trip, all but SentAt, which comes back 0, and the age, which comes
// back rounded to the µs.
func TestPropertyEnvelopeRoundTrip(t *testing.T) {
	f := func(q string, tb, te, age int32, count uint16, hops uint8, v float64, nl, ttl uint8, tree uint8, sentAt int32) bool {
		ttl %= maxTTLDown + 1
		levels := make([]int16, int(nl)%6)
		for i := range levels {
			levels[i] = int16(i) - 1
		}
		e := &Envelope{
			S: tuple.Summary{
				Query:  q,
				Index:  tuple.Index{TB: time.Duration(tb), TE: time.Duration(te)},
				Age:    time.Duration(age),
				Count:  int(count),
				Hops:   int(hops),
				Value:  v,
				Levels: levels,
			},
			Tree:    int(tree),
			TTLDown: ttl,
			SentAt:  time.Duration(sentAt),
		}
		var w Buffer
		if err := EncodeMessage(&w, e); err != nil {
			return false
		}
		got, err := DecodeMessage(w.Bytes())
		if err != nil || got.(*Envelope).SentAt != 0 {
			return false
		}
		return reflect.DeepEqual(got, asDecoded(e))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: install chunks with arbitrary membership survive the round
// trip (maps and nested slices are the codec's hairiest shapes).
func TestPropertyInstallRoundTrip(t *testing.T) {
	f := func(peers []uint8, fanout uint8) bool {
		m := Install{Meta: sampleMeta()}
		if len(peers) > 0 {
			m.Members = map[int]Neighbors{}
			m.Forward = map[int][]int{}
			for _, p := range peers {
				nb := Neighbors{Parents: []int{int(p) - 1}, Children: [][]int{nil}, Levels: []int{int(p) % 7}, Subtree: []int{int(p) * int(fanout)}}
				for c := 0; c < int(fanout)%4; c++ {
					nb.Children[0] = append(nb.Children[0], c)
				}
				m.Members[int(p)] = nb
				if fanout%2 == 0 {
					m.Forward[int(p)] = []int{int(p) + 1}
				}
			}
			if len(m.Forward) == 0 {
				m.Forward = nil
			}
		}
		var w Buffer
		if err := EncodeMessage(&w, m); err != nil {
			return false
		}
		got, err := DecodeMessage(w.Bytes())
		return err == nil && reflect.DeepEqual(got, m)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
