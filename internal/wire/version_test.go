package wire

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"maps"
	"math"
	"reflect"
	"slices"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/tuple"
)

// The v5 frames below were captured from the last v5 encoder: each is
// EncodeMessage of the entry of v5Messages at the same position. They are
// committed bytes, not re-encoded by the test, so a decoder bug cannot
// hide behind an encoder that shares it.

// v5Messages returns the messages v5Frames were encoded from: every entry
// of sampleMessages, then the fanin-wan-shaped "mass" envelope once per
// value shape, integral and not (entry len(sampleMessages())+1 is the sum
// of counts the size pins use).
func v5Messages() []any {
	env := func(v any, sentAt time.Duration) *Envelope {
		return &Envelope{
			S: tuple.Summary{
				Query:  "mass",
				Index:  tuple.Index{TB: 20 * time.Second, TE: 20*time.Second + 250*time.Millisecond},
				Value:  v,
				Age:    140123456 * time.Nanosecond,
				Count:  5,
				Hops:   2,
				Levels: []int16{1, 0},
			},
			Tree:    1,
			TTLDown: 2,
			SentAt:  sentAt,
			Epoch:   1,
		}
	}
	out := sampleMessages()
	for _, v := range []any{
		nil,
		float64(1234),
		float64(42.5),
		math.Copysign(0, -1),
		math.Inf(-1),
		float64(1 << 53),
		[]float64{3, 0, -7, 1 << 40},
		[]float64{0.5, 2},
		"text",
		map[string]float64{"a": 1, "bb": 20, "ccc": -300},
		map[string]float64{"a": 0.25},
		[]ScoredEntry{{Key: "k1", Score: 90, Payload: []float64{1, 2}}, {Key: "k2", Score: 7}},
		[]ScoredEntry{{Key: "k1", Score: -30.5}},
		[]uint64{0, 1, math.MaxUint64},
		Coord{X: 3, Y: -4},
		Coord{X: 3.5, Y: 4},
	} {
		out = append(out, env(v, 20*time.Second+300*time.Millisecond))
	}
	return out
}

// v5Frames are the captured v5 encodings of v5Messages, in order.
var v5Frames = []string{
	"0501076370752d73756dffcfacf30e80f882ad1680bcc1960b2a00030100000000000031400404010600010480a8de7503",
	"050a02076370752d73756d03076d656d2d6d617800040201040080d0acf30e0300000280a8d6b90780d0acf30e80e89226030001010000000000001040040000000080d0acf30e80f882ad1600010000010000000000002240040001020180a8d6b90780d0acf30e0001010000020200000100",
	"0502ac02fe95bff7dbd53700",
	"0502010000",
	"050309776966692d746f7035070204746f706b02013504727373690080d0acf30e80a8d6b90700000861613a62623a63630680bcc1960b02060201004003020412080601001202060201000602ac0200020602121812011c",
	"0504076370752d73756d09ffffffff0f0100020204",
	"0504076370752d73756d0c0300",
	"0505030161000101610104016200020101630203ffffffff0f07010109776966692d746f7035070204746f706b02013504727373690080d0acf30e80a8d6b90700000861613a62623a63630680bcc1960b",
	"0505000000",
	"05060209776966692d746f7035070204746f706b02013504727373690080d0acf30e80a8d6b90700000861613a62623a63630680bcc1960b0462617265000005636f756e740001000028140000000104676f6e65010402",
	"0507076370752d73756d0222",
	"0508076370752d73756d020202010040030204120806010000",
	"050804676f6e6500050001",
	"0509076370752d73756d020b0c",
	"0501046d61737380a0be81950180eaf3ef960180f5d0850105000200020200020280accb9f970101",
	"0501046d61737380a0be81950180eaf3ef960180f5d08501050002010000000000489340020200020280accb9f970101",
	"0501046d61737380a0be81950180eaf3ef960180f5d08501050002010000000000404540020200020280accb9f970101",
	"0501046d61737380a0be81950180eaf3ef960180f5d08501050002010000000000000080020200020280accb9f970101",
	"0501046d61737380a0be81950180eaf3ef960180f5d0850105000201000000000000f0ff020200020280accb9f970101",
	"0501046d61737380a0be81950180eaf3ef960180f5d08501050002010000000000004043020200020280accb9f970101",
	"0501046d61737380a0be81950180eaf3ef960180f5d085010500020204000000000000084000000000000000000000000000001cc00000000000007042020200020280accb9f970101",
	"0501046d61737380a0be81950180eaf3ef960180f5d085010500020202000000000000e03f0000000000000040020200020280accb9f970101",
	"0501046d61737380a0be81950180eaf3ef960180f5d08501050002030474657874020200020280accb9f970101",
	"0501046d61737380a0be81950180eaf3ef960180f5d0850105000204030161000000000000f03f0262620000000000003440036363630000000000c072c0020200020280accb9f970101",
	"0501046d61737380a0be81950180eaf3ef960180f5d0850105000204010161000000000000d03f020200020280accb9f970101",
	"0501046d61737380a0be81950180eaf3ef960180f5d085010500020502026b31000000000080564002000000000000f03f0000000000000040026b320000000000001c4000020200020280accb9f970101",
	"0501046d61737380a0be81950180eaf3ef960180f5d085010500020501026b310000000000803ec000020200020280accb9f970101",
	"0501046d61737380a0be81950180eaf3ef960180f5d0850105000206030001ffffffffffffffffff01020200020280accb9f970101",
	"0501046d61737380a0be81950180eaf3ef960180f5d0850105000207000000000000084000000000000010c0020200020280accb9f970101",
	"0501046d61737380a0be81950180eaf3ef960180f5d08501050002070000000000000c400000000000001040020200020280accb9f970101",
}

// v5FilledSlotHeartbeat is a captured v5 heartbeat {Seq: 2, Hash:
// 0xdeadbeefcafe} whose coordinate slot a pre-v5 netrt sender filled: a 3-D
// coordinate (3.25, -1.5, 40) and its error estimate 0.4.
const v5FilledSlotHeartbeat = "050202fe95bff7dbd537030000000000000a40000000000000f8bf00000000000044409a9999999999d93f"

// v5Frame returns captured frame i as bytes.
func v5Frame(t testing.TB, i int) []byte {
	t.Helper()
	b, err := hex.DecodeString(v5Frames[i])
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// v5Seeds returns every captured v5 frame, the fuzz targets' v5 seeds.
func v5Seeds(t testing.TB) [][]byte {
	var out [][]byte
	for i := range v5Frames {
		out = append(out, v5Frame(t, i))
	}
	b, err := hex.DecodeString(v5FilledSlotHeartbeat)
	if err != nil {
		t.Fatal(err)
	}
	return append(out, b)
}

// withoutSentAt returns msg as the codec gives it back: an envelope's
// SentAt is not on the wire.
func withoutSentAt(msg any) any {
	if e, ok := msg.(*Envelope); ok {
		c := *e
		c.SentAt = 0
		return &c
	}
	return msg
}

// The decode policy is "the current version and the previous one": 6 and 5
// decode, 4 and 7 are refused. Every captured v5 frame decodes to the
// message it was encoded from, SentAt aside and every number bit for bit,
// and its v6 re-encoding decodes to the same message again.
func TestDecodeVersionWindow(t *testing.T) {
	msgs := v5Messages()
	if len(msgs) != len(v5Frames) {
		t.Fatalf("%d messages for %d captured frames", len(msgs), len(v5Frames))
	}
	for i, msg := range msgs {
		want := withoutSentAt(msg)
		v5 := v5Frame(t, i)
		got, err := DecodeMessage(v5)
		if err != nil || !reflect.DeepEqual(got, want) {
			t.Fatalf("v5 frame %d (%T): got %#v, %v\nwant %#v", i, msg, got, err, want)
		}
		var w Buffer
		if err := EncodeMessage(&w, got); err != nil {
			t.Fatal(err)
		}
		v6 := w.Bytes()
		again, err := DecodeMessage(v6)
		if err != nil || !reflect.DeepEqual(again, want) {
			t.Fatalf("v6 re-encoding of frame %d (%T): got %#v, %v\nwant %#v", i, msg, again, err, want)
		}
		if e, ok := msg.(*Envelope); ok {
			for _, d := range []any{got, again} {
				if v := d.(*Envelope).S.Value; !sameValue(v, e.S.Value) {
					t.Fatalf("frame %d: value %#v, want %#v bit for bit", i, v, e.S.Value)
				}
			}
		}
		for _, frame := range [][]byte{v5, v6} {
			for _, ver := range []byte{Version - 2, Version + 1} {
				bad := bytes.Clone(frame)
				bad[0] = ver
				if _, err := DecodeMessage(bad); !errors.Is(err, ErrCorrupt) {
					t.Fatalf("%T stamped v%d: err = %v, want ErrCorrupt", msg, ver, err)
				}
			}
		}
	}
	filled, err := hex.DecodeString(v5FilledSlotHeartbeat)
	if err != nil {
		t.Fatal(err)
	}
	if got, err := DecodeMessage(filled); err != nil || got != any(Heartbeat{Seq: 2, Hash: 0xdeadbeefcafe}) {
		t.Fatalf("v5 heartbeat with a filled slot: %#v, %v", got, err)
	}
}

// numbers flattens a value's float64s to their bit patterns in encoding
// order, so −0 and NaN payloads compare exactly (reflect.DeepEqual takes
// −0 for 0 and never takes NaN for itself).
func numbers(v any) []uint64 {
	var out []uint64
	add := func(fs ...float64) {
		for _, f := range fs {
			out = append(out, math.Float64bits(f))
		}
	}
	switch x := v.(type) {
	case float64:
		add(x)
	case []float64:
		add(x...)
	case map[string]float64:
		for _, k := range slices.Sorted(maps.Keys(x)) {
			add(x[k])
		}
	case []ScoredEntry:
		for _, e := range x {
			add(e.Score)
			add(e.Payload...)
		}
	case Coord:
		add(x.X, x.Y)
	}
	return out
}

// sameValue reports whether two values have the same shape and the same
// numbers bit for bit.
func sameValue(a, b any) bool {
	return fmt.Sprintf("%#v", a) == fmt.Sprintf("%#v", b) && reflect.DeepEqual(numbers(a), numbers(b))
}

// v5ValueLen is how long PutValue wrote v at v5, where every number took
// 8 bytes.
func v5ValueLen(v any) int {
	uv := func(n int) int { return len(binary.AppendUvarint(nil, uint64(n))) }
	str := func(s string) int { return uv(len(s)) + len(s) }
	switch x := v.(type) {
	case float64:
		return 9
	case []float64:
		return 1 + uv(len(x)) + 8*len(x)
	case map[string]float64:
		n := 1 + uv(len(x))
		for k := range x {
			n += str(k) + 8
		}
		return n
	case []ScoredEntry:
		n := 1 + uv(len(x))
		for _, e := range x {
			n += str(e.Key) + 8 + uv(len(e.Payload)) + 8*len(e.Payload)
		}
		return n
	case Coord:
		return 17
	}
	var w Buffer
	if err := w.PutValue(v); err != nil {
		panic(err)
	}
	return w.Len() // shapes without float64s did not change
}

// edgeNumbers are the float64s a lossless number codec is likeliest to
// get wrong.
func edgeNumbers() []float64 {
	return []float64{
		0, math.Copysign(0, -1), 1, -1, 0.5, -0.1, 1234, 123.000001,
		math.Inf(1), math.Inf(-1), math.NaN(),
		math.Float64frombits(0x7ff0000000000001), // signalling NaN
		math.Float64frombits(0xfff8000000000abc), // negative NaN with a payload
		1<<53 - 1, -(1<<53 - 1), 1 << 53, -(1 << 53), 1<<53 + 2, -(1<<53 + 2),
		math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64,
		math.Float64frombits(0x000fffffffffffff), // largest subnormal
		math.MaxFloat64, -math.MaxFloat64, 1e300, math.MaxInt64, math.MinInt64,
	}
}

// valueShapes wraps x in every value shape that holds float64s.
func valueShapes(x float64) []any {
	return []any{
		x,
		[]float64{x, 1, -2},
		map[string]float64{"k": x, "j": 3},
		[]ScoredEntry{{Key: "a", Score: x, Payload: []float64{x, 4}}, {Key: "b", Score: 5}},
		Coord{X: x, Y: 6},
		Coord{X: 7, Y: x},
	}
}

// Property: every number in every value shape round-trips bit for bit,
// and no value encodes longer than it did at v5.
func TestPropertyNumbersRoundTrip(t *testing.T) {
	check := func(x float64) bool {
		for _, v := range valueShapes(x) {
			var w Buffer
			if err := w.PutValue(v); err != nil {
				t.Fatal(err)
			}
			got, err := NewReader(w.Bytes()).Value()
			if err != nil || !sameValue(got, v) {
				t.Logf("%#v came back as %#v, %v", v, got, err)
				return false
			}
			if w.Len() > v5ValueLen(v) {
				t.Logf("%#v takes %d B, %d at v5", v, w.Len(), v5ValueLen(v))
				return false
			}
		}
		return true
	}
	for _, x := range edgeNumbers() {
		if !check(x) {
			t.Fatalf("edge number %v (%#x)", x, math.Float64bits(x))
		}
	}
	bits := func(u uint64) bool { return check(math.Float64frombits(u)) }
	ints := func(i int64) bool { return check(float64(i % (1 << 54))) }
	for _, f := range []any{bits, ints} {
		if err := quick.Check(f, nil); err != nil {
			t.Fatal(err)
		}
	}
}

// edgeDurations are the durations a scaled codec is likeliest to get wrong:
// unit boundaries, the int64 extremes, and the largest round counts.
func edgeDurations() []time.Duration {
	out := []time.Duration{0, 20*time.Second + 250*time.Millisecond, math.MaxInt64, math.MinInt64, math.MinInt64 + 1}
	for _, d := range []time.Duration{1, 999, 1000, 1001, time.Millisecond, time.Second, 1 << 40, 1000 << 40,
		math.MaxInt64 / 1000 * 1000, math.MaxInt64 / 1e6 * 1e6, math.MaxInt64 / 1e9 * 1e9} {
		out = append(out, d, -d)
	}
	return out
}

// Property: scaled durations, and window indices in either order, round-trip
// exactly.
func TestPropertyScaledRoundTrip(t *testing.T) {
	scaled := func(d time.Duration) bool {
		var w Buffer
		w.PutScaled(d)
		r := NewReader(w.Bytes())
		got, err := r.Scaled()
		return err == nil && got == d && r.Remaining() == 0
	}
	index := func(tb, te time.Duration) bool {
		s := tuple.Summary{Query: "q", Index: tuple.Index{TB: tb, TE: te}, Levels: []int16{}}
		var w Buffer
		if err := EncodeSummary(&w, s, 0); err != nil {
			return false
		}
		got, _, err := DecodeSummary(NewReader(w.Bytes()), Version)
		return err == nil && got.Index == s.Index
	}
	for _, a := range edgeDurations() {
		if !scaled(a) {
			t.Fatalf("scaled %d", a)
		}
		for _, b := range edgeDurations() {
			if !index(a, b) {
				t.Fatalf("index [%d, %d)", a, b)
			}
		}
	}
	round := func(v int64, unit uint8) bool {
		mul := int64(1)
		for u := unit % 4; u > 0; u-- {
			mul *= 1000
		}
		d := time.Duration(v % (math.MaxInt64 / mul) * mul)
		return scaled(d) && index(d, d+250*time.Millisecond)
	}
	if err := quick.Check(round, nil); err != nil {
		t.Fatal(err)
	}
	if err := quick.Check(func(a, b int64) bool { return index(time.Duration(a), time.Duration(b)) }, nil); err != nil {
		t.Fatal(err)
	}
	// A count whose nanoseconds overflow an int64 is corrupt, as is a count
	// wider than 64 bits.
	var w Buffer
	w.b = append(w.b, 0x80|3)
	w.PutUvarint(uint64(math.MaxInt64/time.Second)>>4 + 1)
	if _, err := NewReader(w.Bytes()).Scaled(); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("overflowing seconds: %v", err)
	}
	w = Buffer{}
	w.b = append(w.b, 0x80)
	w.PutUvarint(1 << 59)
	if _, err := NewReader(w.Bytes()).Scaled(); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("66-bit count: %v", err)
	}
}
