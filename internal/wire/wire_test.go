package wire

import (
	"errors"
	"math"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/tuple"
)

func TestPrimitivesRoundTrip(t *testing.T) {
	var w Buffer
	w.PutUvarint(300)
	w.PutVarint(-42)
	w.PutF64(3.14)
	w.PutDuration(5 * time.Second)
	w.PutString("hello")
	w.PutBytes([]byte{1, 2, 3})
	w.PutBool(true)

	r := NewReader(w.Bytes())
	if v, err := r.Uvarint(); err != nil || v != 300 {
		t.Fatalf("uvarint = %v %v", v, err)
	}
	if v, err := r.Varint(); err != nil || v != -42 {
		t.Fatalf("varint = %v %v", v, err)
	}
	if v, err := r.F64(); err != nil || v != 3.14 {
		t.Fatalf("f64 = %v %v", v, err)
	}
	if v, err := r.Duration(); err != nil || v != 5*time.Second {
		t.Fatalf("duration = %v %v", v, err)
	}
	if v, err := r.String(); err != nil || v != "hello" {
		t.Fatalf("string = %q %v", v, err)
	}
	if v, err := r.Bytes(); err != nil || !reflect.DeepEqual(v, []byte{1, 2, 3}) {
		t.Fatalf("bytes = %v %v", v, err)
	}
	if v, err := r.Bool(); err != nil || !v {
		t.Fatalf("bool = %v %v", v, err)
	}
	if r.Remaining() != 0 {
		t.Fatalf("remaining = %d", r.Remaining())
	}
}

func TestValueRoundTrip(t *testing.T) {
	values := []any{
		nil,
		float64(42.5),
		[]float64{1, 2, 3},
		"text",
		map[string]float64{"a": 1, "b": 2},
		[]ScoredEntry{{Key: "mac1", Score: -30, Payload: []float64{1, 2}}, {Key: "mac2", Score: -55}},
		[]uint64{0, 1, math.MaxUint64},
		Coord{X: 3, Y: 4},
	}
	for _, v := range values {
		var w Buffer
		if err := w.PutValue(v); err != nil {
			t.Fatalf("encode %T: %v", v, err)
		}
		got, err := NewReader(w.Bytes()).Value()
		if err != nil {
			t.Fatalf("decode %T: %v", v, err)
		}
		if !reflect.DeepEqual(got, v) {
			t.Fatalf("round trip %T: got %#v want %#v", v, got, v)
		}
	}
}

func TestUnsupportedValue(t *testing.T) {
	var w Buffer
	if err := w.PutValue(struct{}{}); err == nil {
		t.Fatal("no error for unsupported type")
	}
}

func TestCorruptBuffers(t *testing.T) {
	// Truncations of a valid encoding must error, never panic.
	var w Buffer
	s := tuple.Summary{
		Query:  "q1",
		Index:  tuple.Index{TB: time.Second, TE: 2 * time.Second},
		Value:  []float64{1, 2, 3},
		Age:    time.Second,
		Count:  7,
		Levels: []int16{0, 1, -1, 2},
	}
	if err := EncodeSummary(&w, s, 3, 7); err != nil {
		t.Fatal(err)
	}
	full := w.Bytes()
	for cut := 0; cut < len(full); cut++ {
		if _, _, _, err := DecodeSummary(NewReader(full[:cut])); err == nil {
			t.Fatalf("no error at truncation %d", cut)
		}
	}
}

func TestSummaryRoundTrip(t *testing.T) {
	s := tuple.Summary{
		Query:    "cpu-sum",
		Index:    tuple.Index{TB: -2 * time.Second, TE: 3 * time.Second},
		Value:    float64(17),
		Age:      1500 * time.Millisecond,
		Count:    42,
		Boundary: false,
		Hops:     3,
		Levels:   []int16{2, -1, 3, 0},
	}
	var w Buffer
	if err := EncodeSummary(&w, s, 2, 9); err != nil {
		t.Fatal(err)
	}
	got, ttl, seq, err := DecodeSummary(NewReader(w.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	s.Query = "" // the Seq names the operator; the name is not on the wire
	if !reflect.DeepEqual(got, s) {
		t.Fatalf("summary: got %+v want %+v", got, s)
	}
	if ttl != 2 || seq != 9 {
		t.Fatalf("ttl = %d, seq = %d", ttl, seq)
	}
}

// The flags byte after the install Seq carries the boundary bit, the
// TTL-down counter and whether an index follows. A zero index takes no
// byte; a reserved bit (bit 4 among them, which flagged an epoch before
// version 10), a cut flags byte and a flagged index that is cut off are
// corrupt; a counter over two bits does not encode.
func TestSummaryFlags(t *testing.T) {
	s := tuple.Summary{Query: "q", Index: tuple.Index{TB: time.Second, TE: 2 * time.Second}, Boundary: true, Levels: []int16{}}
	enc := func(s tuple.Summary, ttl uint8, seq uint64) []byte {
		t.Helper()
		var w Buffer
		if err := EncodeSummary(&w, s, ttl, seq); err != nil {
			t.Fatal(err)
		}
		return w.Bytes()
	}
	const flagsAt = 1 // after the 1-byte Seq
	full := enc(s, 3, 5)
	if f := full[flagsAt]; f != flagBoundary|flagIndex|3<<ttlDownShift {
		t.Fatalf("flags %#x", f)
	}
	bare := s
	bare.Index = tuple.Index{}
	if got := len(full) - len(enc(bare, 3, 5)); got != 2 { // 1 s and its 1 s span
		t.Fatalf("zero index saves %d B, want 2", got)
	}
	got, ttl, seq, err := DecodeSummary(NewReader(enc(bare, 1, 5)))
	if err != nil || got.Index != (tuple.Index{}) || !got.Boundary || ttl != 1 || seq != 5 {
		t.Fatalf("bare summary: %+v ttl %d seq %d, %v", got, ttl, seq, err)
	}
	reserved := func(bit uint) []byte {
		b := append([]byte(nil), full...)
		b[flagsAt] |= 1 << bit
		return b
	}
	for _, c := range []struct {
		name string
		b    []byte
	}{
		{"reserved bit 4", reserved(4)},
		{"reserved bit 5", reserved(5)},
		{"reserved bit 6", reserved(6)},
		{"reserved bit 7", reserved(7)},
		{"no flags byte", full[:flagsAt]},
		{"index flagged, cut", full[:flagsAt+1]},
	} {
		if _, _, _, err := DecodeSummary(NewReader(c.b)); !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: err = %v, want ErrCorrupt", c.name, err)
		}
	}
	for _, ttl := range []uint8{4, 255} {
		var w Buffer
		if err := EncodeSummary(&w, s, ttl, 0); err == nil {
			t.Errorf("TTL-down %d encoded", ttl)
		}
	}
}

// Only the count-carrying shapes have an integral twin: the flag on a
// string, bits or coord tag, or on no tag at all, is an unknown kind. The
// payload flag is known on scored entries alone.
func TestValueTwinKinds(t *testing.T) {
	for kind := byte(0); kind < 32; kind++ {
		_, err := NewReader([]byte{kind, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0}).Value()
		known := kind <= kindCoord || kind == kindF64|kindIntegral || kind == kindF64s|kindIntegral ||
			kind == kindKV|kindIntegral || kind == kindEntries|kindIntegral ||
			kind == kindEntries|kindIntegralPayload || kind == kindEntries|kindIntegral|kindIntegralPayload
		if known == errors.Is(err, ErrCorrupt) {
			t.Errorf("value kind %d: err %v", kind, err)
		}
	}
}

// The fanin-wan-shaped sum envelope ("mass", TB 20 s, TE +250 ms, Age
// 140.123456 ms, Count 5, 2 levels, epoch 1, Seq 2) is 48 B at v5, 28 B at
// v6 and v7, 25 B at v8 and v9, and 20 B at v10, where one Seq byte takes
// the place of the name and its length byte (5 B) and the epoch byte; as a
// syncless time-window operator sends it, at epoch 0 and without its 4 B
// index, it is 20 B at v8 and 16 B at v10. No value shape, integral or
// not, encodes longer than it did at v5 but for a byte a key; a bit array
// is sized by its own forms (TestBitArrayForms). The captured sketch-wan
// values each shrink from v6 to v7 by the pinned lengths, their
// envelopes' headers from v7 to v8, and from v9 to v10 by their tenant's
// name and its length byte less the one Seq byte; every length comes from
// the committed frames.
func TestSummarySizeReasonable(t *testing.T) {
	n := len(sampleMessages())
	sum := capturedMessages()[n+1].(*Envelope)
	if sum.S.Value != any(float64(1234)) {
		t.Fatalf("entry %d is %#v, not the sum envelope", n+1, sum.S.Value)
	}
	if v5, v6, v7, v8, v9, v10 := len(v5Frame(t, n+1)), len(v6Frame(t, n+1)), len(v7Frame(t, n+1)), len(v8Frame(t, n+1)), len(v9Frame(t, n+1)), len(v10Frame(t, n+1)); v5 != 48 || v6 != 28 || v7 != 28 || v8 != 25 || v9 != 25 || v10 != 20 {
		t.Fatalf("sum envelope is %d B at v5, %d at v6, %d at v7, %d at v8, %d at v9, %d at v10; want 48, 28, 28, 25, 25, 20", v5, v6, v7, v8, v9, v10)
	}
	syncless := len(v8Frames) - v8Shapes
	if e := capturedMessages()[syncless].(*Envelope); e.S.Index != (tuple.Index{}) || e.Epoch != 0 || len(v8Frame(t, syncless)) != 20 || len(v10Frame(t, syncless)) != 16 {
		t.Fatalf("syncless sum envelope %+v is %d B at v8 and %d at v10, want 20 and 16", e, len(v8Frame(t, syncless)), len(v10Frame(t, syncless)))
	}
	// Entry n is the same envelope with a nil value (one tag byte), so the
	// captured frames give each value's v5 length.
	nilLen := len(v5Frame(t, n))
	var w Buffer
	for i, msg := range capturedMessages()[n:len(v5Frames)] {
		v := msg.(*Envelope).S.Value
		v5 := len(v5Frame(t, n+i)) - nilLen + 1
		if v5ValueLen(v) != v5 {
			t.Fatalf("%#v: v5ValueLen says %d B, the captured frame %d", v, v5ValueLen(v), v5)
		}
		w.Reset()
		if err := w.PutValue(v); err != nil {
			t.Fatal(err)
		}
		if _, bits := v.([]uint64); !bits && w.Len() > v5+keyCount(v) {
			t.Fatalf("%#v takes %d B at v8, %d at v5", v, w.Len(), v5)
		}
	}
	want := map[string][4]int{ // v6, v7 value bytes; v7 − v8 and v9 − v10 envelope bytes
		"bloom": {131, 84, 7, 5}, "distinct": {138, 40, 8, 8}, "entropy": {288, 234, 8, 7}, "topk": {209, 133, 7, 4},
	}
	for _, k := range sketchKinds {
		v6, v7, v8 := hexFrame(t, v6SketchFrames[k]), hexFrame(t, v7SketchFrames[k]), hexFrame(t, v8SketchFrames[k])
		v9, v10 := hexFrame(t, v9SketchFrames[k]), hexFrame(t, v10SketchFrames[k])
		msg, err := DecodeMessage(v10)
		if err != nil {
			t.Fatal(err)
		}
		w.Reset()
		if err := w.PutValue(msg.(*Envelope).S.Value); err != nil {
			t.Fatal(err)
		}
		// Only the value differs between a v6 envelope and its v7
		// re-encoding, and v8 to v10 write the value as v7 did.
		got := [4]int{len(v6) - len(v7) + w.Len(), w.Len(), len(v7) - len(v8), len(v9) - len(v10)}
		if got != want[k] {
			t.Errorf("%s: value %d B at v6, %d at v7; envelope %d B shorter at v8 and %d at v10; want %v", k, got[0], got[1], got[2], got[3], want[k])
		}
	}
	// The name is not on the wire: a 1-character and a 200-character
	// query name make envelopes of one length.
	lens := map[int]int{}
	for _, name := range []string{"q", strings.Repeat("q", 200)} {
		e := *sum
		e.S.Query = name
		w.Reset()
		if err := EncodeMessage(&w, &e); err != nil {
			t.Fatal(err)
		}
		lens[len(name)] = w.Len()
	}
	if lens[1] != lens[200] || lens[1] != len(v10Frame(t, n+1)) {
		t.Fatalf("envelopes named by 1 and 200 characters are %d and %d B, want %d", lens[1], lens[200], len(v10Frame(t, n+1)))
	}
}

// Property: varints and strings of arbitrary content round-trip.
func TestPropertyRoundTrip(t *testing.T) {
	f := func(u uint64, i int64, s string, fl float64) bool {
		if math.IsNaN(fl) {
			fl = 0
		}
		var w Buffer
		w.PutUvarint(u)
		w.PutVarint(i)
		w.PutString(s)
		w.PutF64(fl)
		r := NewReader(w.Bytes())
		gu, e1 := r.Uvarint()
		gi, e2 := r.Varint()
		gs, e3 := r.String()
		gf, e4 := r.F64()
		return e1 == nil && e2 == nil && e3 == nil && e4 == nil &&
			gu == u && gi == i && gs == s && gf == fl
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: summaries with arbitrary envelope state round-trip, all but
// the query name, which is not on the wire.
func TestPropertySummaryRoundTrip(t *testing.T) {
	f := func(q string, tb, te, age int32, count uint16, boundary bool, v float64, nl uint8, ttl uint8, seq uint64) bool {
		ttl %= maxTTLDown + 1
		levels := make([]int16, int(nl)%8)
		for i := range levels {
			levels[i] = int16(i) - 1
		}
		s := tuple.Summary{
			Query:    q,
			Index:    tuple.Index{TB: time.Duration(tb), TE: time.Duration(te)},
			Age:      time.Duration(age),
			Count:    int(count),
			Boundary: boundary,
			Value:    v,
			Levels:   levels,
		}
		var w Buffer
		if err := EncodeSummary(&w, s, ttl, seq); err != nil {
			return false
		}
		got, gttl, gseq, err := DecodeSummary(NewReader(w.Bytes()))
		s.Query = ""
		s.Age = s.Age.Round(time.Microsecond) // the age travels at µs precision
		return err == nil && reflect.DeepEqual(got, s) && gttl == ttl && gseq == seq
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
