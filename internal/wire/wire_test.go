package wire

import (
	"errors"
	"math"
	"reflect"
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
	if err := EncodeSummary(&w, s, 3); err != nil {
		t.Fatal(err)
	}
	full := w.Bytes()
	for cut := 0; cut < len(full); cut++ {
		if _, _, err := DecodeSummary(NewReader(full[:cut])); err == nil {
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
	if err := EncodeSummary(&w, s, 2); err != nil {
		t.Fatal(err)
	}
	got, ttl, err := DecodeSummary(NewReader(w.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, s) {
		t.Fatalf("summary: got %+v want %+v", got, s)
	}
	if ttl != 2 {
		t.Fatalf("ttl = %d", ttl)
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
// 140.123456 ms, Count 5, 2 levels) is 48 B at v5 and 28 B at v6 and v7.
// No value shape, integral or not, encodes longer than it did at v5 but
// for a byte a key; a bit array is sized by its own forms
// (TestBitArrayForms). The captured sketch-wan values each shrink from
// v6 to v7 by the pinned lengths; both lengths come from the committed
// frames.
func TestSummarySizeReasonable(t *testing.T) {
	n := len(sampleMessages())
	sum := capturedMessages()[n+1].(*Envelope)
	if sum.S.Value != any(float64(1234)) {
		t.Fatalf("entry %d is %#v, not the sum envelope", n+1, sum.S.Value)
	}
	if v5, v6, v7 := len(v5Frame(t, n+1)), len(v6Frame(t, n+1)), len(v7Frame(t, n+1)); v5 != 48 || v6 != 28 || v7 != 28 {
		t.Fatalf("sum envelope is %d B at v5, %d at v6, %d at v7; want 48, 28, 28", v5, v6, v7)
	}
	// Entry n is the same envelope with a nil value (one tag byte), so the
	// captured frames give each value's v5 length.
	nilLen := len(v5Frame(t, n))
	var w Buffer
	for i, msg := range capturedMessages()[n:] {
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
			t.Fatalf("%#v takes %d B at v7, %d at v5", v, w.Len(), v5)
		}
	}
	want := map[string][2]int{ // v6, v7 value bytes
		"bloom": {131, 84}, "distinct": {138, 40}, "entropy": {288, 234}, "topk": {209, 133},
	}
	for _, k := range sketchKinds {
		v6, v7 := hexFrame(t, v6SketchFrames[k]), hexFrame(t, v7SketchFrames[k])
		msg, err := DecodeMessage(v7)
		if err != nil {
			t.Fatal(err)
		}
		w.Reset()
		if err := w.PutValue(msg.(*Envelope).S.Value); err != nil {
			t.Fatal(err)
		}
		// Only the value differs between a v6 envelope and its v7 re-encoding.
		got := [2]int{len(v6) - len(v7) + w.Len(), w.Len()}
		if got != want[k] {
			t.Errorf("%s value: %d B at v6, %d at v7; want %d, %d", k, got[0], got[1], want[k][0], want[k][1])
		}
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

// Property: summaries with arbitrary envelope state round-trip.
func TestPropertySummaryRoundTrip(t *testing.T) {
	f := func(q string, tb, te, age int32, count uint16, boundary bool, v float64, nl uint8, ttl uint8) bool {
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
		if err := EncodeSummary(&w, s, ttl); err != nil {
			return false
		}
		got, gttl, err := DecodeSummary(NewReader(w.Bytes()))
		return err == nil && reflect.DeepEqual(got, s) && gttl == ttl
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
