package wire

import (
	"errors"
	"fmt"
	"math"
	"math/bits"
	"reflect"
	"slices"
	"strings"
	"testing"
)

// bitArrays are the bit arrays every form must carry bit for bit.
func bitArrays() map[string][]uint64 {
	ones := func(n int) []uint64 {
		x := make([]uint64, n)
		for i := range x {
			x[i] = math.MaxUint64
		}
		return x
	}
	last := func(n int, bit uint) []uint64 {
		x := make([]uint64, n)
		x[n-1] = 1 << bit
		return x
	}
	mixed := make([]uint64, 1024)
	for i := range mixed {
		mixed[i] = uint64(i) * 0x9E3779B97F4A7C15 >> (i % 64)
	}
	return map[string][]uint64{
		"nil":             nil,
		"empty":           {},
		"zero-1":          make([]uint64, 1),
		"zero-1024":       make([]uint64, 1024),
		"ones-1":          ones(1),
		"ones-1024":       ones(1024),
		"bit0-1":          last(1, 0),
		"bit63-1":         last(1, 63),
		"bit0-last-1024":  last(1024, 0),
		"bit63-last-1024": last(1024, 63),
		"first-bit-1024":  append([]uint64{1}, make([]uint64, 1023)...),
		"mixed-1024":      mixed,
		"max-words":       last(maxBitWords, 63),
	}
}

// Every bit array round-trips bit for bit in both forms, and PutValue
// writes the shorter (dense on a tie). nil comes back as an empty array, as
// it did at v6.
func TestBitArrayForms(t *testing.T) {
	for name, x := range bitArrays() {
		set := 0
		for _, u := range x {
			set += bits.OnesCount64(u)
		}
		shortest := math.MaxInt
		for _, mode := range []byte{bitsDense, bitsSet} {
			var w Buffer
			w.putBitsAs(x, mode, set)
			got, err := NewReader(w.Bytes()).Value()
			if err != nil || !slices.Equal(got.([]uint64), x) || got.([]uint64) == nil {
				t.Fatalf("%s in mode %d: got %v, %v", name, mode, got, err)
			}
			shortest = min(shortest, w.Len())
		}
		var w Buffer
		if err := w.PutValue(x); err != nil {
			t.Fatal(err)
		}
		if w.Len() != shortest {
			t.Fatalf("%s: PutValue wrote %d B, the shortest form takes %d", name, w.Len(), shortest)
		}
	}
	// An array longer than maxBitWords is written dense, the one form the
	// decoder takes at that length.
	x := make([]uint64, maxBitWords+1)
	var w Buffer
	if err := w.PutValue(x); err != nil {
		t.Fatal(err)
	}
	if mode := w.Bytes()[1]; mode != bitsDense {
		t.Fatalf("%d-word array written in mode %d", len(x), mode)
	}
	if got, err := NewReader(w.Bytes()).Value(); err != nil || !slices.Equal(got.([]uint64), x) {
		t.Fatalf("%d-word dense array: %v", len(x), err)
	}
}

// bitFrame builds a raw bit-array value: the tag, the mode, the word
// count, then the given uvarints and bytes in order.
func bitFrame(mode byte, words uint64, body ...any) []byte {
	w := Buffer{b: []byte{kindBits, mode}}
	w.PutUvarint(words)
	for _, v := range body {
		switch x := v.(type) {
		case int:
			w.PutUvarint(uint64(x))
		case uint64:
			w.PutUvarint(x)
		case byte:
			w.PutByte(x)
		}
	}
	return w.Bytes()
}

// Hostile bit arrays are corrupt: positions past the stated length, gaps
// that would overflow a position, a set-bits form stating more words than
// maxBitWords (which would allocate megabytes from ten bytes), a dense body
// shorter than its words, and an unknown mode.
func TestBitArrayRejectsHostileInput(t *testing.T) {
	for name, b := range map[string][]byte{
		"bit past the end":          bitFrame(bitsSet, 1, 1, 64),
		"second bit past the end":   bitFrame(bitsSet, 1, 2, 62, 1),
		"bit after the last":        bitFrame(bitsSet, 1, 2, 63, 0),
		"bit gap overflow":          bitFrame(bitsSet, 1, 2, 0, uint64(math.MaxUint64)),
		"sparse words over the cap": bitFrame(bitsSet, maxBitWords+1, 0),
		"huge sparse words":         bitFrame(bitsSet, 1<<40, 0),
		"count past the body":       bitFrame(bitsSet, 4, 1<<30),
		"short dense body":          bitFrame(bitsDense, 2, byte(1), byte(2)),
		"unknown mode":              bitFrame(2, 0),
		"truncated gaps":            bitFrame(bitsSet, 1, 3, 0, 1),
	} {
		if got, err := NewReader(b).Value(); !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s (%x): got %v, %v; want ErrCorrupt", name, b, got, err)
		}
	}
	// The largest array a sparse form may state decodes.
	if got, err := NewReader(bitFrame(bitsSet, maxBitWords, 1, maxBitWords*64-1)).Value(); err != nil || got.([]uint64)[maxBitWords-1] != 1<<63 {
		t.Fatalf("%d-word sparse array: %v", maxBitWords, err)
	}
}

// Histogram keys, front-coded in ascending order, round-trip whatever they
// hold: the empty key, keys that are prefixes of one another, 0xFF bytes.
func TestHistogramKeysRoundTrip(t *testing.T) {
	for _, m := range []map[string]float64{
		{},
		{"": 1},
		{"": 1, "a": 2, "ab": 3, "abc": 4, "abd": 0.5, "b": 6},
		{"\xff": 1, "\xff\xff": 2, "a\xff": 3, "a\xff\xff\x00": 4, "\x00": 5},
		{"k0": 3, "k1": 1, "k10": 1, "k100": 2, "k1000": 1, "k4095": 9},
	} {
		var w Buffer
		if err := w.PutValue(m); err != nil {
			t.Fatal(err)
		}
		got, err := NewReader(w.Bytes()).Value()
		if err != nil || !reflect.DeepEqual(got, m) || !sameValue(got, m) {
			t.Fatalf("%v came back as %v, %v", m, got, err)
		}
	}
}

// kvFrame builds a raw integral histogram value from (shared prefix,
// suffix) pairs, each key counting 1.
func kvFrame(keys ...any) []byte {
	w := Buffer{b: []byte{kindKV | kindIntegral}}
	w.PutUvarint(uint64(len(keys) / 2))
	for i := 0; i < len(keys); i += 2 {
		w.PutUvarint(uint64(keys[i].(int)))
		w.PutString(keys[i+1].(string))
		w.PutVarint(1)
	}
	return w.Bytes()
}

// A histogram whose keys are not strictly ascending, or whose shared
// prefix overruns the key before, is corrupt.
func TestHistogramKeysRejectHostileInput(t *testing.T) {
	for name, b := range map[string][]byte{
		"unsorted":             kvFrame(0, "b", 0, "a"),
		"unsorted by a suffix": kvFrame(0, "ab", 1, "a"),
		"duplicate":            kvFrame(0, "a", 1, ""),
		"duplicate empty":      kvFrame(0, "", 0, ""),
		"prefix past the key":  kvFrame(0, "ab", 3, "c"),
		"prefix on the first":  kvFrame(1, "a"),
		"suffix past the end":  {kindKV | kindIntegral, 1, 0, 9, 'a'},
	} {
		if got, err := NewReader(b).Value(); !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s (%x): got %v, %v; want ErrCorrupt", name, b, got, err)
		}
	}
	if got, err := NewReader(kvFrame(0, "a", 1, "b", 0, "b\xff")).Value(); err != nil || !reflect.DeepEqual(got, map[string]float64{"a": 1, "ab": 1, "b\xff": 1}) {
		t.Fatalf("ascending keys: %v, %v", got, err)
	}
}

// Scored entries keep their order, and their score and payload columns
// take the integral form each on its own: a fractional payload stamp no
// longer widens the scores, nor a fractional score the payloads.
func TestEntriesColumnsAndOrder(t *testing.T) {
	stamps := []ScoredEntry{{Key: "k10", Score: 1, Payload: []float64{1.5e9 + 0.25}}, {Key: "k1", Score: 1, Payload: []float64{1.5e9 + 0.5}}}
	rssi := []ScoredEntry{{Key: "aa:bb:01", Score: -30.5, Payload: []float64{3, 4}}, {Key: "aa:bb:02", Score: -55.25, Payload: []float64{-1, 0}}}
	for _, c := range []struct {
		v     []ScoredEntry
		flags byte
	}{
		{stamps, kindIntegral},
		{rssi, kindIntegralPayload},
		{[]ScoredEntry{{Key: "a", Score: 2}, {Key: "", Score: 3, Payload: []float64{7}}, {Key: "a\xff", Score: 4}}, kindIntegral | kindIntegralPayload},
		{[]ScoredEntry{{Key: "x", Score: 0.5, Payload: []float64{0.25}}}, 0},
	} {
		var w Buffer
		if err := w.PutValue(c.v); err != nil {
			t.Fatal(err)
		}
		if kind := w.Bytes()[0]; kind != kindEntries|c.flags {
			t.Fatalf("%v: kind %#x, want %#x", c.v, kind, kindEntries|c.flags)
		}
		got, err := NewReader(w.Bytes()).Value()
		if err != nil || !reflect.DeepEqual(got, c.v) || !sameValue(got, c.v) {
			t.Fatalf("%v came back as %v, %v", c.v, got, err)
		}
		if w.Len() > v5ValueLen(c.v)+keyCount(c.v) {
			t.Fatalf("%v takes %d B, %d at v5", c.v, w.Len(), v5ValueLen(c.v))
		}
	}
	// A shared prefix longer than the previous entry's key is corrupt; keys
	// need no order.
	w := Buffer{b: []byte{kindEntries | kindIntegral | kindIntegralPayload, 2}}
	w.putFrontCoded("", "ab")
	w.b = append(w.b, 2, 0)
	w.PutUvarint(3)
	w.PutString("")
	if _, err := NewReader(w.Bytes()).Value(); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("entry prefix past the key before: %v", err)
	}
}

// chainFrame builds a raw value of n front-coded keys "x", "xx", "xxx", …:
// each shares the whole key before it and adds one byte, so its keys
// decode to n²/2 bytes from a few bytes a key.
func chainFrame(kind byte, n int) []byte {
	w := Buffer{b: []byte{kind | kindIntegral}}
	if kind == kindEntries {
		w.b[0] |= kindIntegralPayload
	}
	w.PutUvarint(uint64(n))
	for i := range n {
		w.PutUvarint(uint64(i))
		w.PutString("x")
		w.PutVarint(1)
		if kind == kindEntries {
			w.PutUvarint(0) // no payload
		}
	}
	return w.Bytes()
}

// A front-coded key may be at most maxKeyGrowth times the bytes it takes,
// so a frame's keys decode to at most that many times its length: a chain
// of keys each one byte longer than the last is corrupt once a key outgrows
// its bytes, in a histogram and in an entry list. Honest keys with long
// shared prefixes round-trip, their prefixes cut short by the encoder.
func TestFrontCodedKeysBoundTheirGrowth(t *testing.T) {
	for _, kind := range []byte{kindKV, kindEntries} {
		for _, n := range []int{100, 5000} {
			if got, err := NewReader(chainFrame(kind, n)).Value(); !errors.Is(err, ErrCorrupt) {
				t.Errorf("kind %d, %d-key chain: got %T, %v; want ErrCorrupt", kind, n, got, err)
			}
		}
		if _, err := NewReader(chainFrame(kind, 40)).Value(); err != nil {
			t.Errorf("kind %d, 40-key chain: %v", kind, err)
		}
	}
	long := strings.Repeat("p", 300)
	hist := map[string]float64{}
	var top []ScoredEntry
	for i := range 500 {
		hist[fmt.Sprintf("%s%04d", long, i)] = 1
		top = append(top, ScoredEntry{Key: long, Score: float64(i)})
	}
	for _, v := range []any{hist, top} {
		var w Buffer
		if err := w.PutValue(v); err != nil {
			t.Fatal(err)
		}
		got, err := NewReader(w.Bytes()).Value()
		if err != nil || !reflect.DeepEqual(got, v) {
			t.Fatalf("%T of 500 long keys: %v", v, err)
		}
		if keys := 500 * len(long); keys > maxKeyGrowth*w.Len() || w.Len() > keys/4 {
			t.Fatalf("%T of %d key bytes takes %d B", v, keys, w.Len())
		}
	}
}
