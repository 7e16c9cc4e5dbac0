package wire

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
	"slices"
	"sync"
)

// Value kind tags. Operator values are one of these shapes. Every shape
// that carries counts or sums of them — scalar, []float64, histogram map,
// scored entries — has an integral twin, its tag with kindIntegral set,
// whose numbers travel as zigzag varints: PutValue picks the twin when every
// number in the value is integral (see integral), so a count or a sum of
// counts takes one to three bytes a number instead of eight, and no value
// ever takes more bytes than its float form. Scored entries flag their two
// number columns apart: kindIntegral covers the scores and
// kindIntegralPayload the payloads, so a fractional payload stamp does not
// widen every score. A Coord, a trilateration fix, is fractional in
// practice and keeps its float form alone.
const (
	kindNil     = 0
	kindF64     = 1
	kindF64s    = 2
	kindString  = 3
	kindKV      = 4 // map[string]float64 (histograms)
	kindEntries = 5 // []ScoredEntry (top-k)
	kindBits    = 6 // []uint64 (bloom filters, distinct registers)
	kindCoord   = 7 // Coord (trilateration output)

	kindIntegral        = 8  // flag on kindF64, kindF64s, kindKV, kindEntries (its scores)
	kindIntegralPayload = 16 // flag on kindEntries: its payloads
)

// Forms of a bit array (kindBits), named by the mode byte after the tag.
// The encoder sizes both and writes the shorter, dense on a tie.
const (
	bitsDense = 0 // every word, 8 little-endian bytes
	bitsSet   = 1 // the set bits: a count, then the uvarint gap before each
)

// maxBitWords bounds the word count a set-bits array may state (a
// 524,288-bit Bloom filter, a 65,536-register distinct sketch). That form's
// words are not backed by its bytes, so without the cap a 10-byte frame
// could make the decoder allocate megabytes. A dense array is backed by 8
// bytes a word and needs no cap; the encoder writes a longer array dense.
const maxBitWords = 1 << 13

// maxKeyGrowth bounds a front-coded key's length as a multiple of the
// bytes it takes on the wire, so a frame's keys decode to at most that many
// times its length. A shared prefix is copied, not read: without the bound
// a chain of keys "x", "xx", "xxx", … of a few bytes each would decode to
// key bytes growing with the square of the frame's length. A key of up to
// 32 bytes always fits; a longer one sends at least a sixteenth of itself.
const maxKeyGrowth = 16

// ScoredEntry is a (key, score, payload) element used by top-k values.
type ScoredEntry struct {
	Key     string
	Score   float64
	Payload []float64
}

// Coord is a located position (Wi-Fi trilateration output).
type Coord struct {
	X, Y float64
}

// maxIntegral bounds the magnitude of a number sent as a varint: every
// integer below it is exactly a float64, so the twin kinds are lossless.
const maxIntegral = 1 << 53

// integral reports whether f may travel as a zigzag varint: an integer of
// magnitude below 2^53, and not −0, whose sign a varint cannot carry.
func integral(f float64) bool {
	return math.Abs(f) < maxIntegral && f == math.Trunc(f) && (f != 0 || !math.Signbit(f))
}

func integrals(fs []float64) bool {
	for _, f := range fs {
		if !integral(f) {
			return false
		}
	}
	return true
}

// putKind appends a value kind tag, flagged integral when ints.
func (w *Buffer) putKind(kind byte, ints bool) {
	if ints {
		kind |= kindIntegral
	}
	w.b = append(w.b, kind)
}

// putNum appends one number of a value: a zigzag varint in an integral
// kind, 8 bytes otherwise.
func (w *Buffer) putNum(f float64, ints bool) {
	if ints {
		w.PutVarint(int64(f))
		return
	}
	w.PutF64(f)
}

// num reads one number written by putNum.
func (r *Reader) num(ints bool) (float64, error) {
	if !ints {
		return r.F64()
	}
	v, err := r.Varint()
	if err != nil || v <= -maxIntegral || v >= maxIntegral {
		return 0, ErrCorrupt
	}
	return float64(v), nil
}

// uvarintLen is how many bytes PutUvarint takes for v.
func uvarintLen(v uint64) int { return (bits.Len64(v|1) + 6) / 7 }

// putFrontCoded appends key front-coded against prev, the key written
// before it: the length of their shared prefix, then the rest of key as a
// length-prefixed string. The prefix is cut short where a longer one would
// make the key more than maxKeyGrowth times the bytes it takes.
func (w *Buffer) putFrontCoded(prev, key string) {
	n, most := 0, len(key)+2-(len(key)+maxKeyGrowth-1)/maxKeyGrowth
	for n < most && n < len(prev) && n < len(key) && prev[n] == key[n] {
		n++
	}
	w.PutUvarint(uint64(n))
	w.PutString(key[n:])
}

// frontCoded reads a key written by putFrontCoded against prev. A shared
// prefix longer than prev, or a key longer than maxKeyGrowth times the
// bytes it took, is corrupt.
func (r *Reader) frontCoded(prev string) (string, error) {
	start := r.off
	n, err := r.Uvarint()
	if err != nil || n > uint64(len(prev)) {
		return "", ErrCorrupt
	}
	m, err := r.Uvarint()
	if err != nil || m > uint64(r.Remaining()) || n+m > maxKeyGrowth*(uint64(r.off-start)+m) {
		return "", ErrCorrupt
	}
	key := prev[:n] + string(r.b[r.off:r.off+int(m)])
	r.off += int(m)
	return key, nil
}

// PutValue appends a tagged operator value. Supported shapes: nil, float64,
// []float64, string, map[string]float64, []ScoredEntry, []uint64, Coord.
func (w *Buffer) PutValue(v any) error {
	switch x := v.(type) {
	case nil:
		w.b = append(w.b, kindNil)
	case float64:
		ints := integral(x)
		w.putKind(kindF64, ints)
		w.putNum(x, ints)
	case []float64:
		ints := integrals(x)
		w.putKind(kindF64s, ints)
		w.PutUvarint(uint64(len(x)))
		for _, f := range x {
			w.putNum(f, ints)
		}
	case string:
		w.b = append(w.b, kindString)
		w.PutString(x)
	case map[string]float64:
		w.putKV(x)
	case []ScoredEntry:
		w.putEntries(x)
	case []uint64:
		w.putBits(x)
	case Coord:
		w.b = append(w.b, kindCoord)
		w.PutF64(x.X)
		w.PutF64(x.Y)
	default:
		return fmt.Errorf("wire: unsupported value type %T", v)
	}
	return nil
}

// keyScratch pools the slice a histogram's keys are sorted in, so encoding
// one allocates nothing.
var keyScratch = sync.Pool{New: func() any { return new([]string) }}

// putKV appends a histogram map: its keys in ascending order, each
// front-coded against the one before, with its count.
func (w *Buffer) putKV(m map[string]float64) {
	sp := keyScratch.Get().(*[]string)
	keys, ints := (*sp)[:0], true
	for k, f := range m {
		keys = append(keys, k)
		ints = ints && integral(f)
	}
	slices.Sort(keys)
	w.putKind(kindKV, ints)
	w.PutUvarint(uint64(len(keys)))
	prev := ""
	for _, k := range keys {
		w.putFrontCoded(prev, k)
		w.putNum(m[k], ints)
		prev = k
	}
	clear(keys) // the pool must not pin the map's keys
	*sp = keys[:0]
	keyScratch.Put(sp)
}

// putEntries appends scored entries in their order, each key front-coded
// against the entry before, the score and payload columns each in its
// integral form when every number of the column is integral.
func (w *Buffer) putEntries(x []ScoredEntry) {
	scores, payloads := true, true
	for _, e := range x {
		scores = scores && integral(e.Score)
		payloads = payloads && integrals(e.Payload)
	}
	kind := byte(kindEntries)
	if payloads {
		kind |= kindIntegralPayload
	}
	w.putKind(kind, scores)
	w.PutUvarint(uint64(len(x)))
	prev := ""
	for _, e := range x {
		w.putFrontCoded(prev, e.Key)
		w.putNum(e.Score, scores)
		w.PutUvarint(uint64(len(e.Payload)))
		for _, f := range e.Payload {
			w.putNum(f, payloads)
		}
		prev = e.Key
	}
}

// putBits appends a bit array in the shorter of its two forms: the mode
// byte, the word count, then the form's body. A gap is how many bits lie
// between a set bit and the one before it, the first counted from bit 0.
// Within a word every gap fits one byte, so only a word's first set bit
// needs its gap sized. An array longer than maxBitWords is written dense.
func (w *Buffer) putBits(x []uint64) {
	set, setLen, last := 0, 0, -1
	for i, u := range x {
		if u == 0 {
			continue
		}
		n := bits.OnesCount64(u)
		setLen += n - 1 + uvarintLen(uint64(i*64+bits.TrailingZeros64(u)-last-1))
		last = i*64 + 63 - bits.LeadingZeros64(u)
		set += n
	}
	mode := byte(bitsDense)
	if len(x) <= maxBitWords && uvarintLen(uint64(set))+setLen < 8*len(x) {
		mode = bitsSet
	}
	w.putBitsAs(x, mode, set)
}

// putBitsAs appends a bit array in the given form; set is how many set
// bits it holds.
func (w *Buffer) putBitsAs(x []uint64, mode byte, set int) {
	w.b = append(w.b, kindBits, mode)
	w.PutUvarint(uint64(len(x)))
	if mode == bitsDense {
		for _, u := range x {
			w.b = binary.LittleEndian.AppendUint64(w.b, u)
		}
		return
	}
	w.PutUvarint(uint64(set))
	last := -1
	for i, u := range x {
		for v := u; v != 0; v &= v - 1 {
			p := i*64 + bits.TrailingZeros64(v)
			w.PutUvarint(uint64(p - last - 1))
			last = p
		}
	}
}

// Value reads a tagged operator value written by PutValue.
func (r *Reader) Value() (any, error) {
	kind, err := r.Byte()
	if err != nil {
		return nil, err
	}
	ints, payloads := kind&kindIntegral != 0, kind&kindIntegralPayload != 0
	kind &^= kindIntegral | kindIntegralPayload
	switch {
	case payloads && kind != kindEntries,
		ints && kind != kindF64 && kind != kindF64s && kind != kindKV && kind != kindEntries:
		return nil, fmt.Errorf("wire: unknown value flags on kind %d: %w", kind, ErrCorrupt)
	}
	switch kind {
	case kindNil:
		return nil, nil
	case kindF64:
		return r.num(ints)
	case kindF64s:
		n, err := r.Uvarint()
		if err != nil || n > uint64(r.Remaining()) {
			return nil, ErrCorrupt
		}
		out := make([]float64, n)
		for i := range out {
			if out[i], err = r.num(ints); err != nil {
				return nil, err
			}
		}
		return out, nil
	case kindString:
		return r.String()
	case kindKV:
		return r.kv(ints)
	case kindEntries:
		return r.entries(ints, payloads)
	case kindBits:
		return r.bits()
	case kindCoord:
		var c Coord
		if c.X, err = r.F64(); err != nil {
			return nil, err
		}
		if c.Y, err = r.F64(); err != nil {
			return nil, err
		}
		return c, nil
	default:
		return nil, fmt.Errorf("wire: unknown value kind %d: %w", kind, ErrCorrupt)
	}
}

// kv reads a histogram map. Every key is front-coded and strictly greater
// than the one before it; anything else is corrupt.
func (r *Reader) kv(ints bool) (map[string]float64, error) {
	n, err := r.Uvarint()
	if err != nil || n > uint64(r.Remaining()) {
		return nil, ErrCorrupt
	}
	out := make(map[string]float64, n)
	prev := ""
	for i := uint64(0); i < n; i++ {
		k, err := r.frontCoded(prev)
		if err != nil {
			return nil, err
		}
		if i > 0 && k <= prev {
			return nil, fmt.Errorf("wire: histogram keys out of order: %w", ErrCorrupt)
		}
		v, err := r.num(ints)
		if err != nil {
			return nil, err
		}
		out[k] = v
		prev = k
	}
	return out, nil
}

// entries reads scored entries, their keys front-coded.
func (r *Reader) entries(scores, payloads bool) ([]ScoredEntry, error) {
	n, err := r.Uvarint()
	if err != nil || n > uint64(r.Remaining()) {
		return nil, ErrCorrupt
	}
	out := make([]ScoredEntry, n)
	prev := ""
	for i := range out {
		e := &out[i]
		if e.Key, err = r.frontCoded(prev); err != nil {
			return nil, err
		}
		prev = e.Key
		if e.Score, err = r.num(scores); err != nil {
			return nil, err
		}
		m, err := r.Uvarint()
		if err != nil || m > uint64(r.Remaining()) {
			return nil, ErrCorrupt
		}
		if m > 0 {
			e.Payload = make([]float64, m)
			for j := range e.Payload {
				if e.Payload[j], err = r.num(payloads); err != nil {
					return nil, err
				}
			}
		}
	}
	return out, nil
}

// bits reads a bit array written by putBits. A set-bits form stating more
// than maxBitWords words, a position past the stated length, and a gap that
// overflows it are corrupt.
func (r *Reader) bits() ([]uint64, error) {
	mode, err := r.Byte()
	if err != nil {
		return nil, err
	}
	n, err := r.Uvarint()
	if err != nil {
		return nil, err
	}
	if mode == bitsDense {
		if n > uint64(r.Remaining())/8 {
			return nil, ErrCorrupt
		}
		out := make([]uint64, n)
		for i := range out {
			out[i] = binary.LittleEndian.Uint64(r.b[r.off:])
			r.off += 8
		}
		return out, nil
	}
	if mode != bitsSet || n > maxBitWords {
		return nil, fmt.Errorf("wire: bit array mode %d of %d words: %w", mode, n, ErrCorrupt)
	}
	set, err := r.Uvarint()
	if err != nil || set > uint64(r.Remaining()) {
		return nil, ErrCorrupt
	}
	out := make([]uint64, n)
	next := uint64(0) // the lowest bit the next set bit may take
	for i := uint64(0); i < set; i++ {
		gap, err := r.Uvarint()
		if err != nil || gap >= n*64-next {
			return nil, ErrCorrupt
		}
		p := next + gap
		next = p + 1
		out[p/64] |= 1 << (p % 64)
	}
	return out, nil
}
