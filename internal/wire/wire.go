// Package wire is a compact binary codec for the messages Mortar peers
// exchange. The emulator charges bandwidth by real encoded size, so the
// codec determines the "total network load" numbers the experiments report,
// the way UdpCC datagram sizes did for the paper's prototype.
//
// The format is self-describing for values: a one-byte kind tag followed by
// the payload. Integers use LEB128 varints (signed ones zigzag); durations
// are signed varints of nanoseconds, or scaled (PutScaled) where they are
// usually round; floats are fixed 8 bytes, or zigzag varints when every
// number of a value is a small integer (see PutValue).
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"sort"
	"sync"
	"time"
)

// ErrCorrupt is returned when a buffer cannot be decoded.
var ErrCorrupt = errors.New("wire: corrupt buffer")

// Buffer accumulates an encoding.
type Buffer struct {
	b []byte
}

// Bytes returns the encoded bytes.
func (w *Buffer) Bytes() []byte { return w.b }

// Len returns the encoded size so far.
func (w *Buffer) Len() int { return len(w.b) }

// Reset empties the buffer, keeping its capacity for reuse.
func (w *Buffer) Reset() { w.b = w.b[:0] }

// Reserve resets the buffer and returns a length-n scratch slice backed by
// it, growing the backing array if needed. Socket read loops use this to
// borrow a receive buffer from the pool instead of allocating their own.
func (w *Buffer) Reserve(n int) []byte {
	if cap(w.b) < n {
		w.b = make([]byte, n)
	}
	w.b = w.b[:n]
	return w.b
}

// bufferPool recycles encode and receive buffers across the hot send and
// receive paths; see GetBuffer/PutBuffer for the ownership rules.
var bufferPool = sync.Pool{New: func() any { return new(Buffer) }}

// maxPooledCap bounds the capacity a returned buffer may retain: a buffer
// that grew past this (a fragmented multi-megabyte send) is dropped rather
// than pinned in the pool forever.
const maxPooledCap = 128 << 10

// GetBuffer returns an empty buffer from the pool. The caller owns it until
// it is handed off (netrt's pacer takes ownership of submitted buffers) or
// returned with PutBuffer.
func GetBuffer() *Buffer {
	w := bufferPool.Get().(*Buffer)
	w.Reset()
	return w
}

// PutBuffer returns a buffer to the pool. Callers must not retain any slice
// aliasing the buffer (Bytes, Reserve results) past this call. Oversized
// buffers are dropped so the pool holds only datagram-scale allocations.
func PutBuffer(w *Buffer) {
	if w == nil || cap(w.b) > maxPooledCap {
		return
	}
	bufferPool.Put(w)
}

// PutUvarint appends an unsigned varint.
func (w *Buffer) PutUvarint(v uint64) {
	w.b = binary.AppendUvarint(w.b, v)
}

// PutVarint appends a signed varint.
func (w *Buffer) PutVarint(v int64) {
	w.b = binary.AppendVarint(w.b, v)
}

// PutF64 appends a float64.
func (w *Buffer) PutF64(f float64) {
	w.b = binary.LittleEndian.AppendUint64(w.b, math.Float64bits(f))
}

// PutDuration appends a time.Duration.
func (w *Buffer) PutDuration(d time.Duration) { w.PutVarint(int64(d)) }

// PutScaled appends d in the coarsest of ns, µs, ms and s that divides it
// exactly: the zigzag count of units, shifted left two bits over the unit's
// index, as a little-endian base-128 varint of up to 66 bits. A window
// boundary at 20.25 s takes 3 bytes where PutDuration takes 6; a duration
// with a nanosecond remainder takes at most one byte more.
func (w *Buffer) PutScaled(d time.Duration) {
	v, unit := int64(d), byte(0)
	switch {
	case v%1e9 == 0: // 0 too: one byte in any unit
		v, unit = v/1e9, 3
	case v%1e6 == 0:
		v, unit = v/1e6, 2
	case v%1e3 == 0:
		v, unit = v/1e3, 1
	}
	z := uint64(v<<1) ^ uint64(v>>63)
	if z < 1<<5 {
		w.b = append(w.b, unit|byte(z)<<2)
		return
	}
	w.b = append(w.b, 0x80|unit|byte(z&0x1f)<<2)
	w.PutUvarint(z >> 5)
}

// PutString appends a length-prefixed string.
func (w *Buffer) PutString(s string) {
	w.PutUvarint(uint64(len(s)))
	w.b = append(w.b, s...)
}

// PutBytes appends length-prefixed raw bytes.
func (w *Buffer) PutBytes(p []byte) {
	w.PutUvarint(uint64(len(p)))
	w.b = append(w.b, p...)
}

// PutByte appends a single raw byte.
func (w *Buffer) PutByte(b byte) { w.b = append(w.b, b) }

// PutRaw appends raw bytes without a length prefix (framing headers).
func (w *Buffer) PutRaw(p []byte) { w.b = append(w.b, p...) }

// PutBool appends a boolean.
func (w *Buffer) PutBool(v bool) {
	if v {
		w.b = append(w.b, 1)
	} else {
		w.b = append(w.b, 0)
	}
}

// Reader decodes a buffer produced by Buffer.
type Reader struct {
	b   []byte
	off int
}

// NewReader wraps encoded bytes.
func NewReader(b []byte) *Reader { return &Reader{b: b} }

// Remaining returns the number of unread bytes.
func (r *Reader) Remaining() int { return len(r.b) - r.off }

// Uvarint reads an unsigned varint.
func (r *Reader) Uvarint() (uint64, error) {
	v, n := binary.Uvarint(r.b[r.off:])
	if n <= 0 {
		return 0, ErrCorrupt
	}
	r.off += n
	return v, nil
}

// Varint reads a signed varint.
func (r *Reader) Varint() (int64, error) {
	v, n := binary.Varint(r.b[r.off:])
	if n <= 0 {
		return 0, ErrCorrupt
	}
	r.off += n
	return v, nil
}

// F64 reads a float64.
func (r *Reader) F64() (float64, error) {
	if r.Remaining() < 8 {
		return 0, ErrCorrupt
	}
	v := math.Float64frombits(binary.LittleEndian.Uint64(r.b[r.off:]))
	r.off += 8
	return v, nil
}

// Duration reads a time.Duration.
func (r *Reader) Duration() (time.Duration, error) {
	v, err := r.Varint()
	return time.Duration(v), err
}

// Scaled reads a duration written by PutScaled. A count whose value in
// nanoseconds overflows an int64 is corrupt.
func (r *Reader) Scaled() (time.Duration, error) {
	b, err := r.Byte()
	if err != nil {
		return 0, err
	}
	z := uint64(b>>2) & 0x1f
	if b&0x80 != 0 {
		hi, err := r.Uvarint()
		if err != nil || hi >= 1<<59 {
			return 0, ErrCorrupt
		}
		z |= hi << 5
	}
	v := int64(z>>1) ^ -int64(z&1)
	for unit := b & 3; unit > 0; unit-- {
		if v > math.MaxInt64/1000 || v < math.MinInt64/1000 {
			return 0, ErrCorrupt
		}
		v *= 1000
	}
	return time.Duration(v), nil
}

// String reads a length-prefixed string.
func (r *Reader) String() (string, error) {
	n, err := r.Uvarint()
	if err != nil || uint64(r.Remaining()) < n {
		return "", ErrCorrupt
	}
	s := string(r.b[r.off : r.off+int(n)])
	r.off += int(n)
	return s, nil
}

// Bytes reads length-prefixed raw bytes.
func (r *Reader) Bytes() ([]byte, error) {
	n, err := r.Uvarint()
	if err != nil || uint64(r.Remaining()) < n {
		return nil, ErrCorrupt
	}
	p := make([]byte, n)
	copy(p, r.b[r.off:])
	r.off += int(n)
	return p, nil
}

// Byte reads a single raw byte.
func (r *Reader) Byte() (byte, error) {
	if r.Remaining() < 1 {
		return 0, ErrCorrupt
	}
	b := r.b[r.off]
	r.off++
	return b, nil
}

// Rest returns the unread remainder of the buffer without copying; the
// reader is advanced past it.
func (r *Reader) Rest() []byte {
	p := r.b[r.off:]
	r.off = len(r.b)
	return p
}

// Bool reads a boolean.
func (r *Reader) Bool() (bool, error) {
	if r.Remaining() < 1 {
		return false, ErrCorrupt
	}
	v := r.b[r.off] != 0
	r.off++
	return v, nil
}

// Value kind tags. Operator values are one of these shapes. Every shape
// that carries counts or sums of them — scalar, []float64, histogram map,
// scored entries — has an integral twin, its tag with kindIntegral set,
// whose numbers travel as zigzag varints: PutValue picks the twin when every
// number in the value is integral (see integral), so a count or a sum of
// counts takes one to three bytes a number instead of eight, and no value
// ever takes more bytes than its float form. A Coord, a trilateration
// fix, is fractional in practice and keeps its float form alone.
const (
	kindNil     = 0
	kindF64     = 1
	kindF64s    = 2
	kindString  = 3
	kindKV      = 4 // map[string]float64 (histograms)
	kindEntries = 5 // []ScoredEntry (top-k)
	kindBits    = 6 // []uint64 (bloom filters)
	kindCoord   = 7 // Coord (trilateration output)

	kindIntegral = 8 // flag on kindF64, kindF64s, kindKV, kindEntries
)

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
		ints := true
		keys := make([]string, 0, len(x))
		for k, f := range x {
			keys = append(keys, k)
			ints = ints && integral(f)
		}
		sort.Strings(keys) // deterministic encoding
		w.putKind(kindKV, ints)
		w.PutUvarint(uint64(len(keys)))
		for _, k := range keys {
			w.PutString(k)
			w.putNum(x[k], ints)
		}
	case []ScoredEntry:
		ints := true
		for _, e := range x {
			ints = ints && integral(e.Score) && integrals(e.Payload)
		}
		w.putKind(kindEntries, ints)
		w.PutUvarint(uint64(len(x)))
		for _, e := range x {
			w.PutString(e.Key)
			w.putNum(e.Score, ints)
			w.PutUvarint(uint64(len(e.Payload)))
			for _, f := range e.Payload {
				w.putNum(f, ints)
			}
		}
	case []uint64:
		w.b = append(w.b, kindBits)
		w.PutUvarint(uint64(len(x)))
		for _, u := range x {
			w.PutUvarint(u)
		}
	case Coord:
		w.b = append(w.b, kindCoord)
		w.PutF64(x.X)
		w.PutF64(x.Y)
	default:
		return fmt.Errorf("wire: unsupported value type %T", v)
	}
	return nil
}

// Value reads a tagged operator value.
func (r *Reader) Value() (any, error) {
	if r.Remaining() < 1 {
		return nil, ErrCorrupt
	}
	kind, ints := r.b[r.off], false
	r.off++
	switch kind {
	case kindF64 | kindIntegral, kindF64s | kindIntegral, kindKV | kindIntegral, kindEntries | kindIntegral:
		kind, ints = kind&^kindIntegral, true
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
		n, err := r.Uvarint()
		if err != nil || n > uint64(r.Remaining()) {
			return nil, ErrCorrupt
		}
		out := make(map[string]float64, n)
		for i := uint64(0); i < n; i++ {
			k, err := r.String()
			if err != nil {
				return nil, err
			}
			v, err := r.num(ints)
			if err != nil {
				return nil, err
			}
			out[k] = v
		}
		return out, nil
	case kindEntries:
		n, err := r.Uvarint()
		if err != nil || n > uint64(r.Remaining()) {
			return nil, ErrCorrupt
		}
		out := make([]ScoredEntry, n)
		for i := range out {
			if out[i].Key, err = r.String(); err != nil {
				return nil, err
			}
			if out[i].Score, err = r.num(ints); err != nil {
				return nil, err
			}
			m, err := r.Uvarint()
			if err != nil || m > uint64(r.Remaining()) {
				return nil, ErrCorrupt
			}
			if m > 0 {
				out[i].Payload = make([]float64, m)
				for j := range out[i].Payload {
					if out[i].Payload[j], err = r.num(ints); err != nil {
						return nil, err
					}
				}
			}
		}
		return out, nil
	case kindBits:
		n, err := r.Uvarint()
		if err != nil || n > uint64(r.Remaining()) {
			return nil, ErrCorrupt
		}
		out := make([]uint64, n)
		for i := range out {
			if out[i], err = r.Uvarint(); err != nil {
				return nil, err
			}
		}
		return out, nil
	case kindCoord:
		var c Coord
		var err error
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
