// Package wire is a compact binary codec for the messages Mortar peers
// exchange. The emulator charges bandwidth by real encoded size, so the
// codec determines the "total network load" numbers the experiments report,
// the way UdpCC datagram sizes did for the paper's prototype.
//
// The format is self-describing for values: a one-byte kind tag followed by
// the payload. Integers use unsigned LEB128 varints; durations and floats
// are fixed 8 bytes.
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

// Value kind tags. Operator values are one of these shapes.
const (
	kindNil     = 0
	kindF64     = 1
	kindF64s    = 2
	kindString  = 3
	kindKV      = 4 // map[string]float64 (histograms)
	kindEntries = 5 // []ScoredEntry (top-k)
	kindBits    = 6 // []uint64 (bloom filters)
	kindCoord   = 7 // Coord (trilateration output)
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

// PutValue appends a tagged operator value. Supported shapes: nil, float64,
// []float64, string, map[string]float64, []ScoredEntry, []uint64, Coord.
func (w *Buffer) PutValue(v any) error {
	switch x := v.(type) {
	case nil:
		w.b = append(w.b, kindNil)
	case float64:
		w.b = append(w.b, kindF64)
		w.PutF64(x)
	case []float64:
		w.b = append(w.b, kindF64s)
		w.PutUvarint(uint64(len(x)))
		for _, f := range x {
			w.PutF64(f)
		}
	case string:
		w.b = append(w.b, kindString)
		w.PutString(x)
	case map[string]float64:
		w.b = append(w.b, kindKV)
		keys := make([]string, 0, len(x))
		for k := range x {
			keys = append(keys, k)
		}
		sort.Strings(keys) // deterministic encoding
		w.PutUvarint(uint64(len(keys)))
		for _, k := range keys {
			w.PutString(k)
			w.PutF64(x[k])
		}
	case []ScoredEntry:
		w.b = append(w.b, kindEntries)
		w.PutUvarint(uint64(len(x)))
		for _, e := range x {
			w.PutString(e.Key)
			w.PutF64(e.Score)
			w.PutUvarint(uint64(len(e.Payload)))
			for _, f := range e.Payload {
				w.PutF64(f)
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
	kind := r.b[r.off]
	r.off++
	switch kind {
	case kindNil:
		return nil, nil
	case kindF64:
		return r.F64()
	case kindF64s:
		n, err := r.Uvarint()
		if err != nil || n > uint64(r.Remaining()) {
			return nil, ErrCorrupt
		}
		out := make([]float64, n)
		for i := range out {
			if out[i], err = r.F64(); err != nil {
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
			v, err := r.F64()
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
			if out[i].Score, err = r.F64(); err != nil {
				return nil, err
			}
			m, err := r.Uvarint()
			if err != nil || m > uint64(r.Remaining()) {
				return nil, ErrCorrupt
			}
			if m > 0 {
				out[i].Payload = make([]float64, m)
				for j := range out[i].Payload {
					if out[i].Payload[j], err = r.F64(); err != nil {
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
