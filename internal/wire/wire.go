// Package wire is a compact binary codec for the messages Mortar peers
// exchange. The emulator charges bandwidth by real encoded size, so the
// codec determines the "total network load" numbers the experiments report,
// the way UdpCC datagram sizes did for the paper's prototype.
//
// The format is self-describing for values: a one-byte kind tag followed by
// the payload. Integers use LEB128 varints (signed ones zigzag); durations
// are signed varints of nanoseconds, or scaled (PutScaled) where they are
// usually round; floats are fixed 8 bytes, or zigzag varints when every
// number of a value is a small integer; a sketch's keys are front-coded and
// its bit array takes the shorter of two forms (see PutValue).
package wire

import (
	"encoding/binary"
	"errors"
	"math"
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
