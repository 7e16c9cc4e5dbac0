package wire

import (
	"fmt"
	"time"

	"repro/internal/tuple"
)

// A summary's flags byte: the boundary bit, whether a window index
// follows, and the TTL-down counter in two bits. The other bits are
// reserved and decode as corrupt.
const (
	flagBoundary = 1 << 0
	flagIndex    = 1 << 1
	ttlDownShift = 2
	maxTTLDown   = 3 // the largest TTL-down counter two bits hold
	flagsKnown   = flagBoundary | flagIndex | maxTTLDown<<ttlDownShift
)

// EncodeSummary appends a summary tuple with its routing state: the
// per-tree last-visited levels and the TTL-down counter (§3.3). The
// operator is named by seq, the Seq of the install that made the sending
// instance, which implies the epoch: neither s.Query nor an epoch is
// written. A zero index is not written: a real window always has TE > TB,
// and a syncless receiver computes a time window's index from the age
// (§5.1), so its sender zeroes it. A written index is scaled (PutScaled):
// TB, then TE as a delta from TB, which wraps the way int64 arithmetic
// does, so every pair round-trips. The age is rounded to the microsecond
// and scaled.
func EncodeSummary(w *Buffer, s tuple.Summary, ttlDown uint8, seq uint64) error {
	if ttlDown > maxTTLDown {
		return fmt.Errorf("wire: TTL-down %d over %d", ttlDown, maxTTLDown)
	}
	flags := ttlDown << ttlDownShift
	if s.Boundary {
		flags |= flagBoundary
	}
	index := s.Index != tuple.Index{}
	if index {
		flags |= flagIndex
	}
	w.PutUvarint(seq)
	w.b = append(w.b, flags)
	if index {
		w.PutScaled(s.Index.TB)
		w.PutScaled(s.Index.TE - s.Index.TB)
	}
	w.PutScaled(s.Age.Round(time.Microsecond))
	w.PutUvarint(uint64(s.Count))
	w.PutUvarint(uint64(s.Hops))
	if err := w.PutValue(s.Value); err != nil {
		return err
	}
	w.PutUvarint(uint64(len(s.Levels)))
	for _, l := range s.Levels {
		w.PutVarint(int64(l))
	}
	return nil
}

// DecodeSummary reads a summary encoded by EncodeSummary and the install
// Seq it names. The summary comes back with no Query (the receiver names it
// from the instance the Seq resolves to), and with a zero Index when it
// was sent without one.
func DecodeSummary(r *Reader) (s tuple.Summary, ttlDown uint8, seq uint64, err error) {
	if seq, err = r.Uvarint(); err != nil {
		return
	}
	var flags byte
	if flags, err = r.Byte(); err != nil {
		return
	}
	if flags&^flagsKnown != 0 {
		err = fmt.Errorf("wire: summary flags %#x: %w", flags, ErrCorrupt)
		return
	}
	s.Boundary = flags&flagBoundary != 0
	ttlDown = flags >> ttlDownShift & maxTTLDown
	if flags&flagIndex != 0 {
		if s.Index.TB, err = r.Scaled(); err != nil {
			return
		}
		var span time.Duration
		if span, err = r.Scaled(); err != nil {
			return
		}
		s.Index.TE = s.Index.TB + span
	}
	if s.Age, err = r.Scaled(); err != nil {
		return
	}
	var cnt uint64
	if cnt, err = r.Uvarint(); err != nil {
		return
	}
	s.Count = int(cnt)
	var hops uint64
	if hops, err = r.Uvarint(); err != nil {
		return
	}
	s.Hops = int(hops)
	if s.Value, err = r.Value(); err != nil {
		return
	}
	var n uint64
	if n, err = r.Uvarint(); err != nil || n > uint64(r.Remaining())+1 {
		err = ErrCorrupt
		return
	}
	s.Levels = make([]int16, n)
	for i := range s.Levels {
		var v int64
		if v, err = r.Varint(); err != nil {
			return
		}
		s.Levels[i] = int16(v)
	}
	return
}
