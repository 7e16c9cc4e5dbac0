package wire

import (
	"time"

	"repro/internal/tuple"
)

// EncodeSummary appends a summary tuple, including its routing state:
// per-tree last-visited levels and the TTL-down counter (§3.3). The window
// index is scaled (PutScaled): TB, then TE as a delta from TB, which wraps
// the way int64 arithmetic does, so every pair round-trips.
func EncodeSummary(w *Buffer, s tuple.Summary, ttlDown uint8) error {
	w.PutString(s.Query)
	w.PutScaled(s.Index.TB)
	w.PutScaled(s.Index.TE - s.Index.TB)
	w.PutDuration(s.Age)
	w.PutUvarint(uint64(s.Count))
	w.PutBool(s.Boundary)
	w.PutUvarint(uint64(s.Hops))
	if err := w.PutValue(s.Value); err != nil {
		return err
	}
	w.PutUvarint(uint64(len(s.Levels)))
	for _, l := range s.Levels {
		w.PutVarint(int64(l))
	}
	w.b = append(w.b, ttlDown)
	return nil
}

// DecodeSummary reads a summary encoded by EncodeSummary into a frame of
// version ver; a v5 frame carries TB and TE as plain durations. The query
// name is interned: every envelope of a query carries the same few names,
// so steady-state decode performs no string allocation for them.
func DecodeSummary(r *Reader, ver byte) (s tuple.Summary, ttlDown uint8, err error) {
	if s.Query, err = r.InternedString(); err != nil {
		return
	}
	if ver < versionCompact {
		if s.Index.TB, err = r.Duration(); err != nil {
			return
		}
		if s.Index.TE, err = r.Duration(); err != nil {
			return
		}
	} else {
		if s.Index.TB, err = r.Scaled(); err != nil {
			return
		}
		var span time.Duration
		if span, err = r.Scaled(); err != nil {
			return
		}
		s.Index.TE = s.Index.TB + span
	}
	if s.Age, err = r.Duration(); err != nil {
		return
	}
	var cnt uint64
	if cnt, err = r.Uvarint(); err != nil {
		return
	}
	s.Count = int(cnt)
	if s.Boundary, err = r.Bool(); err != nil {
		return
	}
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
	if r.Remaining() < 1 {
		err = ErrCorrupt
		return
	}
	ttlDown = r.b[r.off]
	r.off++
	return
}
