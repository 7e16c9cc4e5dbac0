package wire

import (
	"fmt"
	"sync"
	"time"
)

// This file is the multi-summary envelope codec (since wire Version 4). An
// EnvelopeBatch carries several summaries bound for one next-hop neighbor in
// a single frame, sharing the version/kind header, the query key (one table
// entry per distinct query instead of one string per summary), the transmit
// timestamp, and the Levels routing vector (delta-encoded against the
// batch's base vector).
//
// No peer sends a batch: a peer sends every summary as its own Envelope,
// because per-turn batching measured one batch in tens of thousands of
// summary frames. The codec stays because the benchmark's batch codec rows
// need it; the kind retires with those rows, and no version bump is
// needed, because no peer sends it.
//
// Payload layout, after the [Version][kind] frame header:
//
//	[K uvarint] K × ([name string][epoch uvarint])   query key table
//	[B uvarint] B × [level varint]                   base level vector
//	[sentAt duration]                                shared transmit stamp
//	[N uvarint] N × entry
//
// and each entry:
//
//	[queryRef uvarint][tree varint][ttlDown byte]
//	[TB][TE][Age durations][count uvarint][boundary bool][hops uvarint]
//	[value][L uvarint][D uvarint] D × ([pos uvarint][level varint])
//
// An entry's level vector has length L and reconstructs as base[i] for
// i < min(L, B) and -1 (never visited) beyond the base, with the D diff
// positions overriding. The encoder takes the first entry's levels as the
// base, so entry 0's diff is always empty.

// maxBatchLevels bounds a decoded entry's level-vector length. L is not
// backed by wire bytes (levels are reconstructed, not read), so without a
// cap a corrupt frame could demand an arbitrarily large allocation. Real
// vectors have one slot per tree; plans use a handful.
const maxBatchLevels = 4096

// EnvelopeBatch is N summaries bound for the same next-hop peer in one
// frame, which no peer sends (see above).
// Envelopes are fully materialized on decode — each entry owns its Levels
// and carries the batch's shared SentAt — so receivers process them exactly
// like single envelopes.
type EnvelopeBatch struct {
	SentAt    time.Duration
	Envelopes []Envelope
}

// batchScratch is the reusable key-table workspace for the batch codec;
// pooled so the steady-state encode path performs no allocation.
type batchScratch struct {
	names  []string
	epochs []uint32
}

var batchScratchPool = sync.Pool{New: func() any { return new(batchScratch) }}

// find returns the table index of (name, epoch), or -1.
func (s *batchScratch) find(name string, epoch uint32) int {
	for i := range s.names {
		if s.epochs[i] == epoch && s.names[i] == name {
			return i
		}
	}
	return -1
}

// baseLevelAt is the reconstruction default for level slot i: the base
// vector where it reaches, never-visited beyond it.
func baseLevelAt(base []int16, i int) int16 {
	if i < len(base) {
		return base[i]
	}
	return -1
}

// EncodeEnvelopeBatch appends a batch payload. The batch must carry at
// least one envelope (an empty batch has no frame to save and no base
// vector to take).
func EncodeEnvelopeBatch(w *Buffer, b *EnvelopeBatch) error {
	if len(b.Envelopes) == 0 {
		return fmt.Errorf("wire: empty envelope batch")
	}
	sc := batchScratchPool.Get().(*batchScratch)
	sc.names, sc.epochs = sc.names[:0], sc.epochs[:0]
	for i := range b.Envelopes {
		e := &b.Envelopes[i]
		if sc.find(e.S.Query, e.Epoch) < 0 {
			sc.names = append(sc.names, e.S.Query)
			sc.epochs = append(sc.epochs, e.Epoch)
		}
	}
	w.PutUvarint(uint64(len(sc.names)))
	for i := range sc.names {
		w.PutString(sc.names[i])
		w.PutUvarint(uint64(sc.epochs[i]))
	}
	base := b.Envelopes[0].S.Levels
	w.PutUvarint(uint64(len(base)))
	for _, l := range base {
		w.PutVarint(int64(l))
	}
	w.PutDuration(b.SentAt)
	w.PutUvarint(uint64(len(b.Envelopes)))
	var err error
	for i := range b.Envelopes {
		e := &b.Envelopes[i]
		w.PutUvarint(uint64(sc.find(e.S.Query, e.Epoch)))
		w.PutVarint(int64(e.Tree))
		w.b = append(w.b, e.TTLDown)
		w.PutDuration(e.S.Index.TB)
		w.PutDuration(e.S.Index.TE)
		w.PutDuration(e.S.Age)
		w.PutUvarint(uint64(e.S.Count))
		w.PutBool(e.S.Boundary)
		w.PutUvarint(uint64(e.S.Hops))
		if err = w.PutValue(e.S.Value); err != nil {
			break
		}
		w.PutUvarint(uint64(len(e.S.Levels)))
		diffs := 0
		for j, l := range e.S.Levels {
			if l != baseLevelAt(base, j) {
				diffs++
			}
		}
		w.PutUvarint(uint64(diffs))
		for j, l := range e.S.Levels {
			if l != baseLevelAt(base, j) {
				w.PutUvarint(uint64(j))
				w.PutVarint(int64(l))
			}
		}
	}
	batchScratchPool.Put(sc)
	return err
}

// DecodeEnvelopeBatch reads a batch payload, materializing every entry as
// a standalone envelope: levels reconstructed from the base vector plus
// the entry's diff, query name and epoch resolved through the key table,
// SentAt copied from the batch. Query names are interned.
func DecodeEnvelopeBatch(r *Reader) (*EnvelopeBatch, error) {
	sc := batchScratchPool.Get().(*batchScratch)
	defer batchScratchPool.Put(sc)
	sc.names, sc.epochs = sc.names[:0], sc.epochs[:0]
	k, err := r.Uvarint()
	if err != nil || k > uint64(r.Remaining()) {
		return nil, ErrCorrupt
	}
	for i := uint64(0); i < k; i++ {
		name, err := r.InternedString()
		if err != nil {
			return nil, err
		}
		ep, err := r.epoch()
		if err != nil {
			return nil, err
		}
		sc.names = append(sc.names, name)
		sc.epochs = append(sc.epochs, ep)
	}
	nb, err := r.Uvarint()
	if err != nil || nb > uint64(r.Remaining())+1 || nb > maxBatchLevels {
		return nil, ErrCorrupt
	}
	var base []int16
	if nb > 0 {
		base = make([]int16, nb)
		for i := range base {
			v, err := r.Varint()
			if err != nil {
				return nil, err
			}
			base[i] = int16(v)
		}
	}
	b := new(EnvelopeBatch)
	if b.SentAt, err = r.Duration(); err != nil {
		return nil, err
	}
	n, err := r.Uvarint()
	if err != nil || n == 0 || n > uint64(r.Remaining())+1 {
		return nil, ErrCorrupt
	}
	b.Envelopes = make([]Envelope, n)
	for i := range b.Envelopes {
		e := &b.Envelopes[i]
		ref, err := r.Uvarint()
		if err != nil || ref >= uint64(len(sc.names)) {
			return nil, ErrCorrupt
		}
		e.S.Query, e.Epoch = sc.names[ref], sc.epochs[ref]
		tree, err := r.Varint()
		if err != nil {
			return nil, err
		}
		e.Tree = int(tree)
		if r.Remaining() < 1 {
			return nil, ErrCorrupt
		}
		e.TTLDown = r.b[r.off]
		r.off++
		if e.S.Index.TB, err = r.Duration(); err != nil {
			return nil, err
		}
		if e.S.Index.TE, err = r.Duration(); err != nil {
			return nil, err
		}
		if e.S.Age, err = r.Duration(); err != nil {
			return nil, err
		}
		cnt, err := r.Uvarint()
		if err != nil {
			return nil, err
		}
		e.S.Count = int(cnt)
		if e.S.Boundary, err = r.Bool(); err != nil {
			return nil, err
		}
		hops, err := r.Uvarint()
		if err != nil {
			return nil, err
		}
		e.S.Hops = int(hops)
		if e.S.Value, err = r.Value(); err != nil {
			return nil, err
		}
		lv, err := r.Uvarint()
		if err != nil || lv > maxBatchLevels {
			return nil, ErrCorrupt
		}
		if lv > 0 {
			e.S.Levels = make([]int16, lv)
			for j := range e.S.Levels {
				e.S.Levels[j] = baseLevelAt(base, j)
			}
		}
		d, err := r.Uvarint()
		if err != nil || d > uint64(r.Remaining()) {
			return nil, ErrCorrupt
		}
		for j := uint64(0); j < d; j++ {
			pos, err := r.Uvarint()
			if err != nil || pos >= lv {
				return nil, ErrCorrupt
			}
			v, err := r.Varint()
			if err != nil {
				return nil, err
			}
			e.S.Levels[pos] = int16(v)
		}
		e.SentAt = b.SentAt
	}
	return b, nil
}
