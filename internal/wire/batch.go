package wire

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/tuple"
)

// This file is the multi-summary envelope codec (wire Version 4). An
// EnvelopeBatch carries every summary a peer has staged for one next-hop
// neighbor in a single frame, amortizing the per-frame costs that dominate
// the upstream path at scale: the version/kind header, the query key (one
// table entry per distinct query instead of one string per summary), the
// transmit timestamp (shared), and the Levels routing vector (delta-encoded
// against the batch's base vector — summaries staged at one peer mostly
// share identical levels, so the common case is an empty diff).
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
// frame. Envelopes are fully materialized on decode — each entry owns its
// Levels and carries the batch's shared SentAt — so receivers process them
// exactly like single envelopes.
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
// SentAt copied from the batch. Query names are interned, as in
// DecodeSummary.
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
	b := &EnvelopeBatch{}
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

// SummaryWireSize estimates the encoded size of one batch entry without
// allocating: the fixed fields at varint widths plus the value's encoded
// size. Staging buffers use it to decide when a batch approaches the
// transport frame ceiling; a few bytes of slack per entry is fine (the
// flush threshold sits well under the ceiling).
func SummaryWireSize(s *tuple.Summary) int {
	n := 1 + // queryRef (tables are tiny)
		1 + // tree
		1 + // ttlDown
		durationWireSize(s.Index.TB) +
		durationWireSize(s.Index.TE) +
		durationWireSize(s.Age) +
		uvarintWireSize(uint64(s.Count)) +
		1 + // boundary
		uvarintWireSize(uint64(s.Hops)) +
		valueWireSize(s.Value) +
		uvarintWireSize(uint64(len(s.Levels))) +
		1 + // diff count
		3*len(s.Levels) // worst case: every slot diffs
	return n + len(s.Query) + 2 // key-table share, counted once per entry for safety
}

// uvarintWireSize is the encoded length of a uvarint.
func uvarintWireSize(v uint64) int {
	n := 1
	for v >= 0x80 {
		v >>= 7
		n++
	}
	return n
}

// durationWireSize is the encoded length of a PutDuration varint.
func durationWireSize(d time.Duration) int {
	v := int64(d)
	return uvarintWireSize(uint64((v << 1) ^ (v >> 63)))
}

// valueWireSize is the encoded length of a summary value, computed
// arithmetically (encoding into a scratch buffer would allocate, which the
// 0-alloc staging path cannot afford). Unknown types get a conservative
// guess; PutValue will reject them at encode time anyway.
func valueWireSize(v any) int {
	switch x := v.(type) {
	case nil:
		return 1
	case float64:
		return 9
	case string:
		return 1 + uvarintWireSize(uint64(len(x))) + len(x)
	case []float64:
		return 1 + uvarintWireSize(uint64(len(x))) + 8*len(x)
	case []uint64:
		n := 1 + uvarintWireSize(uint64(len(x)))
		for _, u := range x {
			n += uvarintWireSize(u)
		}
		return n
	case map[string]float64:
		n := 1 + uvarintWireSize(uint64(len(x)))
		for k := range x {
			n += uvarintWireSize(uint64(len(k))) + len(k) + 8
		}
		return n
	case []ScoredEntry:
		n := 1 + uvarintWireSize(uint64(len(x)))
		for _, e := range x {
			n += uvarintWireSize(uint64(len(e.Key))) + len(e.Key) + 8 +
				uvarintWireSize(uint64(len(e.Payload))) + 8*len(e.Payload)
		}
		return n
	case Coord:
		return 17
	default:
		return 64
	}
}
