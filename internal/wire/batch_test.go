package wire

import (
	"errors"
	"reflect"
	"testing"
	"time"

	"repro/internal/tuple"
)

// sampleBatch returns the envelope-batch sample from sampleMessages.
func sampleBatch(t testing.TB) *EnvelopeBatch {
	for _, msg := range sampleMessages() {
		if b, ok := msg.(*EnvelopeBatch); ok {
			return b
		}
	}
	t.Fatal("no batch in sampleMessages")
	return nil
}

// Level vectors reconstruct exactly from the base + sparse diff for every
// shape: identical to base, shorter, longer, and absent.
func TestEnvelopeBatchLevelDelta(t *testing.T) {
	mk := func(levels []int16) Envelope {
		return Envelope{
			S:      tuple.Summary{Query: "q", Count: 1, Levels: levels},
			SentAt: time.Second,
		}
	}
	b := &EnvelopeBatch{
		SentAt: time.Second,
		Envelopes: []Envelope{
			mk([]int16{2, -1, 3, 0}),       // the base itself
			mk([]int16{2, -1, 3, 0}),       // identical: empty diff
			mk([]int16{2, 5, 3, 0}),        // one slot diffs
			mk([]int16{2, -1}),             // shorter than base
			mk([]int16{2, -1, 3, 0, -1}),   // longer: slot 4 defaults to -1
			mk([]int16{2, -1, 3, 0, 7, 1}), // longer with diffs beyond base
			mk(nil),                        // no routing state at all
		},
	}
	var w Buffer
	if err := EncodeMessage(&w, b); err != nil {
		t.Fatal(err)
	}
	got, err := DecodeMessage(w.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, b) {
		t.Fatalf("delta round trip:\n got %#v\nwant %#v", got, b)
	}
}

// The key table dedups (query, epoch) pairs: the same query under two
// epochs gets two refs, and every entry resolves to its own pair.
func TestEnvelopeBatchKeyTable(t *testing.T) {
	b := &EnvelopeBatch{Envelopes: []Envelope{
		{S: tuple.Summary{Query: "a", Count: 1}, Epoch: 0},
		{S: tuple.Summary{Query: "a", Count: 1}, Epoch: 1},
		{S: tuple.Summary{Query: "b", Count: 1}, Epoch: 0},
		{S: tuple.Summary{Query: "a", Count: 1}, Epoch: 0},
	}}
	var w Buffer
	if err := EncodeMessage(&w, b); err != nil {
		t.Fatal(err)
	}
	// Three distinct keys: "a" appears in the table once per epoch, "b"
	// once — four entries, but no name travels per entry.
	frame := string(w.Bytes())
	if n := countOccurrences(frame, "a"); n != 2 { // one per ("a", epoch) pair
		t.Fatalf("query name 'a' appears %d times in the frame, want 2", n)
	}
	got, err := DecodeMessage(w.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, b) {
		t.Fatalf("key table round trip:\n got %#v\nwant %#v", got, b)
	}
}

func countOccurrences(s, sub string) int {
	n := 0
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			n++
		}
	}
	return n
}

// Structural corruption is rejected, never panics: out-of-table query
// refs, diff positions beyond the entry's vector, empty batches, and
// batch frames claiming a pre-batch version.
func TestEnvelopeBatchCorrupt(t *testing.T) {
	var w Buffer
	if err := EncodeMessage(&w, &EnvelopeBatch{}); err == nil {
		t.Fatal("empty batch encoded")
	}

	// A valid single-entry batch, then surgical corruption.
	encode := func(mutate func(w *Buffer)) []byte {
		var w Buffer
		w.b = append(w.b, Version, MsgEnvelopeBatch)
		w.PutUvarint(1) // one key
		w.PutString("q")
		w.PutUvarint(0) // epoch
		w.PutUvarint(0) // no base levels
		w.PutDuration(time.Second)
		w.PutUvarint(1) // one entry
		mutate(&w)
		return w.Bytes()
	}
	entry := func(w *Buffer, ref uint64, nLevels, diffPos uint64) {
		w.PutUvarint(ref)
		w.PutVarint(0)        // tree
		w.b = append(w.b, 0)  // ttlDown
		w.PutDuration(0)      // TB
		w.PutDuration(0)      // TE
		w.PutDuration(0)      // age
		w.PutUvarint(1)       // count
		w.PutBool(false)      // boundary
		w.PutUvarint(0)       // hops
		w.b = append(w.b, 0)  // nil value
		w.PutUvarint(nLevels) // L
		w.PutUvarint(1)       // one diff
		w.PutUvarint(diffPos) // position
		w.PutVarint(2)        // level
	}

	if got, err := DecodeMessage(encode(func(w *Buffer) { entry(w, 0, 2, 0) })); err != nil {
		t.Fatalf("valid batch rejected: %v (%#v)", err, got)
	}
	if _, err := DecodeMessage(encode(func(w *Buffer) { entry(w, 5, 2, 0) })); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("out-of-table query ref: %v", err)
	}
	if _, err := DecodeMessage(encode(func(w *Buffer) { entry(w, 0, 2, 7) })); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("diff position beyond vector: %v", err)
	}
	if _, err := DecodeMessage(encode(func(w *Buffer) { entry(w, 0, 1<<40, 0) })); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("absurd level count: %v", err)
	}

	// Zero entries is corrupt (an encoder never produces it).
	var z Buffer
	z.b = append(z.b, Version, MsgEnvelopeBatch)
	z.PutUvarint(0) // no keys
	z.PutUvarint(0) // no base
	z.PutDuration(0)
	z.PutUvarint(0) // no entries
	if _, err := DecodeMessage(z.Bytes()); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("zero-entry batch: %v", err)
	}
}

// The batch encoder allocates nothing: the key-table scratch is pooled and
// every field appends into the caller's buffer.
func BenchmarkEnvelopeBatchEncode(b *testing.B) {
	batch := sampleBatch(b)
	var w Buffer
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.Reset()
		if err := EncodeMessage(&w, batch); err != nil {
			b.Fatal(err)
		}
	}
	if allocs := testing.AllocsPerRun(100, func() {
		w.Reset()
		_ = EncodeMessage(&w, batch)
	}); allocs != 0 {
		b.Fatalf("batch encode allocates %v/op", allocs)
	}
}
