package wire

import (
	"bytes"
	"errors"
	"testing"
)

func TestTrainRoundTrip(t *testing.T) {
	frames := [][]byte{
		[]byte("x"),
		[]byte("a heartbeat-sized frame with a bit more to it"),
		bytes.Repeat([]byte{0xAB}, 300),
	}
	var w Buffer
	for _, f := range frames {
		w.PutBytes(f)
	}
	var got [][]byte
	err := ForEachTrainFrame(w.Bytes(), func(f []byte) {
		got = append(got, append([]byte(nil), f...))
	})
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if len(got) != len(frames) {
		t.Fatalf("decoded %d frames, want %d", len(got), len(frames))
	}
	for i := range frames {
		if !bytes.Equal(got[i], frames[i]) {
			t.Fatalf("frame %d mismatch: %q != %q", i, got[i], frames[i])
		}
	}
}

func TestTrainCorruptInputs(t *testing.T) {
	overrun := Buffer{}
	overrun.PutUvarint(100)
	overrun.PutRaw([]byte("short"))
	zeroLen := Buffer{}
	zeroLen.PutUvarint(0)
	cases := map[string][]byte{
		"empty":       {},
		"overrun len": overrun.Bytes(),
		"zero len":    zeroLen.Bytes(),
		"bad varint":  bytes.Repeat([]byte{0xFF}, 12),
	}
	for name, b := range cases {
		if err := ForEachTrainFrame(b, func([]byte) {}); !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: err = %v, want ErrCorrupt", name, err)
		}
	}
}

// A corrupt tail must still yield the frames before it — they are
// independent payloads, so the exposure matches a truncated datagram.
func TestTrainYieldsFramesBeforeCorruptTail(t *testing.T) {
	var w Buffer
	w.PutBytes([]byte("intact"))
	w.PutUvarint(1 << 20) // length overruns the buffer
	var got int
	err := ForEachTrainFrame(w.Bytes(), func(f []byte) { got++ })
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("err = %v, want ErrCorrupt", err)
	}
	if got != 1 {
		t.Fatalf("yielded %d frames before corruption, want 1", got)
	}
}

func TestBufferPoolReuse(t *testing.T) {
	w := GetBuffer()
	w.PutString("hello")
	if w.Len() == 0 {
		t.Fatal("pooled buffer did not accumulate")
	}
	PutBuffer(w)
	w2 := GetBuffer()
	if w2.Len() != 0 {
		t.Fatalf("reused buffer not reset: len=%d", w2.Len())
	}
	buf := w2.Reserve(4096)
	if len(buf) != 4096 {
		t.Fatalf("Reserve returned %d bytes, want 4096", len(buf))
	}
	PutBuffer(w2)
	// Oversized buffers must be dropped, not pooled.
	big := GetBuffer()
	big.Reserve(maxPooledCap + 1)
	PutBuffer(big) // must not panic; the buffer is simply discarded
	PutBuffer(nil) // nil is tolerated
}
