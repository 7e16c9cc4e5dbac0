package wire

import (
	"errors"
	"testing"
)

// Fuzz targets for every decoder: corrupt input must return an error
// wrapping ErrCorrupt — never panic, never over-allocate (every count is
// bounded against the remaining buffer before allocation). CI runs these
// in short smoke mode (-fuzztime 10s); locally, go test -fuzz digs deeper.

// seedFrames returns valid encodings of every message kind as fuzz seeds,
// so mutation starts from structurally interesting input: the frames of
// sampleMessages, then every committed frame (capturedSeeds).
func seedFrames(t testing.TB) [][]byte {
	var out [][]byte
	for _, msg := range sampleMessages() {
		var w Buffer
		if err := EncodeMessage(&w, msg); err != nil {
			t.Fatal(err)
		}
		out = append(out, w.Bytes())
	}
	return append(out, capturedSeeds(t)...)
}

// requireCorrupt fails the fuzz run when a decode error does not wrap
// ErrCorrupt.
func requireCorrupt(t *testing.T, err error) {
	if err != nil && !errors.Is(err, ErrCorrupt) {
		t.Fatalf("decode error %v does not wrap ErrCorrupt", err)
	}
}

func FuzzDecodeMessage(f *testing.F) {
	for _, b := range seedFrames(f) {
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		msg, err := DecodeMessage(b)
		requireCorrupt(t, err)
		if err != nil {
			return
		}
		// Whatever decodes must re-encode: the codec's domain is closed.
		var w Buffer
		if err := EncodeMessage(&w, msg); err != nil {
			t.Fatalf("decoded message does not re-encode: %v", err)
		}
	})
}

// fuzzDecoder drives one payload decoder with raw bytes.
func fuzzDecoder[T any](f *testing.F, dec func(*Reader) (T, error)) {
	f.Helper()
	for _, b := range seedFrames(f) {
		if len(b) > 2 {
			f.Add(b[2:]) // strip version+kind: these fuzz bare payloads
		}
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		_, err := dec(NewReader(b))
		requireCorrupt(t, err)
	})
}

func FuzzDecodeEnvelope(f *testing.F)     { fuzzDecoder(f, DecodeEnvelope) }
func FuzzDecodeHeartbeat(f *testing.F)    { fuzzDecoder(f, DecodeHeartbeat) }
func FuzzDecodeInstall(f *testing.F)      { fuzzDecoder(f, DecodeInstall) }
func FuzzDecodeRemove(f *testing.F)       { fuzzDecoder(f, DecodeRemove) }
func FuzzDecodeReconSummary(f *testing.F) { fuzzDecoder(f, DecodeReconSummary) }
func FuzzDecodeReconDefs(f *testing.F)    { fuzzDecoder(f, DecodeReconDefs) }
func FuzzDecodeTopoRequest(f *testing.F)  { fuzzDecoder(f, DecodeTopoRequest) }
func FuzzDecodeTopoReply(f *testing.F)    { fuzzDecoder(f, DecodeTopoReply) }
func FuzzDecodeQueryMeta(f *testing.F)    { fuzzDecoder(f, DecodeQueryMeta) }
func FuzzDecodeNeighbors(f *testing.F)    { fuzzDecoder(f, DecodeNeighbors) }
func FuzzDecodeInstallAck(f *testing.F)   { fuzzDecoder(f, DecodeInstallAck) }

func FuzzDecodeEnvelopeBatch(f *testing.F) {
	fuzzDecoder(f, DecodeEnvelopeBatch)
}

func FuzzDecodeSummary(f *testing.F) {
	fuzzDecoder(f, func(r *Reader) (any, error) {
		s, _, err := DecodeSummary(r)
		return s, err
	})
}

// FuzzDecodeValue also seeds every value shape at the edge numbers, so
// both the float and the integral kinds start from a valid encoding, and
// the value of every committed v7 envelope and of the v6 capture it was
// re-encoded from, a refused form worth mutating from.
func FuzzDecodeValue(f *testing.F) {
	for _, x := range edgeNumbers() {
		for _, v := range valueShapes(x) {
			var w Buffer
			if err := w.PutValue(v); err != nil {
				f.Fatal(err)
			}
			f.Add(w.Bytes())
		}
	}
	v6 := retiredCaptures(f)
	for i, v7 := range v7Captured(f) {
		if v7[1] == MsgEnvelope {
			start, end := valueSpan(f, v7)
			f.Add(v7[start:end])
			// The v6 envelope differs from its re-encoding in the value alone.
			f.Add(v6[i][start : len(v6[i])-(len(v7)-end)])
		}
	}
	fuzzDecoder(f, (*Reader).Value)
}

// valueSpan returns where the value of an envelope frame lies: after the
// summary's query, index, age, count, boundary and hops.
func valueSpan(t testing.TB, frame []byte) (start, end int) {
	r := NewReader(frame[2:])
	r.InternedString()
	r.Scaled()
	r.Scaled()
	r.Duration()
	r.Uvarint()
	r.Bool()
	r.Uvarint()
	start = r.off
	if _, err := r.Value(); err != nil {
		t.Fatalf("value at %d: %v", start, err)
	}
	return start + 2, r.off + 2
}

// The fragment-layer decoders are not message kinds (they sit below the
// message framing, on netrt's datagram path), so they seed from their own
// valid encodings instead of sampleMessages.

func FuzzDecodeFragment(f *testing.F) {
	var w Buffer
	EncodeFragment(&w, Fragment{Stream: 7, Index: 2, Count: 5, Payload: []byte("payload")})
	f.Add(w.Bytes())
	f.Fuzz(func(t *testing.T, b []byte) {
		_, err := DecodeFragment(NewReader(b))
		requireCorrupt(t, err)
	})
}

func FuzzDecodeNack(f *testing.F) {
	var w Buffer
	EncodeNack(&w, Nack{Stream: 7, Missing: []uint32{0, 3, 4}})
	f.Add(w.Bytes())
	f.Fuzz(func(t *testing.T, b []byte) {
		_, err := DecodeNack(NewReader(b))
		requireCorrupt(t, err)
	})
}

func FuzzDecodeTrain(f *testing.F) {
	var w Buffer
	for _, frame := range [][]byte{[]byte("ping"), []byte("a much longer small frame"), {1}} {
		w.PutBytes(frame)
	}
	f.Add(w.Bytes())
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, b []byte) {
		var total int
		err := ForEachTrainFrame(b, func(frame []byte) {
			if len(frame) == 0 {
				t.Fatal("train yielded an empty frame")
			}
			total += len(frame)
		})
		requireCorrupt(t, err)
		if err == nil && total > len(b) {
			t.Fatalf("train yielded %d bytes from a %d-byte buffer", total, len(b))
		}
	})
}
