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
// so mutation starts from structurally interesting input: the v6 frames of
// sampleMessages, then every captured v5 frame (v5Seeds), the other
// version decoders accept.
func seedFrames(t testing.TB) [][]byte {
	var out [][]byte
	for _, msg := range sampleMessages() {
		var w Buffer
		if err := EncodeMessage(&w, msg); err != nil {
			t.Fatal(err)
		}
		out = append(out, w.Bytes())
	}
	return append(out, v5Seeds(t)...)
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

// bothVersions adapts a decoder that takes the frame version: the payload
// is read as a v5 one first (from a copy of the reader), then as a v6 one,
// and an error not wrapping ErrCorrupt from either fails the run.
func bothVersions[T any](dec func(*Reader, byte) (T, error)) func(*Reader) (T, error) {
	return func(r *Reader) (T, error) {
		prev := *r
		if m, err := dec(&prev, Version-1); err != nil && !errors.Is(err, ErrCorrupt) {
			return m, err
		}
		return dec(r, Version)
	}
}

func FuzzDecodeEnvelope(f *testing.F)     { fuzzDecoder(f, bothVersions(DecodeEnvelope)) }
func FuzzDecodeHeartbeat(f *testing.F)    { fuzzDecoder(f, bothVersions(DecodeHeartbeat)) }
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
	fuzzDecoder(f, bothVersions(func(r *Reader, ver byte) (any, error) {
		s, _, err := DecodeSummary(r, ver)
		return s, err
	}))
}

// FuzzDecodeValue also seeds every value shape at the edge numbers, so
// both the float and the integral kinds start from a valid encoding.
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
	fuzzDecoder(f, func(r *Reader) (any, error) { return r.Value() })
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
