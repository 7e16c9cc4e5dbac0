package netrt

import (
	"bytes"
	"math"
	"testing"

	"repro/internal/vivaldi"
	"repro/internal/wire"
)

// FuzzProbeCoord drives readCoord, the parser of the coordinate that ends
// every probe, with coordinates of every shape and with garbage. It
// accepts only a remainder of exactly coordLen bytes holding vivaldi.Dims
// finite components and an error estimate in [0, 1], and putCoord writes
// back exactly the bytes it accepted.
func FuzzProbeCoord(f *testing.F) {
	for _, s := range []struct {
		c vivaldi.Coordinate
		e float64
	}{
		{vivaldi.Coordinate{1.5, -2.5, 40}, 0.3},
		{vivaldi.Coordinate{0, math.Copysign(0, -1), 1e300}, 1},
		{vivaldi.Coordinate{1, 2}, 0.5},
		{vivaldi.Coordinate{1, 2, 3, 4}, 0.5},
		{vivaldi.Coordinate{math.NaN(), 0, 0}, 0.5},
		{vivaldi.Coordinate{0, math.Inf(-1), 0}, 0.5},
		{vivaldi.Coordinate{0, 0, 0}, 1.5},
		{vivaldi.Coordinate{0, 0, 0}, -0.25},
	} {
		var w wire.Buffer
		putCoord(&w, s.c, s.e)
		b := w.Bytes()
		f.Add(b)
		f.Add(b[:len(b)-1])
		f.Add(append(bytes.Clone(b), 0))
	}
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, b []byte) {
		c, e, ok := readCoord(wire.NewReader(b))
		if !ok {
			return
		}
		if len(b) != coordLen || len(c) != vivaldi.Dims || !vivaldi.Finite(c, e) || e < 0 || e > 1 {
			t.Fatalf("accepted %v, error %v from % x", c, e, b)
		}
		var w wire.Buffer
		putCoord(&w, c, e)
		if !bytes.Equal(w.Bytes(), b) {
			t.Fatalf("accepted % x, wrote back % x", b, w.Bytes())
		}
	})
}
