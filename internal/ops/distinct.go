package ops

import (
	"math"

	"repro/internal/tuple"
)

// --- Distinct ---

// Distinct estimates the number of distinct tuple keys in a window with a
// fixed-size register sketch (the HyperLogLog construction): each key
// hashes to one of M registers, which remembers the longest run of leading
// zero bits any of its keys produced. Partial sketches from different
// children combine by register-wise maximum — a commutative, associative,
// idempotent union, so the re-striping and relaying the routing policy
// performs can never double-count a key. The partial value is the packed
// register array ([]uint64, 8 registers per word), which rides the wire's
// bit-array value kind; Finalize turns it into the cardinality estimate.
type Distinct struct {
	// Registers is the sketch size M (must be a power of two ≥ 16). More
	// registers mean lower variance: the standard error is ≈ 1.04/√M.
	Registers int
}

// DefaultDistinct returns a 256-register sketch (≈ 6.5% standard error,
// 32 bytes on the wire).
func DefaultDistinct() Distinct { return Distinct{Registers: 256} }

// Name implements Operator.
func (Distinct) Name() string { return "distinct" }

// NewWindow implements Operator.
func (d Distinct) NewWindow() Window {
	return &distinctWindow{op: d, keys: map[string]struct{}{}}
}

// words is the packed array length: 8 six-bit-capable byte registers per
// uint64.
func (d Distinct) words() int { return (d.Registers + 7) / 8 }

// Combine implements Operator: register-wise maximum into a fresh array.
func (d Distinct) Combine(a, b tuple.Value) tuple.Value {
	x := a.([]uint64)
	out := make([]uint64, len(x))
	copy(out, x)
	return d.CombineInto(out, b)
}

// CombineInto implements InPlaceCombiner: b's registers fold into a's
// storage by byte-wise maximum.
func (d Distinct) CombineInto(a, b tuple.Value) tuple.Value {
	x := a.([]uint64)
	for i, w := range b.([]uint64) {
		if i >= len(x) {
			break
		}
		have := x[i]
		var out uint64
		for s := 0; s < 64; s += 8 {
			ra, rb := (have>>s)&0xff, (w>>s)&0xff
			if rb > ra {
				ra = rb
			}
			out |= ra << s
		}
		x[i] = out
	}
	return a
}

// Finalize implements Finalizer: the HyperLogLog estimate with the
// small-range linear-counting correction.
func (d Distinct) Finalize(v tuple.Value) tuple.Value {
	regs := v.([]uint64)
	m := float64(d.Registers)
	var sum float64
	zeros := 0
	for i := 0; i < d.Registers; i++ {
		r := (regs[i/8] >> ((i % 8) * 8)) & 0xff
		if r == 0 {
			zeros++
		}
		sum += math.Ldexp(1, -int(r))
	}
	est := alpha(d.Registers) * m * m / sum
	if est <= 2.5*m && zeros > 0 {
		// Small cardinalities: most registers still empty; the ball-in-bins
		// occupancy estimate is far more accurate there.
		est = m * math.Log(m/float64(zeros))
	}
	return est
}

// alpha is the standard bias-correction constant for M registers.
func alpha(m int) float64 {
	switch {
	case m <= 16:
		return 0.673
	case m <= 32:
		return 0.697
	case m <= 64:
		return 0.709
	default:
		return 0.7213 / (1 + 1.079/float64(m))
	}
}

// add folds one key into a packed register array.
func (d Distinct) add(regs []uint64, key string) {
	// FNV-1a, the same base hash the Bloom index uses.
	hash := uint64(14695981039346656037)
	for i := 0; i < len(key); i++ {
		hash ^= uint64(key[i])
		hash *= 1099511628211
	}
	idx := int(hash & uint64(d.Registers-1))
	rest := hash>>uint(bits(d.Registers)) | 1<<62 // sentinel bounds the rank
	rank := uint64(1)
	for rest&1 == 0 {
		rank++
		rest >>= 1
	}
	shift := (idx % 8) * 8
	if cur := (regs[idx/8] >> shift) & 0xff; rank > cur {
		regs[idx/8] = regs[idx/8]&^(0xff<<shift) | rank<<shift
	}
}

// bits returns log2 of a power of two.
func bits(m int) int {
	n := 0
	for m > 1 {
		m >>= 1
		n++
	}
	return n
}

type distinctWindow struct {
	op   Distinct
	keys map[string]struct{}
}

func (w *distinctWindow) Merge(ts ...tuple.Raw) {
	for i := range ts {
		w.keys[ts[i].Key] = struct{}{}
	}
}

func (w *distinctWindow) Value() tuple.Value {
	if len(w.keys) == 0 {
		return nil
	}
	regs := make([]uint64, w.op.words())
	for k := range w.keys {
		w.op.add(regs, k)
	}
	return regs
}
