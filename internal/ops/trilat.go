package ops

import (
	"math"

	"repro/internal/tuple"
	"repro/internal/wire"
)

// Trilat is the custom operator from the Wi-Fi location service (§7.4): it
// consumes the topK stream — entries whose payload is the sniffer's (x, y)
// position and whose score is the RSSI of the loudest frame that sniffer
// captured — and computes a coordinate position by simple trilateration.
//
// RSSI-weighted trilateration: each of the (up to) three loudest sniffers
// pulls the estimate toward itself with weight proportional to its linear
// received power. The paper notes this naive scheme cannot distinguish
// floors, so the output is a single-plane wire.Coord.
type Trilat struct{}

// Name implements Operator.
func (Trilat) Name() string { return "trilat" }

// NewWindow implements Operator.
func (Trilat) NewWindow() Window { return &trilatWindow{} }

// Combine implements Operator. Trilat runs at the query root consuming the
// topK output stream, so Combine only needs to pick one estimate when two
// meet. It is not a merge of partial aggregates, which is why CheckWindow
// keeps trilat to one-pane windows.
func (Trilat) Combine(a, b tuple.Value) tuple.Value {
	x := a.(wire.Coord)
	return x // positions for the same index are equivalent; keep the first
}

type trilatWindow struct {
	frames []tuple.Raw
}

func (w *trilatWindow) Merge(ts ...tuple.Raw) { w.frames = append(w.frames, ts...) }

// Value computes the weighted centroid of the three loudest sniffers in the
// window. Raw layout: Vals = [x, y, rssiDBm].
func (w *trilatWindow) Value() tuple.Value {
	if len(w.frames) == 0 {
		return nil
	}
	// Keep the loudest frame per sniffer, then the top three sniffers.
	best := map[string]tuple.Raw{}
	for _, f := range w.frames {
		if len(f.Vals) < 3 {
			continue
		}
		if old, ok := best[f.Key]; !ok || f.Vals[2] > old.Vals[2] {
			best[f.Key] = f
		}
	}
	if len(best) == 0 {
		return nil
	}
	top := make([]tuple.Raw, 0, len(best))
	for _, f := range best {
		top = append(top, f)
	}
	// Selection sort by RSSI descending, deterministic ties by key.
	for i := 0; i < len(top); i++ {
		for j := i + 1; j < len(top); j++ {
			if top[j].Vals[2] > top[i].Vals[2] ||
				(top[j].Vals[2] == top[i].Vals[2] && top[j].Key < top[i].Key) {
				top[i], top[j] = top[j], top[i]
			}
		}
	}
	if len(top) > 3 {
		top = top[:3]
	}
	var sx, sy, sw float64
	for _, f := range top {
		// Convert dBm to linear milliwatts for weighting; stronger signal
		// means the transmitter is closer to that sniffer.
		wgt := math.Pow(10, f.Vals[2]/10)
		sx += f.Vals[0] * wgt
		sy += f.Vals[1] * wgt
		sw += wgt
	}
	if sw == 0 {
		return nil
	}
	return wire.Coord{X: sx / sw, Y: sy / sw}
}

// TrilatFromEntries computes a position directly from topK entries (used by
// subscribers that post-process root results without a second query).
func TrilatFromEntries(entries []wire.ScoredEntry) (wire.Coord, bool) {
	var sx, sy, sw float64
	n := 0
	for _, e := range entries {
		if len(e.Payload) < 2 {
			continue
		}
		wgt := math.Pow(10, e.Score/10)
		sx += e.Payload[0] * wgt
		sy += e.Payload[1] * wgt
		sw += wgt
		n++
		if n == 3 {
			break
		}
	}
	if sw == 0 || n == 0 {
		return wire.Coord{}, false
	}
	return wire.Coord{X: sx / sw, Y: sy / sw}, true
}
