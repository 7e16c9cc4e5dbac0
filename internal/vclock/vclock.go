// Package vclock models per-node clocks with offset and skew, and provides
// an offset distribution shaped like the one the Mortar paper observed
// across PlanetLab (§5: 20% of nodes offset by more than half a second, a
// handful in excess of 3000 seconds).
//
// The model is the simulator's alone: simrt.New takes one Clock per peer
// and that peer's runtime clock reads time and runs timers through it, so
// a peer never knows its clock is modelled — it has one clock, as a
// deployed process does, and measures every interval on it. The peer core
// (internal/mortar) does not import this package.
//
// Terminology follows the network-measurement community, as the paper does:
// *offset* is a difference in reported time, *skew* is a difference in clock
// frequency.
package vclock

import (
	"math"
	"math/rand"
	"time"
)

// Clock converts simulation ("true") time into the time a node's local clock
// reports. Reported(t) = t + Offset + (Skew-1)*t: a node with Skew 1.001
// gains one millisecond per second of true time.
type Clock struct {
	Offset time.Duration
	Skew   float64 // frequency ratio; 1.0 means a perfect oscillator
}

// Perfect returns a clock with no offset and no skew.
func Perfect() Clock { return Clock{Skew: 1} }

// Reported returns the node-local reading at true time t.
func (c Clock) Reported(t time.Duration) time.Duration {
	return c.Offset + time.Duration(float64(t)*c.Skew)
}

// Distribution describes a population of node clocks. Offsets come from a
// three-component mixture that matches the paper's description of PlanetLab:
// most nodes are NTP-disciplined and sit within tens of milliseconds, a
// substantial minority (tuned to 20% beyond 500 ms) have second-scale
// offsets, and a small fraction are wildly off (hours — dead NTP daemons).
type Distribution struct {
	// Scale multiplies every sampled offset; the paper's Figures 9-10 sweep
	// this "skew scale" factor along [0, 2].
	Scale float64
	// MaxSkewPPM bounds the sampled frequency error in parts per million.
	MaxSkewPPM float64
}

// PlanetLab returns the distribution used throughout the evaluation, at the
// given scale.
func PlanetLab(scale float64) Distribution {
	return Distribution{Scale: scale, MaxSkewPPM: 200}
}

// Sample draws one node clock.
func (d Distribution) Sample(rng *rand.Rand) Clock {
	var off float64 // seconds
	u := rng.Float64()
	switch {
	case u < 0.78:
		// NTP-disciplined: zero-mean normal, sigma 25 ms.
		off = rng.NormFloat64() * 0.025
	case u < 0.98:
		// Mis-configured: exponential with mean 4 s, past a 0.4 s floor, so
		// that at scale 1 roughly 20% of nodes exceed half a second.
		off = 0.4 + rng.ExpFloat64()*4
		if rng.Intn(2) == 0 {
			off = -off
		}
	default:
		// Dead NTP: log-uniform between 100 s and 4000 s; "a handful in
		// excess of 3000 seconds" at population sizes of a few hundred.
		off = math.Exp(math.Log(100) + rng.Float64()*(math.Log(4000)-math.Log(100)))
		if rng.Intn(2) == 0 {
			off = -off
		}
	}
	skew := 1 + (rng.Float64()*2-1)*d.MaxSkewPPM/1e6
	return Clock{
		Offset: time.Duration(off * d.Scale * float64(time.Second)),
		Skew:   skew,
	}
}

// SamplePopulation draws n clocks.
func (d Distribution) SamplePopulation(rng *rand.Rand, n int) []Clock {
	out := make([]Clock, n)
	for i := range out {
		out[i] = d.Sample(rng)
	}
	return out
}
