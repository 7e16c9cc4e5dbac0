package vclock

import (
	"math/rand"
	"testing"
	"testing/quick"
	"time"
)

func TestPerfectClockIsIdentity(t *testing.T) {
	c := Perfect()
	for _, d := range []time.Duration{0, time.Second, time.Hour} {
		if c.Reported(d) != d {
			t.Fatalf("Reported(%v) = %v", d, c.Reported(d))
		}
	}
}

func TestOffsetShiftsEpochOnly(t *testing.T) {
	c := Clock{Offset: 3 * time.Second, Skew: 1}
	if got := c.Reported(10 * time.Second); got != 13*time.Second {
		t.Fatalf("Reported = %v, want 13s", got)
	}
	if got := c.Reported(12*time.Second) - c.Reported(2*time.Second); got != 10*time.Second {
		t.Fatalf("measured interval = %v, want 10s (offset must not affect intervals)", got)
	}
}

func TestSkewScalesIntervals(t *testing.T) {
	c := Clock{Offset: time.Second, Skew: 1.5}
	if got := c.Reported(12*time.Second) - c.Reported(2*time.Second); got != 15*time.Second {
		t.Fatalf("measured interval = %v, want 15s", got)
	}
}

func TestPlanetLabShape(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	clocks := PlanetLab(1).SamplePopulation(rng, 20000)
	frac := fractionBeyond(clocks, 500*time.Millisecond)
	if frac < 0.15 || frac > 0.27 {
		t.Fatalf("fraction beyond 500ms = %.3f, want ~0.20", frac)
	}
	huge := fractionBeyond(clocks, 3000*time.Second)
	if huge <= 0 || huge > 0.02 {
		t.Fatalf("fraction beyond 3000s = %.4f, want small but nonzero", huge)
	}
}

func TestScaleZeroRemovesOffset(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	clocks := PlanetLab(0).SamplePopulation(rng, 100)
	for _, c := range clocks {
		if c.Offset != 0 {
			t.Fatalf("scale 0 produced offset %v", c.Offset)
		}
	}
}

func TestScaleIsLinear(t *testing.T) {
	a := rand.New(rand.NewSource(3))
	b := rand.New(rand.NewSource(3))
	one := PlanetLab(1).SamplePopulation(a, 500)
	two := PlanetLab(2).SamplePopulation(b, 500)
	for i := range one {
		diff := two[i].Offset - 2*one[i].Offset
		if diff < 0 {
			diff = -diff
		}
		if diff > 2 { // float64->Duration rounding
			t.Fatalf("offset at scale 2 (%v) != 2x offset at scale 1 (%v)",
				two[i].Offset, one[i].Offset)
		}
	}
}

// Property: Reported is strictly monotonic in true time for any sampled
// clock (skew is bounded well away from zero).
func TestPropertyReportedMonotonic(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	f := func(aMS, bMS uint32) bool {
		c := PlanetLab(1.7).Sample(rng)
		x, y := time.Duration(aMS)*time.Millisecond, time.Duration(bMS)*time.Millisecond
		if x > y {
			x, y = y, x
		}
		if x == y {
			return true
		}
		return c.Reported(x) < c.Reported(y)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: the time a clock measures elapsing is additive: across a+b it
// reads what it reads across a and then b, within rounding of one
// nanosecond per reading.
func TestPropertyElapsedAdditive(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	f := func(aMS, bMS uint16) bool {
		c := PlanetLab(1).Sample(rng)
		a := time.Duration(aMS) * time.Millisecond
		b := time.Duration(bMS) * time.Millisecond
		sum := c.Reported(a+b) - c.Reported(0)
		parts := c.Reported(a) - c.Reported(0) + c.Reported(a+b) - c.Reported(a)
		diff := sum - parts
		if diff < 0 {
			diff = -diff
		}
		return diff <= 2
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// fractionBeyond reports the fraction of the clocks whose absolute offset
// exceeds lim. It validates the distribution's shape.
func fractionBeyond(clocks []Clock, lim time.Duration) float64 {
	if len(clocks) == 0 {
		return 0
	}
	n := 0
	for _, c := range clocks {
		off := c.Offset
		if off < 0 {
			off = -off
		}
		if off > lim {
			n++
		}
	}
	return float64(n) / float64(len(clocks))
}
