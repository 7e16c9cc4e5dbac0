package federation

import (
	"testing"
	"time"

	"repro/internal/tuple"
)

func TestWatchCompleteness(t *testing.T) {
	fed, sim, rng := build(t, `query n as count() from sensors window time 1s slide 1s`, 30)
	w := fed.WatchCompleteness("n")
	defer w.Close()
	fed.StartSensors(time.Second, func(int) tuple.Raw { return tuple.Raw{Vals: []float64{1}} }, rng)
	sim.RunUntil(20 * time.Second)

	if best := w.Best(); best != 30 {
		t.Fatalf("best completeness = %d, want 30", best)
	}
	win, count := w.Latest()
	if count != 30 {
		t.Fatalf("latest window %d has completeness %d, want 30", win, count)
	}
	if got, ok := w.Window(win); !ok || got != count {
		t.Fatalf("Window(%d) = %d, %v", win, got, ok)
	}
	snap := w.Snapshot()
	if snap[win] != count {
		t.Fatalf("snapshot missing latest window: %v", snap)
	}
	if fed.LiveCount() != 30 {
		t.Fatalf("LiveCount = %d", fed.LiveCount())
	}

	// A watch on another query sees nothing.
	other := fed.WatchCompleteness("nope")
	defer other.Close()
	if other.Best() != 0 {
		t.Fatal("filtered watch recorded results")
	}
}

func TestWatchCompletenessFold(t *testing.T) {
	fed, sim, rng := build(t, `query n as count() from sensors window time 1s slide 1s`, 20)
	w := fed.WatchCompleteness("")
	fed.StartSensors(time.Second, func(int) tuple.Raw { return tuple.Raw{Vals: []float64{1}} }, rng)
	sim.RunUntil(6 * time.Second)
	fed.FailRandom(8, rng)
	sim.RunUntil(14 * time.Second)
	winDuring, during := w.Latest()
	if during > 12 {
		t.Fatalf("window %d completeness %d with 8 of 20 down", winDuring, during)
	}
	fed.RecoverAll()
	sim.RunUntil(26 * time.Second)
	_, after := w.Latest()
	if after != 20 {
		t.Fatalf("completeness %d after recovery, want 20", after)
	}
	// Close is idempotent and stops updates.
	w.Close()
	w.Close()
	snapLen := len(w.Snapshot())
	sim.RunUntil(30 * time.Second)
	if len(w.Snapshot()) != snapLen {
		t.Fatal("closed watch kept accumulating")
	}
}
