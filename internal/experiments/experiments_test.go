package experiments

import (
	"bytes"
	"flag"
	"os"
	"strconv"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/quick-seed42.txt from this tree")

func quick() Options { return Options{Seed: 42, Quick: true} }

// Every quick figure at seed 42 is what testdata/quick-seed42.txt holds — the
// output of `mortar-exp -all -quick -seed 42`. A change that moves a row fails
// here; regenerate with `go test ./internal/experiments -run
// TestQuickFiguresGolden -update` and explain each moved row with the
// change.
func TestQuickFiguresGolden(t *testing.T) {
	const golden = "testdata/quick-seed42.txt"
	var got bytes.Buffer
	for _, e := range All {
		e.Run(quick()).Print(&got)
	}
	if *update {
		if err := os.WriteFile(golden, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	gl, wl := strings.Split(got.String(), "\n"), strings.Split(string(want), "\n")
	for len(gl) < len(wl) {
		gl = append(gl, "")
	}
	for len(wl) < len(gl) {
		wl = append(wl, "")
	}
	for i := range gl {
		if gl[i] != wl[i] {
			t.Errorf("%s line %d:\n got  %q\n want %q", golden, i+1, gl[i], wl[i])
		}
	}
}

// cell parses a table cell as float.
func cell(t *testing.T, tab *Table, row, col int) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(tab.Rows[row][col], 64)
	if err != nil {
		t.Fatalf("cell (%d,%d) = %q: %v", row, col, tab.Rows[row][col], err)
	}
	return v
}

func TestFigure1Shape(t *testing.T) {
	tab := Figure1(quick())
	if len(tab.Rows) != 9 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	// At 0% failures everything is 100.
	for c := 1; c < len(tab.Columns); c++ {
		if cell(t, tab, 0, c) != 100 {
			t.Fatalf("col %d not 100 at zero failures", c)
		}
	}
	// At 40%: dynamic D=4 >> mirroring D=2 > striping ~ single.
	last := len(tab.Rows) - 1
	single := cell(t, tab, last, 2)
	striping := cell(t, tab, last, 3)
	mir2 := cell(t, tab, last, 4)
	dyn4 := cell(t, tab, last, 7)
	if !(dyn4 > mir2 && mir2 > striping) {
		t.Fatalf("ordering broken: dyn4 %.1f mir2 %.1f striping %.1f", dyn4, mir2, striping)
	}
	if dyn4 < 75 {
		t.Fatalf("dynamic D=4 at 40%% = %.1f, want high", dyn4)
	}
	if diff := striping - single; diff < -6 || diff > 6 {
		t.Fatalf("striping %.1f should track single tree %.1f", striping, single)
	}
}

func TestFigure9And10Shape(t *testing.T) {
	f9 := Figure9(quick())
	f10 := Figure10(quick())
	// Columns: scale, syncless, timestamp, streambase.
	top, bottom := 0, len(f9.Rows)-1
	syncTop, syncBot := cell(t, f9, top, 1), cell(t, f9, bottom, 1)
	tsTop, tsBot := cell(t, f9, top, 2), cell(t, f9, bottom, 2)
	if syncBot < 80 {
		t.Fatalf("syncless true completeness at scale 2 = %.1f, want >= 80", syncBot)
	}
	if syncBot < syncTop-15 {
		t.Fatalf("syncless degraded with scale: %.1f -> %.1f", syncTop, syncBot)
	}
	if tsBot > syncBot-10 {
		t.Fatalf("timestamp (%.1f) should be well below syncless (%.1f) at scale 2", tsBot, syncBot)
	}
	if tsTop < 90 {
		t.Fatalf("timestamp at scale 0 = %.1f, want accurate", tsTop)
	}
	// Latency: syncless roughly constant; timestamp grows with scale.
	sLatTop, sLatBot := cell(t, f10, top, 1), cell(t, f10, bottom, 1)
	tLatBot := cell(t, f10, bottom, 2)
	if sLatBot > 3*sLatTop+2 {
		t.Fatalf("syncless latency not constant: %.2f -> %.2f", sLatTop, sLatBot)
	}
	if tLatBot < 3*sLatBot {
		t.Fatalf("timestamp latency at scale 2 (%.2f) should dwarf syncless (%.2f)", tLatBot, sLatBot)
	}
}

func TestFigure11Shape(t *testing.T) {
	tab := Figure11(quick())
	// With no failures, install completes fast (paper: <10s for 680).
	for i, row := range tab.Rows {
		ts, _ := strconv.Atoi(row[0])
		if ts >= 10 {
			if v := cell(t, tab, i, 1); v < 99 {
				t.Fatalf("no-failure coverage %.1f%% at t=%d", v, ts)
			}
			break
		}
	}
	last := len(tab.Rows) - 1
	// After reconnect + reconciliation, every arm converges to ~100%.
	for c := 1; c < len(tab.Columns); c++ {
		if v := cell(t, tab, last, c); v < 95 {
			t.Fatalf("column %d final coverage %.1f%%", c, v)
		}
	}
	// Before reconnect, 40% down caps coverage near 60%.
	for i, row := range tab.Rows {
		if row[0] == "25" {
			v := cell(t, tab, i, 5)
			if v > 62 {
				t.Fatalf("coverage %.1f%% with 40%% down", v)
			}
			if v < 40 {
				t.Fatalf("reconciliation achieved only %.1f%% with 40%% down (paper: 54.5%%)", v)
			}
		}
		_ = i
	}
}

func TestFigure12Shape(t *testing.T) {
	tab := Figure12(quick())
	// Columns: fail%, optimal, 1 tree, 2 trees, 4 trees (quick mode).
	for _, row := range tab.Rows {
		if row[0] == "0" {
			for c := 2; c < 5; c++ {
				v, _ := strconv.ParseFloat(row[c], 64)
				if v < 95 {
					t.Fatalf("no-failure completeness %.1f in col %d", v, c)
				}
			}
		}
		if row[0] == "40" {
			one, _ := strconv.ParseFloat(row[2], 64)
			four, _ := strconv.ParseFloat(row[4], 64)
			if four < one+10 {
				t.Fatalf("4 trees (%.1f) should beat 1 tree (%.1f) at 40%% failures", four, one)
			}
			if four < 80 {
				t.Fatalf("4 trees at 40%% = %.1f, want >= 80 (paper: 94)", four)
			}
		}
	}
}

func TestFigure13Shape(t *testing.T) {
	tab := Figure13(quick())
	last := len(tab.Rows) - 1
	n := cell(t, tab, last, 1)
	one := cell(t, tab, last, 2)
	two := cell(t, tab, last, 3)
	four := cell(t, tab, last, 4)
	if !(one < two && two < four) {
		t.Fatalf("children must grow with trees: %v %v %v", one, two, four)
	}
	if four >= n {
		t.Fatalf("sharing broken: 4-tree children %.1f >= N %.0f", four, n)
	}
	// Paper: 2 trees ~ doubles 1 tree; 4 trees ~ +50% over 2 trees.
	if ratio := four / two; ratio > 2.2 {
		t.Fatalf("4 trees / 2 trees = %.2f, want sub-linear (~1.5)", ratio)
	}
}

// noEmptyBuckets fails when a rolling-series row prints zero completeness
// or path length while nodes are live: that is a second in which the root
// happened to report nothing, read as a measurement.
func noEmptyBuckets(t *testing.T, tab *Table) {
	t.Helper()
	for i := range tab.Rows {
		if cell(t, tab, i, 1) > 0 && (cell(t, tab, i, 2) == 0 || cell(t, tab, i, 3) == 0) {
			t.Errorf("%s: row %v reads an empty bucket as zero", tab.Title, tab.Rows[i])
		}
	}
}

func TestFigure14Shape(t *testing.T) {
	tab := Figure14(quick())
	if len(tab.Rows) < 10 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	noEmptyBuckets(t, tab)
	// Path length ~ tree height early on; load positive.
	foundLoad := false
	for i := range tab.Rows {
		if cell(t, tab, i, 4) > 0 {
			foundLoad = true
		}
	}
	if !foundLoad {
		t.Fatal("no network load recorded")
	}
	for _, n := range tab.Notes {
		if strings.Contains(n, "without in-network aggregation") {
			return
		}
	}
	t.Fatal("missing no-aggregation note")
}

func TestFigure15Shape(t *testing.T) {
	tab := Figure15(quick())
	if len(tab.Rows) < 8 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	noEmptyBuckets(t, tab)
	// Final completeness stays high relative to live nodes under churn.
	last := len(tab.Rows) - 1
	if v := cell(t, tab, last, 2); v < 75 {
		t.Fatalf("completeness under churn = %.1f", v)
	}
}

func TestFigure16Shape(t *testing.T) {
	tab := Figure16(quick())
	over := 0.0
	for i := range tab.Rows {
		if v := cell(t, tab, i, 2); v > over {
			over = v
		}
	}
	if over <= 100 {
		t.Fatalf("SDIMS never over-counted (max %.1f%%); churn should push past 100%%", over)
	}
}

// Figure 16 must read the same twice: the SDIMS comparator once drew its
// routing entries in map order, so two runs of one seed differed in 20 rows.
func TestFigure16Deterministic(t *testing.T) {
	var a, b bytes.Buffer
	Figure16(quick()).Print(&a)
	Figure16(quick()).Print(&b)
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatalf("two runs of Figure 16 (quick, seed 42) differ:\n%s\n--- vs ---\n%s", a.String(), b.String())
	}
}

func TestFigure17Shape(t *testing.T) {
	tab := Figure17(quick())
	for i := range tab.Rows {
		bf, _ := strconv.Atoi(tab.Rows[i][0])
		rnd := cell(t, tab, i, 1)
		planned := cell(t, tab, i, 2)
		derived := cell(t, tab, i, 3)
		if planned >= rnd {
			t.Fatalf("bf %s: planned (%.1f) not better than random (%.1f)", tab.Rows[i][0], planned, rnd)
		}
		// At large branching factors trees are nearly flat and all
		// schemes converge; require the sibling benefit only while the
		// tree has depth.
		if bf <= 8 && derived >= rnd {
			t.Fatalf("bf %s: derived (%.1f) lost all planning benefit (random %.1f)", tab.Rows[i][0], derived, rnd)
		}
		if derived > rnd*1.1 {
			t.Fatalf("bf %s: derived (%.1f) worse than random (%.1f)", tab.Rows[i][0], derived, rnd)
		}
	}
}

func TestFigure18Shape(t *testing.T) {
	tab := Figure18(quick())
	foundErr, foundSaving := false, false
	for _, n := range tab.Notes {
		if strings.Contains(n, "mean location error") {
			foundErr = true
			var e float64
			if _, err := fmtSscanf(n, &e); err == nil && e > 30 {
				t.Fatalf("location error %.1f m too large", e)
			}
		}
		if strings.Contains(n, "reduction") {
			foundSaving = true
		}
	}
	if !foundErr || !foundSaving {
		t.Fatalf("notes missing: %v", tab.Notes)
	}
}

// fmtSscanf extracts the first float from a note.
func fmtSscanf(s string, out *float64) (int, error) {
	i := strings.IndexAny(s, "0123456789")
	if i < 0 {
		return 0, strings.NewReader("").UnreadByte()
	}
	j := i
	for j < len(s) && (s[j] == '.' || (s[j] >= '0' && s[j] <= '9')) {
		j++
	}
	v, err := strconv.ParseFloat(s[i:j], 64)
	if err != nil {
		return 0, err
	}
	*out = v
	return 1, nil
}

func TestRegistry(t *testing.T) {
	if len(All) != 11 {
		t.Fatalf("registry has %d figures", len(All))
	}
	for _, e := range All {
		if _, err := Find(e.ID); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := Find("fig99"); err == nil {
		t.Fatal("unknown figure accepted")
	}
}

func TestTablePrint(t *testing.T) {
	tab := &Table{Title: "t", Columns: []string{"a", "bb"}}
	tab.AddRow("1", "2")
	tab.Note("n %d", 1)
	var sb strings.Builder
	tab.Print(&sb)
	out := sb.String()
	if !strings.Contains(out, "== t ==") || !strings.Contains(out, "note: n 1") {
		t.Fatalf("print output: %q", out)
	}
}
