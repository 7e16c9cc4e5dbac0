// Command compare holds one results.json against another under the bounds
// BENCHMARK.json fixes:
//
//	cd bench && go run ./compare [-spec ../BENCHMARK.json] A/results.json B/results.json
//
// For every workload and end-to-end metric it prints both values, the ratio
// B/A, and ok, worse or unresolved. A is the base. A metric is unresolved
// when either side lacks it, when either file came from a -short run, or
// when A holds repetitions (-reps) whose own spread exceeds the bound. It
// exits 1 if any metric is worse.
package main

import (
	"flag"
	"fmt"
	"math"
	"os"

	"repro/bench/measure"
)

func main() {
	specPath := flag.String("spec", "../BENCHMARK.json", "BENCHMARK.json holding the metric bounds")
	flag.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: compare [-spec BENCHMARK.json] A/results.json B/results.json")
		flag.PrintDefaults()
	}
	flag.Parse()
	if flag.NArg() != 2 {
		flag.Usage()
		os.Exit(2)
	}
	var spec measure.Benchmark
	var a, b measure.Results
	for path, into := range map[string]any{*specPath: &spec, flag.Arg(0): &a, flag.Arg(1): &b} {
		if err := measure.ReadJSON(path, into); err != nil {
			fmt.Fprintln(os.Stderr, "compare:", err)
			os.Exit(2)
		}
	}
	worse, unresolved := report(os.Stdout, spec, a, b)
	fmt.Printf("%d worse, %d unresolved\n", worse, unresolved)
	if worse > 0 {
		os.Exit(1)
	}
}

// report prints the comparison table and counts the verdicts.
func report(w *os.File, spec measure.Benchmark, a, b measure.Results) (worse, unresolved int) {
	comparable := a.Comparable && b.Comparable && a.Seconds == b.Seconds
	if !comparable {
		fmt.Fprintln(w, "# runs are not comparable (-short, or different span lengths): every metric is unresolved")
	}
	fmt.Fprintf(w, "%-12s %-28s %14s %14s %8s %6s  %s\n", "workload", "metric", "A (base)", "B", "B/A", "bound", "verdict")
	for _, ws := range spec.Workloads {
		wa, wb := a.Workload(ws.Name), b.Workload(ws.Name)
		for _, ms := range spec.EndToEnd {
			va, vb, ratio, verdict := math.NaN(), math.NaN(), math.NaN(), measure.Unresolved
			if wa != nil && wb != nil {
				ma, okA := wa.EndToEnd[ms.Name]
				mb, okB := wb.EndToEnd[ms.Name]
				if okA && okB {
					va, vb = ma.Value, mb.Value
					ratio, verdict = measure.Verdict(ms.Better, ms.Bound, va, vb, measure.Spread(ma.Values))
				}
			}
			if !comparable {
				verdict = measure.Unresolved
			}
			switch verdict {
			case measure.Worse:
				worse++
			case measure.Unresolved:
				unresolved++
			}
			fmt.Fprintf(w, "%-12s %-28s %14.4f %14.4f %8.4f %6.2f  %s\n", ws.Name, ms.Name, va, vb, ratio, ms.Bound, verdict)
		}
	}
	return worse, unresolved
}
