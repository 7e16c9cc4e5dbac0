// Command bench measures Mortar end to end and layer by layer.
//
// One run of one workload (what the acceptance driver invokes):
//
//	bash bench/run.sh --workload fanin-wan --seed 1 --seconds 20 --trace 0
//
// prints every metric by name, unit and sample count and ends with one
// JSON line {correct, attempted, failed, metrics}: the end-to-end metrics
// with --trace 0, the per-layer ones with --trace 1. With no --workload it
// runs every workload both ways, each in a child process so that CPU and
// peak memory are that run's alone, and writes DIR/results.json plus one
// trace per workload:
//
//	bash bench/run.sh -seed 1 -out DIR
//
// See bench/README.md for the metric glossary and what each layer metric
// is expected to move.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"time"

	"repro/bench/measure"
)

func main() {
	epoch := time.Now()
	var (
		workloadName = flag.String("workload", "", "run one workload (default: all, each measured and traced)")
		seed         = flag.Int64("seed", 1, "drives the delay topology, Zipf keys, planning rng and fault schedule")
		seconds      = flag.Int("seconds", runSeconds, "length of the measured span")
		trace        = flag.Int("trace", 0, "1: traced run, per-layer metrics; 0: measured run, end-to-end metrics")
		out          = flag.String("out", "", "directory for results.json, run detail and traces (default: none written)")
		short        = flag.Bool("short", false, "smoke run: one set-up, 3 s spans; figures are not comparable")
		reps         = flag.Int("reps", 1, "all-workloads mode: measured runs per workload; results.json keeps every value and their median")
		printSpec    = flag.Bool("print-spec", false, "print BENCHMARK.json as this binary defines it and exit")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		fatal(fmt.Errorf("unexpected argument %q", flag.Arg(0)))
	}
	if *printSpec {
		b, err := json.MarshalIndent(benchmarkSpec(), "", "  ")
		if err != nil {
			fatal(err)
		}
		fmt.Println(string(b))
		return
	}
	if *seconds < 1 {
		fatal(fmt.Errorf("-seconds %d must be at least 1", *seconds))
	}
	if *out != "" {
		if err := os.MkdirAll(*out, 0o755); err != nil {
			fatal(err)
		}
	}
	if *workloadName == "" {
		if err := runAll(*seed, *seconds, *reps, *short, *out); err != nil {
			fatal(err)
		}
		return
	}
	sp := findSpec(*workloadName)
	if sp == nil {
		fatal(fmt.Errorf("unknown workload %q", *workloadName))
	}
	run, err := runWorkload(sp, *seed, *seconds, *trace == 1, *short, *out, epoch)
	if err != nil {
		fatal(err)
	}
	if !run.Correct {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(2)
}

// benchmarkSpec is BENCHMARK.json as the code defines it; a unit test
// holds the committed file to it.
func benchmarkSpec() measure.Benchmark {
	b := measure.Benchmark{
		Command:    []string{"bash", "bench/run.sh"},
		Paths:      []string{"bench"},
		RunSeconds: runSeconds,
		EndToEnd:   endToEnd,
		PerLayer:   perLayer,
	}
	for _, sp := range specs {
		b.Workloads = append(b.Workloads, measure.WorkloadSpec{Name: sp.name, Why: sp.why})
	}
	return b
}

// runWorkload performs one run, prints its table and final JSON line, and
// writes the run detail and trace when out is set.
func runWorkload(sp *spec, seed int64, seconds int, traced, short bool, out string, epoch time.Time) (*measure.Run, error) {
	res, err := runOnce(sp, seed, seconds, traced, short, epoch)
	if err != nil {
		return nil, err
	}
	e2e, layer, attempted, failed, checks := res.report(epoch)
	run := &measure.Run{Workload: sp.name, Seed: seed, Seconds: seconds, Traced: traced, Short: short,
		Correct: true, Attempted: attempted, Failed: failed, Checks: checks}
	order := endToEnd
	run.Metrics = e2e
	if traced {
		run.Metrics, order = layer, perLayer
	}
	for _, c := range checks {
		run.Correct = run.Correct && c.OK
	}
	if attempted < 1 {
		run.Correct, run.Attempted = false, 1
	}

	mode := "measured"
	if traced {
		mode = "traced"
	}
	fmt.Printf("# %s seed=%d %s: %d set-ups, %d measured for %v each\n", sp.name, seed, mode, res.ph.setups, res.ph.pieces, res.ph.span)
	for _, ms := range order {
		mt := run.Metrics[ms.Name]
		extra := ""
		if mt.N > 0 {
			extra = fmt.Sprintf("  n=%d", mt.N)
		}
		if mt.Note != "" {
			extra += "  " + mt.Note
		}
		fmt.Printf("%-36s %14.4f %-6s%s\n", ms.Name, mt.Value, mt.Unit, extra)
	}
	fmt.Printf("%-36s %14d of %d delivered\n", "results_invalid", failed, run.Attempted)
	for _, c := range checks {
		verdict := "ok"
		if !c.OK {
			verdict = "VIOLATED"
		}
		fmt.Printf("check %-24s %-8s %s\n", c.Name, verdict, c.Detail)
	}
	if short {
		fmt.Println("# -short: spans shrunk, figures not comparable")
	}

	if out != "" {
		detail := "run-" + sp.name + "-trace0.json"
		if traced {
			detail = "run-" + sp.name + "-trace1.json"
		}
		if err := measure.WriteJSON(filepath.Join(out, detail), run); err != nil {
			return nil, err
		}
		if traced {
			if err := measure.WriteSpans(filepath.Join(out, "trace-"+sp.name+".json"), res.rec.Spans()); err != nil {
				return nil, err
			}
		}
	}

	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	last := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{Correct: run.Correct, Attempted: run.Attempted, Failed: run.Failed, Metrics: map[string]value{}}
	for _, ms := range order {
		last.Metrics[ms.Name] = value{Value: run.Metrics[ms.Name].Value, Unit: ms.Unit}
	}
	b, err := json.Marshal(last)
	if err != nil {
		return nil, err
	}
	fmt.Println(string(b))
	return run, nil
}

// runAll runs every workload measured (reps times) and traced (once), one
// child process per run, and joins them into results.json.
func runAll(seed int64, seconds, reps int, short bool, out string) error {
	if out == "" {
		return fmt.Errorf("running every workload needs -out DIR for results.json and the traces")
	}
	if reps < 1 {
		return fmt.Errorf("-reps %d must be at least 1", reps)
	}
	self, err := os.Executable()
	if err != nil {
		return err
	}
	res := measure.Results{Schema: measure.SchemaVersion, Seed: seed, Seconds: seconds, Comparable: !short}
	allCorrect := true
	for i := range specs {
		sp := &specs[i]
		child := func(traced int) (measure.Run, error) {
			args := []string{"-workload", sp.name, "-seed", fmt.Sprint(seed), "-seconds", strconv.Itoa(seconds),
				"-trace", strconv.Itoa(traced), "-out", out}
			if short {
				args = append(args, "-short")
			}
			cmd := exec.Command(self, args...)
			cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
			err := cmd.Run() // waits for the child; exit 1 means a violated check
			var run measure.Run
			path := filepath.Join(out, fmt.Sprintf("run-%s-trace%d.json", sp.name, traced))
			if rerr := measure.ReadJSON(path, &run); rerr != nil {
				return run, fmt.Errorf("%s trace=%d: %v (child: %v)", sp.name, traced, rerr, err)
			}
			os.Remove(path) // folded into results.json below
			return run, nil
		}
		var runs [2]measure.Run
		values := map[string][]float64{}
		for r := 0; r < reps; r++ {
			run, err := child(0)
			if err != nil {
				return err
			}
			for name, mt := range run.Metrics {
				values[name] = append(values[name], mt.Value)
			}
			if r > 0 {
				run.Correct = run.Correct && runs[0].Correct
				run.Checks = append(runs[0].Checks, run.Checks...)
			}
			runs[0] = run
		}
		if reps > 1 {
			for name, mt := range runs[0].Metrics {
				mt.Value, mt.Values = measure.Median(values[name]), values[name]
				runs[0].Metrics[name] = mt
			}
		}
		var err error
		if runs[1], err = child(1); err != nil {
			return err
		}
		w := measure.WorkloadResult{Name: sp.name, Correct: runs[0].Correct && runs[1].Correct,
			Attempted: runs[0].Attempted, Failed: runs[0].Failed,
			EndToEnd: runs[0].Metrics, PerLayer: runs[1].Metrics,
			Checks: append(runs[0].Checks, runs[1].Checks...)}
		base := runs[0].Metrics["result_latency_ms_p50"].Value
		if base > 0 {
			w.TraceOverheadRatio = (runs[1].Metrics["trace.result_latency_ms_p50"].Value - base) / base
		}
		fmt.Printf("%-36s %14.4f ratio   %s (traced vs measured result_latency_ms_p50)\n\n",
			"trace_overhead_ratio", w.TraceOverheadRatio, sp.name)
		allCorrect = allCorrect && w.Correct
		res.Workloads = append(res.Workloads, w)
	}
	path := filepath.Join(out, "results.json")
	if err := measure.WriteJSON(path, res); err != nil {
		return err
	}
	fmt.Printf("# wrote %s and %s\n", path, filepath.Join(out, "trace-<workload>.json"))
	if !allCorrect {
		return fmt.Errorf("output checks violated; see above")
	}
	return nil
}
