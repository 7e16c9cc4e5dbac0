// Command mortard runs a Mortar federation and executes an MSL program
// against it, streaming root results to stdout. One run path serves three
// backends (see run and backend):
//
//   - default: the deterministic discrete-event emulation the experiments
//     use, compressing minutes of virtual time into milliseconds;
//   - -live: real concurrency — every peer is a goroutine with a mailbox,
//     timers fire on the wall clock, and messages cross one loopback UDP
//     socket hosting every peer (the -peers-file transport minus the
//     directory, with -loss and -dup injected at its fault point). The run
//     takes -duration of real time.
//   - -peers-file: the multi-process UDP mode — every process binds the
//     sockets of its -host peer range from the shared peers file (one
//     host:port per line, line i = peer i; or ranged lines "host:port
//     lo-hi" multiplexing many peers behind one socket, as -gen-peers-file
//     writes) and all traffic crosses the wire as internal/wire datagrams.
//     The process hosting peer 0 is the coordinator; the others are
//     workers that -join it and run until it hangs up (see udpBackend).
//     -h lists the transport's tuning flags.
//
// A flag the chosen backend would ignore is refused at start-up. -chaos
// <schedule.json> (live and UDP modes) replays a scripted fault schedule
// (internal/chaos DSL) against the running federation — see startChaos.
// -replan (live and UDP coordinator modes) monitors the latency view for
// drift: a query whose deployed tree set costs more than -drift-threshold
// above what a fresh plan would is replanned into its next epoch and
// migrated live, make-before-break (see internal/federation); each replan
// logs its cost delta and the transport summary counts retired epochs.
//
// Usage:
//
//	mortard -peers 200 -duration 60s -msl query.msl
//	mortard -peers 100 -fail 0.2        # with 20% of peers disconnected
//	mortard -live -peers 50 -duration 5s
//
//	# one federation, two processes, via UDP on a shared peers file:
//	mortard -peers-file peers.txt -host 8-15 -join 127.0.0.1:9000
//	mortard -peers-file peers.txt -host 0-7 -listen 127.0.0.1:9000 -duration 10s
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	_ "net/http/pprof"
	"os"
	goruntime "runtime"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/chaos"
	"repro/internal/eventsim"
	"repro/internal/federation"
	"repro/internal/gateway"
	"repro/internal/mortar"
	"repro/internal/msl"
	"repro/internal/netem"
	"repro/internal/runtime"
	"repro/internal/runtime/livert"
	"repro/internal/runtime/netrt"
	"repro/internal/runtime/simrt"
	"repro/internal/tuple"
)

func main() {
	cfg, err := parseFlags(os.Args[0], os.Args[1:])
	if errors.Is(err, flag.ErrHelp) {
		return
	}
	if err != nil {
		os.Exit(2) // the flag set has already said why
	}
	if err := run(cfg, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

// config is the command line, parsed.
type config struct {
	peers, perSock, basePort, mtu           int
	seed                                    int64
	duration                                time.Duration
	fail, loss, dup, driftThr               float64
	live, replan                            bool
	msl, peersFile, host, listen, join      string
	pprof, serve, genPeers, chaos, curveDir string

	set map[string]bool // flags named on the command line
}

// parseFlags reads args into a config; name heads the usage text.
func parseFlags(name string, args []string) (*config, error) {
	c := &config{set: map[string]bool{}}
	fs := flag.NewFlagSet(name, flag.ContinueOnError)
	fs.IntVar(&c.peers, "peers", 100, "federation size")
	fs.DurationVar(&c.duration, "duration", 30*time.Second, "run time (virtual, or real with -live / -peers-file)")
	fs.StringVar(&c.msl, "msl", "", "MSL program file (default: a count query)")
	fs.Float64Var(&c.fail, "fail", 0, "fraction of peers to disconnect mid-run")
	fs.Int64Var(&c.seed, "seed", 1, "random seed")
	fs.BoolVar(&c.live, "live", false, "run peers as goroutines on the live runtime instead of the simulator")
	fs.Float64Var(&c.loss, "loss", 0.01, "live transport loss probability (-live only)")
	fs.Float64Var(&c.dup, "dup", 0, "live transport control-plane duplication probability (-live only)")
	fs.StringVar(&c.peersFile, "peers-file", "", "UDP mode: peer address directory, one host:port per line")
	fs.StringVar(&c.host, "host", "", "UDP mode: peer range this process hosts, e.g. 0-15")
	fs.StringVar(&c.listen, "listen", "", "UDP mode, coordinator: TCP address to accept worker joins on")
	fs.StringVar(&c.join, "join", "", "UDP mode, worker: coordinator TCP address to join")
	fs.IntVar(&c.mtu, "mtu", 0, "UDP mode: datagram MTU — frames that do not fit are fragmented, NACK-repaired, and reassembled (0 = netrt default, 1400)")
	fs.BoolVar(&c.replan, "replan", false, "coordinator: monitor the embedding for drift and live-replan queries into new epochs (make-before-break migration)")
	fs.Float64Var(&c.driftThr, "drift-threshold", 0.25, "with -replan: relative cost degradation of the deployed plan versus a fresh candidate that triggers a replan")
	fs.StringVar(&c.pprof, "pprof", "", "serve net/http/pprof on this address (e.g. localhost:6060) for hot-path profiles during scale runs")
	fs.StringVar(&c.serve, "serve", "", "HTTP serving plane address (e.g. localhost:8080): install/list/remove queries and stream results over JSON — -live or UDP coordinator mode; with no -msl the federation starts empty and every query arrives over HTTP")
	fs.StringVar(&c.genPeers, "gen-peers-file", "", "write a ranged peers file for -peers peers multiplexed -peers-per-socket per address starting at -base-port, then exit")
	fs.IntVar(&c.perSock, "peers-per-socket", 1, "with -gen-peers-file: peers multiplexed behind each host:port")
	fs.IntVar(&c.basePort, "base-port", 9000, "with -gen-peers-file: first UDP port to assign")
	fs.StringVar(&c.chaos, "chaos", "", "fault schedule JSON to replay against the running federation (-live or UDP mode; every process of a UDP run passes the same file)")
	fs.StringVar(&c.curveDir, "curve-dir", ".", "with -chaos: directory the coordinator writes CURVE_<scenario>.json into (created at start-up when missing)")
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	fs.Visit(func(f *flag.Flag) { c.set[f.Name] = true })
	return c, nil
}

// modeRules names, for every flag only some backends act on, the backends
// (of sim, live, udp) that do and what to say when it is set under another.
var modeRules = []struct {
	flags, modes string // space-separated
	why          string // %s is the flag
}{
	{"fail", "sim live", "%s does not reach across processes (-peers-file); script failures with a -chaos schedule every process replays"},
	{"serve", "live udp", "%s needs a wall-clock backend (-live or -peers-file); the simulator compresses virtual time"},
	{"chaos", "live udp", "%s needs a wall-clock backend (-live or -peers-file); the simulator has its own scripted failures via -fail"},
	{"replan", "live udp", "%s needs a wall-clock backend (-live or -peers-file); the simulator's latencies never drift"},
	{"loss dup", "live", "%s tunes the -live transport; no other backend reads it"},
	{"live", "sim live", "%s is dropped by -peers-file; choose one backend"},
	{"host listen join mtu", "udp", "%s is a UDP-mode flag; it does nothing without -peers-file"},
}

// check refuses a command line the chosen backend would silently ignore
// part of, naming the flag.
func (c *config) check() error {
	mode := "sim"
	switch {
	case c.peersFile != "":
		mode = "udp"
	case c.live:
		mode = "live"
	}
	for _, r := range modeRules {
		for _, name := range strings.Fields(r.flags) {
			if c.set[name] && !strings.Contains(r.modes, mode) {
				return fmt.Errorf("mortard: "+r.why, "-"+name)
			}
		}
	}
	if mode == "udp" && c.host == "" {
		return fmt.Errorf("mortard: -peers-file requires -host (the peer range this process binds)")
	}
	if mode == "udp" && c.serve != "" && !c.coordinator() {
		return fmt.Errorf("mortard: -serve runs on the coordinator (the process hosting peer 0)")
	}
	return nil
}

// coordinator reports whether the -host range starts at peer 0.
func (c *config) coordinator() bool {
	lo, _, _ := strings.Cut(c.host, "-")
	n, err := strconv.Atoi(strings.TrimSpace(lo))
	return err == nil && n == 0
}

// backend is what differs between the simulator, -live and -peers-file
// (coordinator or worker); run does the rest once.
type backend struct {
	rt     runtime.Runtime
	worker bool // hosts no query root: plans nothing, measures nothing
	// plan does what must precede planning and returns the federation; nil
	// means federation.NewRuntime.
	plan func(prog *msl.Program, rng *rand.Rand) (*federation.Federation, error)
	pass func(d time.Duration) // lets d of run time go by
	// summary prints the transport's end-of-run lines, after Shutdown; nil
	// prints none.
	summary func(out io.Writer, fed *federation.Federation, peakRate float64)
	close   func() // releases what outlives the runtime; may be nil
}

// run executes one mortard invocation, writing everything it reports to
// out — from the driving goroutine, the result subscription and the replan
// monitor, so out must take concurrent Writes (os.Stdout does).
func run(cfg *config, out io.Writer) error {
	if err := cfg.check(); err != nil {
		return err
	}
	if cfg.pprof != "" {
		go func() { fmt.Fprintf(os.Stderr, "# pprof server: %v\n", http.ListenAndServe(cfg.pprof, nil)) }()
		fmt.Fprintf(out, "# pprof listening on %s\n", cfg.pprof)
	}
	if cfg.genPeers != "" {
		return cfg.writePeersFile(out)
	}
	prog, err := cfg.program()
	if err != nil {
		return err
	}
	var sched *chaos.Schedule
	if cfg.chaos != "" {
		if sched, err = chaos.Load(cfg.chaos); err != nil {
			return err
		}
	}

	rng := rand.New(rand.NewSource(cfg.seed))
	b, err := cfg.backend(rng, out)
	if err != nil {
		return err
	}
	// Teardown, in this order: gateway, replan monitor and chaos replay (as
	// started, each needing a running federation), then the runtime, then
	// the summary that reads its settled counters, then the backend's close.
	var stops []func()
	stop := func() {
		for _, s := range stops {
			s()
		}
		stops = nil
		b.rt.Shutdown()
	}
	if b.close != nil {
		defer b.close()
	}
	defer stop() // an error below still stops what was started

	var fed *federation.Federation
	if b.plan != nil {
		fed, err = b.plan(prog, rng)
	} else {
		fed, err = federation.NewRuntime(b.rt, prog, rng)
	}
	if err != nil {
		return err
	}
	if cfg.serve != "" {
		closeGateway, err := startGateway(fed, cfg.serve, out)
		if err != nil {
			return err
		}
		stops = append(stops, closeGateway)
	}
	if cfg.replan && !b.worker {
		stops = append(stops, startReplanMonitor(fed, cfg.driftThr, out).Stop)
	}
	fed.PrintResults(out)
	fed.StartSensors(time.Second, func(peer int) tuple.Raw {
		return tuple.Raw{Vals: []float64{1}}
	}, rng)
	if sched != nil {
		stopChaos, err := cfg.startChaos(b, fed, sched, out)
		if err != nil {
			return err
		}
		stops = append(stops, stopChaos)
	}
	var stopSampler func() float64 // started last: nothing below returns early
	if b.summary != nil {
		stopSampler = startDataPathSampler(fed.Fab)
	}

	if cfg.fail > 0 {
		third := cfg.duration / 3
		clock := b.rt.Clock(0)
		b.pass(third)
		n := int(cfg.fail * float64(b.rt.NumPeers()))
		fmt.Fprintf(out, "# t=%v disconnecting %d peers\n", clock.Now().Truncate(time.Millisecond), n)
		fed.FailRandom(n, rng)
		b.pass(third)
		fmt.Fprintf(out, "# t=%v reconnecting all peers\n", clock.Now().Truncate(time.Millisecond))
		fed.RecoverAll()
		b.pass(cfg.duration - 2*third)
	} else {
		b.pass(cfg.duration)
	}

	stop()
	if b.summary != nil {
		b.summary(out, fed, stopSampler())
	}
	return nil
}

// program parses -msl. With -serve and no -msl the federation starts empty:
// every query arrives through the gateway. Otherwise the default count query
// keeps the no-flag invocation doing something observable.
func (c *config) program() (*msl.Program, error) {
	src := "query peers as count() from sensors window time 1s slide 1s trees 4 bf 16"
	switch {
	case c.msl != "":
		b, err := os.ReadFile(c.msl)
		if err != nil {
			return nil, err
		}
		src = string(b)
	case c.serve != "":
		return nil, nil
	}
	return msl.Parse(src)
}

// backend builds the runtime the flags choose. The simulator draws its
// topology from rng before anything else does.
func (c *config) backend(rng *rand.Rand, out io.Writer) (*backend, error) {
	switch {
	case c.peersFile != "":
		return c.udpBackend(out)
	case c.live:
		rt := livert.New(c.peers, livert.Options{
			Seed: c.seed, MinDelay: 500 * time.Microsecond, MaxDelay: 10 * time.Millisecond, Loss: c.loss, CtrlDup: c.dup,
		}).Runtime
		return &backend{rt: rt, pass: time.Sleep, summary: netSummary(rt)}, nil
	}
	sim := eventsim.New(c.seed)
	topo := netem.GenerateTransitStub(netem.PaperTopology(c.peers), rng)
	return &backend{rt: simrt.New(netem.New(sim, topo)), pass: sim.RunFor}, nil
}

// udpBackend binds sockets for the peers in -host. Every process gossips
// Vivaldi coordinates (fit): a peer's coordinate is fitted only from RTTs
// its own process measures. The process hosting peer 0 coordinates: it
// waits for workers to cover the peers file, fits, plans from the gossiped
// coordinates (from a coordinator-local embedding when they do not cover
// every peer; the log says which) and installs. Every other process is a
// worker: it joins, fits beside the coordinator and keeps gossiping,
// operators arrive over the network via install multicast and
// reconciliation, and the run lasts until the coordinator hangs up.
func (c *config) udpBackend(out io.Writer) (*backend, error) {
	dir, err := netrt.LoadDirectory(c.peersFile)
	if err != nil {
		return nil, err
	}
	local, err := netrt.ParseRange(c.host, len(dir))
	if err != nil {
		return nil, err
	}
	rt, err := netrt.New(dir, local, netrt.Options{Seed: c.seed, MTU: c.mtu})
	if err != nil {
		return nil, err
	}
	// fit is the gossip every process runs before the coordinator plans — the
	// paper let Vivaldi run "for at least ten rounds before interconnecting
	// operators" — logging convergence against the RTTs measured under it.
	// A local peer probes 16 others a round: all of a small federation, a
	// sample at scale, where all-pairs rounds cost O(n²) datagrams each.
	fit := func() {
		for round := 1; round <= 10; round++ {
			rt.Gossip(1, 16, 100*time.Millisecond)
			med, pairs := rt.CoordError()
			fmt.Fprintf(out, "# vivaldi round %d: median |coord dist - measured| = %.3fms over %d pairs\n", round, med, pairs)
		}
	}
	// Background gossip, so coordinates track the network for the whole run.
	keepGossiping := func() {
		rt.Gossip(int(c.duration/(500*time.Millisecond))+10, 3, 500*time.Millisecond)
	}
	b := &backend{rt: rt, pass: time.Sleep}

	if !rt.Local(0) {
		b.worker = true
		b.plan = func(*msl.Program, *rand.Rand) (*federation.Federation, error) {
			fmt.Fprintf(out, "# worker hosting peers %d..%d\n", local[0], local[len(local)-1])
			if c.join != "" {
				conn, err := netrt.JoinBarrier(c.join, local, 30*time.Second)
				if err != nil {
					return nil, err
				}
				// The run ends when the coordinator hangs up, with a
				// fallback in case it never does.
				b.pass = func(d time.Duration) { netrt.WaitHangup(conn, d+time.Minute) }
			}
			// The barrier is complete: every process's sockets answer and all
			// fit from now, so these peers are fitted when the coordinator plans.
			go func() {
				fit()
				keepGossiping()
			}()
			return federation.NewWorker(rt)
		}
		return b, nil
	}

	var workers []net.Conn
	b.close = func() {
		for _, w := range workers {
			w.Close() // hang-up tells workers the run is over
		}
	}
	b.plan = func(prog *msl.Program, rng *rand.Rand) (*federation.Federation, error) {
		if c.listen != "" {
			var err error
			if workers, err = netrt.AwaitWorkers(c.listen, local, len(dir), 2*time.Minute); err != nil {
				return nil, err
			}
		}
		fmt.Fprintf(out, "# coordinator hosting %d of %d peers; gossiping Vivaldi coordinates\n", len(local), len(dir))
		fit()
		fed, err := federation.NewRuntime(rt, prog, rng)
		if err != nil {
			return nil, err
		}
		fmt.Fprintf(out, "# planned from gossiped coordinates: %v\n", fed.PlannedFromCoords)
		if c.replan {
			go keepGossiping() // the monitor needs the coordinator's view to keep tracking
		}
		return fed, nil
	}
	b.summary = netSummary(rt)
	return b, nil
}

// netSummary prints the end-of-run lines of a socket runtime, -live's or a
// -peers-file process's.
func netSummary(rt *netrt.Runtime) func(out io.Writer, fed *federation.Federation, peakRate float64) {
	return func(out io.Writer, fed *federation.Federation, peakRate float64) {
		st := &fed.Fab.Stats
		sent, delivered, dropped := rt.Stats()
		fs := rt.FragStats()
		ns := rt.NetStats()
		fmt.Fprintf(out, "# udp transport: sent=%d delivered=%d dropped=%d duplicated=%d frag streams=%d frags=%d retrans=%d nacks=%d reassembled=%d epochs_retired=%d\n",
			sent, delivered, dropped, ns.Duplicated, fs.StreamsSent, fs.FragsSent, fs.Retransmits, fs.NacksSent, fs.Reassembled,
			st.EpochsRetired.Load())
		fmt.Fprintf(out, "# udp sockets: sockets=%d datagrams=%d trains=%d train_frames=%d\n",
			ns.Sockets, ns.Datagrams, ns.Trains, ns.TrainFrames)
		wctl, wdata := rt.ClassBytes()
		fmt.Fprintf(out, "# udp class bytes: ctl=%d data=%d (fabric ctl=%d data=%d shared_ctl=%d)\n",
			wctl, wdata, st.ControlBytes.Load(), st.DataBytes.Load(), st.SharedCtlBytes.Load())
		// The data plane: tuples ingested and the mailbox hops that carried
		// them (their ratio is the batching factor), time-space list
		// activity, the peak ingest rate, and the upstream summaries.
		fmt.Fprintf(out, "# data path: tuples=%d batches=%d ts_inserts=%d ts_merges=%d peak_rate=%.0f tuples/s\n",
			st.TuplesIngested.Load(), st.IngestBatches.Load(),
			fed.Fab.DataPath.Inserts.Load(), fed.Fab.DataPath.Merges.Load(), peakRate)
		fmt.Fprintf(out, "# summary path: staged=%d relayed=%d data_frames=%d\n",
			st.SummariesStaged.Load(), st.Relayed.Load(), st.DataFrames.Load())
		var ms goruntime.MemStats
		goruntime.ReadMemStats(&ms)
		fmt.Fprintf(out, "# memstats: heap_alloc=%dKiB total_alloc=%dKiB mallocs=%d gc=%d\n",
			ms.HeapAlloc>>10, ms.TotalAlloc>>10, ms.Mallocs, ms.NumGC)
		med, pairs := rt.CoordError()
		fmt.Fprintf(out, "# vivaldi final: median |coord dist - measured| = %.3fms over %d pairs\n", med, pairs)
	}
}

// writePeersFile emits a ranged peers file multiplexing -peers-per-socket
// consecutive peers behind each 127.0.0.1 port from -base-port up — the
// -peers-file every process of a scale run shares.
func (c *config) writePeersFile(out io.Writer) error {
	if c.peers <= 0 || c.perSock <= 0 || c.basePort <= 0 || c.basePort > 65535 {
		return fmt.Errorf("mortard: -gen-peers-file needs positive -peers, -peers-per-socket, and a valid -base-port")
	}
	var b strings.Builder
	fmt.Fprintf(&b, "# %d peers, %d per socket, ports from %d\n", c.peers, c.perSock, c.basePort)
	port := c.basePort
	for lo := 0; lo < c.peers; lo += c.perSock {
		hi := min(lo+c.perSock, c.peers) - 1
		if port > 65535 {
			return fmt.Errorf("mortard: -gen-peers-file runs past port 65535 (lower -peers or raise -peers-per-socket)")
		}
		fmt.Fprintf(&b, "127.0.0.1:%d %d-%d\n", port, lo, hi)
		port++
	}
	if err := os.WriteFile(c.genPeers, []byte(b.String()), 0o644); err != nil {
		return err
	}
	fmt.Fprintf(out, "# wrote %s: %d peers over %d sockets\n", c.genPeers, c.peers, port-c.basePort)
	return nil
}

// startGateway serves the HTTP plane over fed on addr, returning a
// shutdown func.
func startGateway(fed *federation.Federation, addr string, out io.Writer) (func(), error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	gw := gateway.NewServer(fed, gateway.Options{})
	srv := &http.Server{Handler: gw}
	fmt.Fprintf(out, "# gateway listening on http://%s\n", ln.Addr())
	go srv.Serve(ln)
	return func() {
		srv.Close()
		gw.Close()
	}, nil
}

// startChaos replays sched against the backend's runtime until the returned
// stop func is called. Every backend that takes -chaos runs on netrt, so
// loss, gate and socket actions all land at its one fault point. Every
// process of a UDP run expands the schedule identically and gates only the
// peers it hosts; the one hosting the roots also samples one query's root
// completeness — the program's first statement, or with no program the
// first installed query in name order — against the schedule-truth live
// count: it makes -curve-dir first, failing when it cannot, and its stop
// func writes CURVE_<scenario>.json there and prints the summary line the
// smoke gates parse.
func (c *config) startChaos(b *backend, fed *federation.Federation, sched *chaos.Schedule, out io.Writer) (func(), error) {
	if !b.worker {
		// The curve is written after the whole run: a directory that
		// cannot be made fails now, before a single sample is taken.
		if err := os.MkdirAll(c.curveDir, 0o755); err != nil {
			return nil, fmt.Errorf("mortard: -curve-dir: %w", err)
		}
	}
	inj := b.rt.(chaos.Injector)
	runner, err := chaos.Start(inj, sched)
	if err != nil {
		return nil, err
	}
	if b.worker {
		fmt.Fprintf(out, "# chaos: worker replaying scenario=%s actions=%d\n", sched.Scenario, len(runner.Actions()))
		return runner.Stop, nil
	}
	query := ""
	if fed.Prog != nil && len(fed.Prog.Statements) > 0 {
		query = fed.Prog.Statements[0].Name
	}
	rec := chaos.NewRecorder(sched.Scenario, inj.NumPeers(), sched.SamplePeriod(), chaos.Probe{
		Live: runner.Live,
		Completeness: func() (int64, int) {
			name := query
			if name == "" {
				if names := fed.Ledger.Queries(); len(names) > 0 {
					name = names[0]
				}
			}
			return fed.Ledger.Latest(name)
		},
	})
	rec.Start()
	span := "(no gate faults)"
	if fStart, fEnd, ok := chaos.FaultSpan(runner.Actions()); ok {
		span = fmt.Sprintf("fault_span=%v..%v", fStart, fEnd)
	}
	fmt.Fprintf(out, "# chaos: scenario=%s actions=%d %s\n", sched.Scenario, len(runner.Actions()), span)
	return func() {
		runner.Stop()
		rec.Stop()
		fs, fe, _ := runner.FaultSpan()
		curve := rec.Curve(fs, fe)
		path, err := curve.WriteFile(c.curveDir)
		if err != nil {
			fmt.Fprintf(os.Stderr, "# chaos: writing curve: %v\n", err)
			path = "<unwritten>"
		}
		fmt.Fprintf(out, "# chaos summary: scenario=%s baseline=%d fault_min=%d min_live=%d recovered=%d samples=%d curve=%s\n",
			curve.Scenario, curve.Summary.Baseline, curve.Summary.FaultMin,
			curve.Summary.MinLive, curve.Summary.Recovered, len(curve.Samples), path)
	}, nil
}

// startDataPathSampler samples the fabric's tuple-ingest counter once a
// second; the returned stop function reports the peak one-second rate.
func startDataPathSampler(fab *mortar.Fabric) func() float64 {
	done := make(chan struct{})
	var best atomic.Uint64
	go func() {
		tick := time.NewTicker(time.Second)
		defer tick.Stop()
		last := fab.Stats.TuplesIngested.Load()
		for {
			select {
			case <-done:
				return
			case <-tick.C:
				cur := fab.Stats.TuplesIngested.Load()
				best.Store(max(best.Load(), cur-last))
				last = cur
			}
		}
	}()
	return func() float64 {
		close(done)
		return float64(best.Load())
	}
}

// startReplanMonitor arms drift-triggered live replanning, logging every
// migration's cost delta.
func startReplanMonitor(fed *federation.Federation, driftThr float64, out io.Writer) *federation.Monitor {
	return fed.StartMonitor(federation.MonitorOptions{
		Threshold: driftThr,
		OnReplan: func(r federation.ReplanResult) {
			fmt.Fprintf(out, "# replan query=%s epoch=%d cost %.2fms -> %.2fms (from_coords=%v)\n", r.Query, r.Epoch,
				float64(r.OldCost)/float64(time.Millisecond), float64(r.NewCost)/float64(time.Millisecond), r.FromCoords)
		},
		OnError: func(query string, err error) {
			fmt.Fprintf(out, "# replan query=%s FAILED: %v\n", query, err)
		},
	})
}
