// Command mortard runs a Mortar federation and executes an MSL program
// against it, streaming root results to stdout. It is the "daemon"-shaped
// entry point, with three backends:
//
//   - default: the deterministic discrete-event emulation the experiments
//     use, compressing minutes of virtual time into milliseconds;
//   - -live: real concurrency — every peer is a goroutine with a mailbox,
//     timers fire on the wall clock, and messages cross an in-process
//     lossy transport. The run takes -duration of real time.
//   - -peers-file: the multi-process UDP mode — peers bind sockets from
//     the shared peers file (one host:port per line, line i = peer i; or
//     ranged lines "host:port lo-hi" multiplexing many peers behind one
//     socket) and all traffic crosses the wire as internal/wire datagrams.
//     -gen-peers-file writes such a ranged file for -peers peers, chunked
//     -peers-per-socket per address from -base-port up. Each
//     process hosts the peer range given by -host. The process hosting
//     peer 0 is the coordinator: it learns pair latencies, plans the
//     queries, and runs the install multicast; worker processes receive
//     their operators over the network. With -listen the coordinator waits
//     until joining workers cover the whole federation before planning;
//     workers -join the coordinator and run until it hangs up. With
//     -vivaldi every process runs decentralized Vivaldi: coordinates
//     spread on probe gossip and heartbeat piggybacks, the coordinator
//     plans from the gossiped embedding (no coordinator-local probing),
//     and convergence is logged. -mtu sets the datagram size above which
//     frames fragment (with NACK repair and reassembly); -pace sets the
//     token-bucket rate outgoing datagrams drain at; -vivaldi-height
//     embeds with height-vector coordinates (access-link latency);
//     -coalesce batches small frames to one remote socket into train
//     datagrams; -probe-rounds 0 skips all-pairs probing (the planner
//     falls back to default latencies — the scale-run setting); -pprof
//     serves net/http/pprof for hot-path profiles.
//
// With -chaos <schedule.json> (live and UDP modes) the process replays a
// scripted fault schedule (internal/chaos DSL) against the running
// federation: fail-stop kills, staggered recoveries, rolling churn,
// correlated shared-socket outages, and datagram-loss ramps. Every
// process of a UDP run passes the same file — expansion is deterministic,
// so all processes agree on the global fault pattern while each gates
// only the peers it hosts. The coordinator samples per-window
// completeness against the schedule's live-node count, writes
// CURVE_<scenario>.json into -curve-dir, and prints a "# chaos summary:"
// line the failure smoke gates on.
//
// With -replan (live and UDP coordinator modes) the process monitors the
// latency view for drift: when a query's deployed tree set costs more
// than -drift-threshold above what a fresh plan would, the query is
// replanned into its next epoch and migrated live — both epochs run side
// by side, tuples flow through both tree sets, and the old epoch is
// retired only after every member acks the new wiring and its
// completeness catches up (make-before-break). Each replan logs the old
// and new predicted cost; the end-of-run transport summary counts
// retired epochs.
//
// Usage:
//
//	mortard -peers 200 -duration 60s -msl query.msl
//	mortard -peers 100 -fail 0.2        # with 20% of peers disconnected
//	mortard -live -peers 50 -duration 5s
//
//	# one federation, two processes, via UDP on a shared peers file:
//	mortard -peers-file peers.txt -host 8-15 -join 127.0.0.1:9000
//	mortard -peers-file peers.txt -host 0-7 -listen 127.0.0.1:9000 -vivaldi -duration 10s
package main

import (
	"flag"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	_ "net/http/pprof"
	"os"
	goruntime "runtime"
	"strings"
	"time"

	"repro/internal/chaos"
	"repro/internal/eventsim"
	"repro/internal/federation"
	"repro/internal/gateway"
	"repro/internal/mortar"
	"repro/internal/msl"
	"repro/internal/netem"
	"repro/internal/runtime/livert"
	"repro/internal/runtime/netrt"
	"repro/internal/runtime/simrt"
	"repro/internal/tuple"
)

func main() {
	var (
		peers    = flag.Int("peers", 100, "federation size")
		duration = flag.Duration("duration", 30*time.Second, "run time (virtual, or real with -live / -peers-file)")
		program  = flag.String("msl", "", "MSL program file (default: a count query)")
		fail     = flag.Float64("fail", 0, "fraction of peers to disconnect mid-run")
		seed     = flag.Int64("seed", 1, "random seed")
		live     = flag.Bool("live", false, "run peers as goroutines on the live runtime instead of the simulator")
		loss     = flag.Float64("loss", 0.01, "live transport loss probability (-live only)")
		dup      = flag.Float64("dup", 0, "live transport control-plane duplication probability (-live only)")
		peersFil = flag.String("peers-file", "", "UDP mode: peer address directory, one host:port per line")
		host     = flag.String("host", "", "UDP mode: peer range this process hosts, e.g. 0-15")
		listen   = flag.String("listen", "", "UDP mode, coordinator: TCP address to accept worker joins on")
		join     = flag.String("join", "", "UDP mode, worker: coordinator TCP address to join")
		vivaldiM = flag.Bool("vivaldi", false, "UDP mode: run decentralized Vivaldi — every process gossips coordinates, the coordinator plans from them (no coordinator-local probing) and logs convergence")
		mtu      = flag.Int("mtu", 0, "UDP mode: datagram MTU — frames that do not fit are fragmented, NACK-repaired, and reassembled (0 = netrt default, 1400)")
		pace     = flag.Int("pace", 0, "UDP mode: outgoing token-bucket rate in bytes/sec per local peer (0 = netrt default, 8 MiB/s; negative = unpaced)")
		height   = flag.Bool("vivaldi-height", false, "UDP mode: embed with Vivaldi height-vector coordinates (models access-link latency; all processes must agree)")
		replan   = flag.Bool("replan", false, "coordinator: monitor the embedding for drift and live-replan queries into new epochs (make-before-break migration)")
		driftThr = flag.Float64("drift-threshold", 0.25, "with -replan: relative cost degradation of the deployed plan versus a fresh candidate that triggers a replan")
		coalesce = flag.Bool("coalesce", false, "UDP mode: batch small frames to one remote socket into coalesced train datagrams")
		probeRds = flag.Int("probe-rounds", 5, "UDP mode, coordinator without -vivaldi: ProbeAll rounds before planning (0 skips probing — planning falls back to default latencies; use at scales where all-pairs probing is prohibitive)")
		pprofA   = flag.String("pprof", "", "serve net/http/pprof on this address (e.g. localhost:6060) for hot-path profiles during scale runs")
		serve    = flag.String("serve", "", "HTTP serving plane address (e.g. localhost:8080): install/list/remove queries and stream results over JSON — -live or UDP coordinator mode; with no -msl the federation starts empty and every query arrives over HTTP")
		genPeers = flag.String("gen-peers-file", "", "write a ranged peers file for -peers peers multiplexed -peers-per-socket per address starting at -base-port, then exit")
		perSock  = flag.Int("peers-per-socket", 1, "with -gen-peers-file: peers multiplexed behind each host:port")
		basePort = flag.Int("base-port", 9000, "with -gen-peers-file: first UDP port to assign")
		chaosF   = flag.String("chaos", "", "fault schedule JSON to replay against the running federation (-live or UDP mode; every process of a UDP run passes the same file)")
		curveDir = flag.String("curve-dir", ".", "with -chaos: directory the coordinator writes CURVE_<scenario>.json into")
	)
	flag.Parse()
	if err := checkMode(*peersFil != "", *live, *fail, *serve != "", *chaosF != ""); err != nil {
		fatal(err)
	}

	if *pprofA != "" {
		go func() {
			if err := http.ListenAndServe(*pprofA, nil); err != nil {
				fmt.Fprintf(os.Stderr, "# pprof server: %v\n", err)
			}
		}()
		fmt.Printf("# pprof listening on %s\n", *pprofA)
	}
	if *genPeers != "" {
		if err := writePeersFile(*genPeers, *peers, *perSock, *basePort); err != nil {
			fatal(err)
		}
		return
	}

	// With -serve and no -msl the federation starts empty: every query
	// arrives through the gateway. Otherwise the default count query keeps
	// the no-flag invocation doing something observable.
	var prog *msl.Program
	var err error
	if *program != "" {
		b, rerr := os.ReadFile(*program)
		if rerr != nil {
			fatal(rerr)
		}
		if prog, err = msl.Parse(string(b)); err != nil {
			fatal(err)
		}
	} else if *serve == "" {
		src := "query peers as count() from sensors window time 1s slide 1s trees 4 bf 16"
		if prog, err = msl.Parse(src); err != nil {
			fatal(err)
		}
	}

	var sched *chaos.Schedule
	if *chaosF != "" {
		if sched, err = chaos.Load(*chaosF); err != nil {
			fatal(err)
		}
	}

	rng := rand.New(rand.NewSource(*seed))
	if *peersFil != "" {
		runNet(prog, rng, *peersFil, *host, *listen, *join, *duration,
			netrt.Options{Seed: *seed, MTU: *mtu, Pace: *pace, VivaldiHeight: *height, Coalesce: *coalesce},
			*vivaldiM, *replan, *driftThr, *probeRds, *serve, sched, *curveDir)
		return
	}
	if *live {
		runLive(prog, rng, *peers, *duration, *fail, *seed, *loss, *dup, *replan, *driftThr, *serve, sched, *curveDir)
		return
	}

	sim := eventsim.New(*seed)
	topo := netem.GenerateTransitStub(netem.PaperTopology(*peers), rng)
	net := netem.New(sim, topo)
	fed, err := federation.NewRuntime(simrt.New(net), prog, rng)
	if err != nil {
		fatal(err)
	}
	fed.PrintResults(os.Stdout)
	fed.StartSensors(time.Second, func(peer int) tuple.Raw {
		return tuple.Raw{Vals: []float64{1}}
	}, rng)

	if *fail > 0 {
		sim.After(*duration/3, func() {
			n := int(*fail * float64(*peers))
			fmt.Printf("# t=%v disconnecting %d peers\n", sim.Now(), n)
			fed.FailRandom(n, rng)
		})
		sim.After(2**duration/3, func() {
			fmt.Printf("# t=%v reconnecting all peers\n", sim.Now())
			fed.RecoverAll()
		})
	}
	sim.RunUntil(*duration)
}

// checkMode refuses a flag the chosen backend would silently ignore: udp is
// the -peers-file mode, live the -live mode, neither the simulator.
func checkMode(udp, live bool, fail float64, serve, chaos bool) error {
	sim := !udp && !live
	switch {
	case udp && fail > 0:
		return fmt.Errorf("mortard: -fail does not reach across processes (-peers-file); script failures with a -chaos schedule every process replays")
	case sim && serve:
		return fmt.Errorf("mortard: -serve needs a wall-clock backend (-live or -peers-file); the simulator compresses virtual time")
	case sim && chaos:
		return fmt.Errorf("mortard: -chaos needs a wall-clock backend (-live or -peers-file); the simulator has its own scripted failures via -fail")
	}
	return nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, err)
	os.Exit(1)
}

// writePeersFile emits a ranged peers file multiplexing perSock consecutive
// peers behind each 127.0.0.1 port from basePort up — the -peers-file every
// process of a scale run shares.
func writePeersFile(path string, peers, perSock, basePort int) error {
	if peers <= 0 || perSock <= 0 || basePort <= 0 || basePort > 65535 {
		return fmt.Errorf("mortard: -gen-peers-file needs positive -peers, -peers-per-socket, and a valid -base-port")
	}
	var b strings.Builder
	fmt.Fprintf(&b, "# %d peers, %d per socket, ports from %d\n", peers, perSock, basePort)
	port := basePort
	for lo := 0; lo < peers; lo += perSock {
		hi := lo + perSock - 1
		if hi >= peers {
			hi = peers - 1
		}
		if port > 65535 {
			return fmt.Errorf("mortard: -gen-peers-file runs past port 65535 (lower -peers or raise -peers-per-socket)")
		}
		fmt.Fprintf(&b, "127.0.0.1:%d %d-%d\n", port, lo, hi)
		port++
	}
	if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
		return err
	}
	fmt.Printf("# wrote %s: %d peers over %d sockets\n", path, peers, port-basePort)
	return nil
}

// startGateway serves the HTTP plane over fed on addr, returning a
// shutdown func.
func startGateway(fed *federation.Federation, addr string) func() {
	gw := gateway.NewServer(fed, gateway.Options{})
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		fatal(err)
	}
	srv := &http.Server{Handler: gw}
	fmt.Printf("# gateway listening on http://%s\n", ln.Addr())
	go srv.Serve(ln)
	return func() {
		srv.Close()
		gw.Close()
	}
}

// startChaos replays sched against inj while sampling fed's root
// completeness against the schedule-truth live count. The returned stop
// func ends the replay, writes CURVE_<scenario>.json into curveDir, and
// prints the summary line the smoke gates parse.
func startChaos(fed *federation.Federation, inj chaos.Injector, sched *chaos.Schedule, curveDir string) func() {
	runner, err := chaos.Start(inj, sched)
	if err != nil {
		fatal(err)
	}
	watch := fed.WatchCompleteness("")
	rec := chaos.NewRecorder(sched.Scenario, inj.NumPeers(), sched.SamplePeriod(), chaos.Probe{
		Live:         runner.Live,
		Completeness: watch.Latest,
	})
	rec.Start()
	if fStart, fEnd, ok := chaos.FaultSpan(runner.Actions()); ok {
		fmt.Printf("# chaos: scenario=%s actions=%d fault_span=%v..%v\n",
			sched.Scenario, len(runner.Actions()), fStart, fEnd)
	} else {
		fmt.Printf("# chaos: scenario=%s actions=%d (no gate faults)\n",
			sched.Scenario, len(runner.Actions()))
	}
	return func() {
		runner.Stop()
		rec.Stop()
		watch.Close()
		fs, fe, _ := runner.FaultSpan()
		curve := rec.Curve(fs, fe)
		path, err := curve.WriteFile(curveDir)
		if err != nil {
			fmt.Fprintf(os.Stderr, "# chaos: writing curve: %v\n", err)
			path = "<unwritten>"
		}
		fmt.Printf("# chaos summary: scenario=%s baseline=%d fault_min=%d min_live=%d recovered=%d samples=%d curve=%s\n",
			curve.Scenario, curve.Summary.Baseline, curve.Summary.FaultMin,
			curve.Summary.MinLive, curve.Summary.Recovered, len(curve.Samples), path)
	}
}

// startChaosWorker replays sched against a worker process's runtime: the
// expansion is identical to the coordinator's (same schedule, same seed),
// the locality filter gates only the peers this process hosts, and no
// measurement runs — completeness is sampled at the root.
func startChaosWorker(inj chaos.Injector, sched *chaos.Schedule) func() {
	runner, err := chaos.Start(inj, sched)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("# chaos: worker replaying scenario=%s actions=%d\n", sched.Scenario, len(runner.Actions()))
	return runner.Stop
}

// runLive executes the same program on the goroutine-per-peer runtime and
// sleeps through real time instead of stepping a simulator.
func runLive(prog *msl.Program, rng *rand.Rand, peers int, duration time.Duration, fail float64, seed int64, loss, dup float64, replan bool, driftThr float64, serve string, sched *chaos.Schedule, curveDir string) {
	rt := livert.New(peers, livert.Options{
		Seed:     seed,
		MinDelay: 500 * time.Microsecond,
		MaxDelay: 10 * time.Millisecond,
		Loss:     loss,
		CtrlDup:  dup,
	})
	fed, err := federation.NewRuntime(rt, prog, rng)
	if err != nil {
		fatal(err)
	}
	var mon *federation.Monitor
	if replan {
		mon = startReplanMonitor(fed, driftThr)
	}
	if serve != "" {
		defer startGateway(fed, serve)()
	}
	fed.PrintResults(os.Stdout)
	fed.StartSensors(time.Second, func(peer int) tuple.Raw {
		return tuple.Raw{Vals: []float64{1}}
	}, rng)
	stopSampler := startDataPathSampler(fed.Fab)

	// The fabric is the live backend's injector: single process, so every
	// peer is local and the transport gates resolve in-process.
	var stopChaos func()
	if sched != nil {
		stopChaos = startChaos(fed, fed.Fab, sched, curveDir)
	}
	if fail > 0 {
		time.Sleep(duration / 3)
		n := int(fail * float64(peers))
		fmt.Printf("# disconnecting %d peers\n", n)
		fed.FailRandom(n, rng)
		time.Sleep(duration / 3)
		fmt.Println("# reconnecting all peers")
		fed.RecoverAll()
		time.Sleep(duration - 2*(duration/3))
	} else {
		time.Sleep(duration)
	}
	if mon != nil {
		mon.Stop() // before Shutdown, so no poll races a dead runtime
	}
	if stopChaos != nil {
		stopChaos()
	}
	rt.Shutdown()
	sent, delivered, dropped, duplicated := rt.Stats()
	fmt.Printf("# live transport: sent=%d delivered=%d dropped=%d duplicated=%d epochs_retired=%d\n",
		sent, delivered, dropped, duplicated, fed.Fab.Stats.EpochsRetired.Load())
	fmt.Printf("# fabric bytes: ctl=%d data=%d shared_ctl=%d\n",
		fed.Fab.Stats.ControlBytes.Load(), fed.Fab.Stats.DataBytes.Load(), fed.Fab.Stats.SharedCtlBytes.Load())
	printDataPathStats(fed.Fab, stopSampler())
}

// startDataPathSampler samples the fabric's tuple-ingest counter once a
// second and returns a stop function reporting the peak one-second rate —
// the run's best sustained ingest throughput. The returned function must be
// called exactly once, before printing the run summary.
func startDataPathSampler(fab *mortar.Fabric) func() float64 {
	done := make(chan struct{})
	peak := make(chan uint64, 1)
	go func() {
		tick := time.NewTicker(time.Second)
		defer tick.Stop()
		last := fab.Stats.TuplesIngested.Load()
		var best uint64
		for {
			select {
			case <-done:
				peak <- best
				return
			case <-tick.C:
				cur := fab.Stats.TuplesIngested.Load()
				if d := cur - last; d > best {
					best = d
				}
				last = cur
			}
		}
	}()
	return func() float64 {
		close(done)
		return float64(<-peak)
	}
}

// printDataPathStats emits the data-plane summary line: tuples ingested,
// the mailbox hops that carried them (their ratio is the batching factor),
// time-space list activity, and the peak sustained ingest rate.
func printDataPathStats(fab *mortar.Fabric, peakRate float64) {
	fmt.Printf("# data path: tuples=%d batches=%d ts_inserts=%d ts_merges=%d peak_rate=%.0f tuples/s\n",
		fab.Stats.TuplesIngested.Load(), fab.Stats.IngestBatches.Load(),
		fab.DataPath.Inserts.Load(), fab.DataPath.Merges.Load(), peakRate)
	staged := fab.Stats.SummariesStaged.Load()
	coalesced := fab.Stats.SummariesCoalesced.Load()
	batchFrames := fab.Stats.BatchFrames.Load()
	batched := fab.Stats.BatchedSummaries.Load()
	fmt.Printf("# summary path: staged=%d coalesced=%d data_frames=%d batch_frames=%d batched=%d frames_saved=%d\n",
		staged, coalesced, fab.Stats.DataFrames.Load(), batchFrames, batched,
		coalesced+batched-batchFrames)
}

// startReplanMonitor arms drift-triggered live replanning, logging every
// migration's cost delta.
func startReplanMonitor(fed *federation.Federation, driftThr float64) *federation.Monitor {
	return fed.StartMonitor(federation.MonitorOptions{
		Threshold: driftThr,
		OnReplan: func(r federation.ReplanResult) {
			fmt.Printf("# replan query=%s epoch=%d cost %.2fms -> %.2fms (from_coords=%v)\n",
				r.Query, r.Epoch,
				float64(r.OldCost)/float64(time.Millisecond),
				float64(r.NewCost)/float64(time.Millisecond),
				r.FromCoords)
		},
		OnError: func(query string, err error) {
			fmt.Printf("# replan query=%s FAILED: %v\n", query, err)
		},
	})
}

// runNet executes the program across separate processes over UDP: this
// process binds sockets for the peers in hostSpec and either coordinates
// (hosts peer 0) or works until the coordinator hangs up. With vivaldiOn,
// every process runs decentralized Vivaldi: coordinates spread on probe
// gossip and heartbeats, and the coordinator plans from the gossiped
// embedding instead of its own probes.
func runNet(prog *msl.Program, rng *rand.Rand, peersFile, hostSpec, listen, join string, duration time.Duration, opt netrt.Options, vivaldiOn, replan bool, driftThr float64, probeRounds int, serve string, sched *chaos.Schedule, curveDir string) {
	dir, err := netrt.LoadDirectory(peersFile)
	if err != nil {
		fatal(err)
	}
	if hostSpec == "" {
		fatal(fmt.Errorf("mortard: -peers-file requires -host (the peer range this process binds)"))
	}
	local, err := netrt.ParseRange(hostSpec, len(dir))
	if err != nil {
		fatal(err)
	}
	rt, err := netrt.New(dir, local, opt)
	if err != nil {
		fatal(err)
	}
	defer rt.Shutdown()

	if !rt.Local(0) {
		if serve != "" {
			fatal(fmt.Errorf("mortard: -serve runs on the coordinator (the process hosting peer 0)"))
		}
		runNetWorker(rt, join, duration, vivaldiOn, sched)
		return
	}

	// Coordinator: wait for workers, learn latencies, plan, install, run.
	var workers []net.Conn
	if listen != "" {
		workers, err = netrt.AwaitWorkers(listen, local, len(dir), 2*time.Minute)
		if err != nil {
			fatal(err)
		}
		defer func() {
			for _, c := range workers {
				c.Close() // hang-up tells workers the run is over
			}
		}()
	}
	if vivaldiOn {
		// The paper let Vivaldi run "for at least ten rounds before
		// interconnecting operators"; log convergence as the embedding
		// settles against the RTTs measured under the gossip.
		fmt.Printf("# coordinator hosting %d of %d peers; gossiping Vivaldi coordinates\n", len(local), len(dir))
		for round := 1; round <= 10; round++ {
			rt.Gossip(1, 0, 100*time.Millisecond)
			med, pairs := rt.CoordError()
			fmt.Printf("# vivaldi round %d: median |coord dist - measured| = %.3fms over %d pairs\n", round, med, pairs)
		}
	} else if probeRounds > 0 {
		fmt.Printf("# coordinator hosting %d of %d peers; probing RTTs\n", len(local), len(dir))
		rt.ProbeAll(probeRounds, 100*time.Millisecond)
	} else {
		// At scales where all-pairs probing is prohibitive the planner falls
		// back to uniform default latencies (coordinator-local embedding).
		fmt.Printf("# coordinator hosting %d of %d peers; probing skipped, planning from default latencies\n", len(local), len(dir))
	}
	fed, err := federation.NewRuntime(rt, prog, rng)
	if err != nil {
		fatal(err)
	}
	if vivaldiOn {
		fmt.Printf("# planned from gossiped coordinates: %v\n", fed.PlannedFromCoords)
	}
	var mon *federation.Monitor
	if replan {
		// The monitor needs the coordinator's view of the embedding to
		// keep tracking the network, so gossip continues in the
		// background for the whole run.
		go rt.Gossip(int(duration/(500*time.Millisecond))+10, 3, 500*time.Millisecond)
		mon = startReplanMonitor(fed, driftThr)
	}
	if serve != "" {
		defer startGateway(fed, serve)()
	}
	fed.PrintResults(os.Stdout)
	fed.StartSensors(time.Second, func(peer int) tuple.Raw {
		return tuple.Raw{Vals: []float64{1}}
	}, rng)
	stopSampler := startDataPathSampler(fed.Fab)
	// The runtime is the injector: its locality filter gates only the
	// peers this process hosts, while workers replay the same schedule
	// over theirs.
	var stopChaos func()
	if sched != nil {
		stopChaos = startChaos(fed, rt, sched, curveDir)
	}
	time.Sleep(duration)
	if mon != nil {
		mon.Stop() // before Shutdown, so no poll races a dead runtime
	}
	if stopChaos != nil {
		stopChaos()
	}
	rt.Shutdown()
	sent, delivered, dropped := rt.Stats()
	fs := rt.FragStats()
	ns := rt.NetStats()
	fmt.Printf("# udp transport: sent=%d delivered=%d dropped=%d frag streams=%d frags=%d retrans=%d nacks=%d reassembled=%d epochs_retired=%d\n",
		sent, delivered, dropped, fs.StreamsSent, fs.FragsSent, fs.Retransmits, fs.NacksSent, fs.Reassembled,
		fed.Fab.Stats.EpochsRetired.Load())
	fmt.Printf("# udp sockets: sockets=%d datagrams=%d trains=%d train_frames=%d\n",
		ns.Sockets, ns.Datagrams, ns.Trains, ns.TrainFrames)
	wctl, wdata := rt.ClassBytes()
	fmt.Printf("# udp class bytes: ctl=%d data=%d (fabric ctl=%d data=%d shared_ctl=%d)\n",
		wctl, wdata,
		fed.Fab.Stats.ControlBytes.Load(), fed.Fab.Stats.DataBytes.Load(), fed.Fab.Stats.SharedCtlBytes.Load())
	printDataPathStats(fed.Fab, stopSampler())
	var ms goruntime.MemStats
	goruntime.ReadMemStats(&ms)
	fmt.Printf("# memstats: heap_alloc=%dKiB total_alloc=%dKiB mallocs=%d gc=%d\n",
		ms.HeapAlloc>>10, ms.TotalAlloc>>10, ms.Mallocs, ms.NumGC)
	if vivaldiOn {
		med, pairs := rt.CoordError()
		fmt.Printf("# vivaldi final: median |coord dist - measured| = %.3fms over %d pairs\n", med, pairs)
	}
}

// runNetWorker hosts a peer range: sensors feed the local peers, operators
// arrive over the network via install multicast and reconciliation. Under
// -vivaldi the worker keeps gossiping its coordinate in the background so
// the federation's embedding tracks the network for the whole run.
func runNetWorker(rt *netrt.Runtime, join string, duration time.Duration, vivaldiOn bool, sched *chaos.Schedule) {
	fed, err := federation.NewWorker(rt)
	if err != nil {
		fatal(err)
	}
	if vivaldiOn {
		go rt.Gossip(int(duration/(500*time.Millisecond))+10, 3, 500*time.Millisecond)
	}
	rng := rand.New(rand.NewSource(time.Now().UnixNano()))
	fed.StartSensors(time.Second, func(peer int) tuple.Raw {
		return tuple.Raw{Vals: []float64{1}}
	}, rng)
	if sched != nil {
		defer startChaosWorker(rt, sched)()
	}
	locals := rt.LocalPeers()
	fmt.Printf("# worker hosting peers %d..%d\n", locals[0], locals[len(locals)-1])
	if join == "" {
		time.Sleep(duration)
		return
	}
	conn, err := netrt.JoinBarrier(join, locals, 30*time.Second)
	if err != nil {
		fatal(err)
	}
	// Block until the coordinator hangs up (end of run), with a fallback
	// in case it never does.
	netrt.WaitHangup(conn, duration+time.Minute)
}
