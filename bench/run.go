package main

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/bench/measure"
	"repro/internal/chaos"
	"repro/internal/mortar"
	"repro/internal/plan"
	"repro/internal/runtime/netrt"
	"repro/internal/tslist"
)

// phases are the lengths of one run's stages. A run builds the workload's
// federation three times and measures each for a third of --seconds: every
// figure it reports is the median of three independent federations, so one
// of them knocked into another timing regime by a stall of the box (see
// bench/README.md) does not move the run's figure.
type phases struct {
	setups int           // federations built
	pieces int           // federations measured: the last so many of those built
	quiet  time.Duration // cap on the wait for the set-up's tuples to clear
	settle time.Duration // least wait before accounting (churn: failure detection)
	warm   time.Duration // accounted, unmeasured
	span   time.Duration // measured, per federation
	drain  time.Duration // cap on the drain after the generator stops
}

func planPhases(sp *spec, seconds int, traced, short bool) phases {
	p := phases{setups: 3, pieces: 3, quiet: 6 * time.Second, warm: time.Second,
		span: time.Duration(seconds) * time.Second, drain: 5 * time.Second}
	if sp.churn {
		// The kills land as set-up ends; accounting waits until every
		// survivor has timed its dead neighbours out (LivenessMultiple x
		// HeartbeatPeriod = 5 s at the defaults). Three such waits do not
		// fit a run; the last two federations are measured, for half of
		// --seconds each. How much a federation loses to the same faults
		// differs from one to the next by more than it does between seeds
		// (mass 0.67 to 0.89), so one federation a run was too few.
		p.pieces, p.settle = 2, 5500*time.Millisecond
	}
	if sp.closedLoop {
		// The saturated peers' per-window buffers, and the heap with them,
		// grow for about 1.6 s; the first second after a 1 s warm-up read a
		// fifth slower than the rest.
		p.warm = 2 * time.Second
	}
	if traced {
		// The traced run is shorter: the probes it runs afterwards take the
		// rest of the time the driver allots a run.
		p.span = p.span * 6 / 10
	}
	if short {
		p.setups, p.pieces, p.warm, p.span = 1, 1, 500*time.Millisecond, min(p.span, 3*time.Second)
	}
	p.span /= time.Duration(p.pieces)
	return p
}

// counters is one reading of every public counter the run reports deltas
// of, taken at the edges of the measured span.
type counters struct {
	at       time.Time
	cpu      time.Duration
	tuples   uint64
	fab      fabStats
	dp       [2]uint64 // tslist inserts, merges
	net      netrt.NetStats
	frag     netrt.FragStats
	netSent  uint64
	netDrop  uint64
	wireCtl  uint64
	wireData uint64
	liveSent uint64
	liveDrop uint64
}

type fabStats struct {
	late, dropped, relayed, flexDown, ctl, data, shared      uint64
	tuples, batches, staged, coalesced, frames, bFrames, bSm uint64
}

func readFab(s *mortar.Stats) fabStats {
	return fabStats{
		late: s.LateAtRoot.Load(), dropped: s.Dropped.Load(), relayed: s.Relayed.Load(),
		flexDown: s.FlexDownHops.Load(), ctl: s.ControlBytes.Load(), data: s.DataBytes.Load(),
		shared: s.SharedCtlBytes.Load(), tuples: s.TuplesIngested.Load(), batches: s.IngestBatches.Load(),
		staged: s.SummariesStaged.Load(), coalesced: s.SummariesCoalesced.Load(),
		frames: s.DataFrames.Load(), bFrames: s.BatchFrames.Load(), bSm: s.BatchedSummaries.Load(),
	}
}

func readDataPath(c *tslist.Counters) [2]uint64 {
	return [2]uint64{c.Inserts.Load(), c.Merges.Load()}
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

func (f *fedn) read() counters {
	c := counters{at: time.Now(), cpu: cpuTime(), tuples: f.in.tuples.Load(),
		fab: readFab(&f.fed.Fab.Stats), dp: readDataPath(&f.fed.Fab.DataPath)}
	if f.net != nil {
		c.net, c.frag = f.net.NetStats(), f.net.FragStats()
		c.netSent, _, c.netDrop = f.net.Stats()
		c.wireCtl, c.wireData = f.net.ClassBytes()
	} else {
		c.liveSent, _, c.liveDrop, _ = f.live.Stats()
	}
	return c
}

// churnSchedule derives the churn-lossy fault script from the seed. Time
// zero is the end of set-up: the loss applies from then on and the
// kills land at once, so that accounting, which starts `settle` later, sees
// routing around the failures rather than the seconds in which children
// still send to dead parents. One in five peers
// of each level of the primary tree is fail-stopped (which ones is the
// seed's choice; how much of the tree they take with them is not), and
// every second victim, level by level, is restarted, staggered, halfway
// through the measured span.
func churnSchedule(seed int64, tree *plan.Tree, ph phases) *chaos.Schedule {
	rng := rand.New(rand.NewSource(seed ^ 0x636875726e))
	byLevel := map[int][]int{}
	depth := 0
	for p, l := range tree.Level {
		if p != tree.Root { // peer 0 hosts the roots and is never killed
			byLevel[l] = append(byLevel[l], p)
			depth = max(depth, l)
		}
	}
	var victims, back []int
	for l := 1; l <= depth; l++ {
		peers := byLevel[l]
		rng.Shuffle(len(peers), func(i, j int) { peers[i], peers[j] = peers[j], peers[i] })
		victims = append(victims, peers[:int(math.Round(churnKillFrac*float64(len(peers))))]...)
	}
	for i := 0; i < len(victims); i += 2 {
		back = append(back, victims[i])
	}
	return &chaos.Schedule{Scenario: "churn-lossy", Seed: seed, Events: []chaos.Event{
		{Kind: chaos.KindLossRamp, AtMs: 0, UntilMs: 1, From: churnLoss, To: churnLoss, StepMs: 1},
		{Kind: chaos.KindKill, AtMs: 0, Peers: victims},
		{Kind: chaos.KindRecover, AtMs: (ph.settle + ph.warm + ph.span/2).Milliseconds(), Peers: back, StaggerMs: churnStaggerMs},
	}}
}

// liveTruth answers "how many peers could have contributed at t" from the
// schedule's own expansion (the transport cannot be asked: a window
// reported now was filled a second ago).
type liveTruth struct {
	n      int
	origin time.Time
	acts   []chaos.Action
}

func (l liveTruth) at(t time.Time) int {
	live := l.n
	for _, a := range l.acts {
		if a.Kind != chaos.ActKill && a.Kind != chaos.ActRecover {
			continue
		}
		if l.origin.Add(a.At).After(t) {
			break
		}
		live = a.Live
	}
	return live
}

func (l liveTruth) min() int {
	m := l.n
	for _, a := range l.acts {
		if (a.Kind == chaos.ActKill || a.Kind == chaos.ActRecover) && a.Live < m {
			m = a.Live
		}
	}
	return m
}

// measured is everything observed of one federation, before it is turned
// into metrics.
type measured struct {
	sp       *spec
	setups   []setupTimes
	begin    counters // measured span opens
	end      counters // measured span closes
	obs      []obsRec
	lines    []latLine
	opened   time.Time // result stream connected
	late     []lateSample
	truth    liveTruth
	massIn   uint64  // tuples offered between the two quiet points
	massOut  float64 // sum-tenant value reported between the two quiet points
	quietHit bool    // a wait for a quiet point hit its cap
	applied  int     // chaos actions applied
	callNs   int64
	callTup  int64
	planMs   float64 // Fabric.Compile on the deployed coordinates (traced)
	heldMB   float64 // resident set under load, after a forced collection
	lay      layout
	rec      *measure.Recorder // nil when untraced
	samples  []spanSample
}

// spanSample is one reading of the sampler that runs over the measured
// span: medians over its readings stand in for whole-span means where a
// single stall of the box would otherwise move the figure.
type spanSample struct {
	at     time.Time
	tuples uint64
}

const sampleEvery = 100 * time.Millisecond

// sampleSpan sleeps through the measured span, reading the generator's
// tuple count every sampleEvery.
func sampleSpan(in *injector, span time.Duration) []spanSample {
	var out []spanSample
	start := time.Now()
	for k := 0; ; k++ {
		out = append(out, spanSample{at: time.Now(), tuples: in.tuples.Load()})
		next := start.Add(time.Duration(k+1) * sampleEvery)
		if next.Sub(start) > span {
			time.Sleep(time.Until(start.Add(span)))
			return out
		}
		time.Sleep(time.Until(next))
	}
}

// heldMB is the resident set right after a forced collection that also
// returns freed pages to the system: what the federation holds while under
// load, without the garbage the collector had not got to yet. Plain
// readings of the resident set step with every collection that happens to
// fall in a span and with what earlier federations of the run left behind,
// and spread twice as much between runs. It falls back on the process's
// peak where /proc is not to be had.
func heldMB() float64 {
	debug.FreeOSMemory()
	b, err := os.ReadFile("/proc/self/statm")
	if err == nil {
		if fields := strings.Fields(string(b)); len(fields) >= 2 {
			if pages, err := strconv.ParseFloat(fields[1], 64); err == nil {
				return pages * float64(os.Getpagesize()) / (1 << 20)
			}
		}
	}
	return peakRSSMB()
}

// waitQuiet blocks until every sum tenant's newest report, made after
// `since`, carries no value although an earlier one did — the root reports
// windows in order and drops stragglers for reported ones, so from then on
// no mass offered before `since` can still be counted — or until the cap.
// It returns the summed sum-tenant value reported so far and whether the
// cap was hit.
func waitQuiet(f *fedn, since time.Time, limit time.Duration) (mass float64, capped bool) {
	type state struct{ sawMass, quiet bool }
	sums := map[int]*state{}
	for _, i := range f.sp.sumTenants() {
		sums[i] = &state{}
	}
	deadline := time.Now().Add(limit)
	for {
		mass = 0
		for _, st := range sums {
			*st = state{}
		}
		for _, r := range f.obs.snapshot() { // in report order
			st := sums[r.tenant]
			if st == nil {
				continue
			}
			mass += r.value
			st.sawMass = st.sawMass || r.value > 0
			st.quiet = st.sawMass && r.value == 0 && r.t1.After(since)
		}
		quiet := true
		for _, st := range sums {
			quiet = quiet && st.quiet
		}
		if quiet {
			return mass, false
		}
		if time.Now().After(deadline) {
			return mass, true
		}
		time.Sleep(25 * time.Millisecond)
	}
}

// runResult is one run: every set-up's timings, the measured federations,
// and (traced) the probes.
type runResult struct {
	sp     *spec
	ph     phases
	setups []setupTimes
	parts  []*measured
	probes *probeSet         // nil when untraced
	rec    *measure.Recorder // nil when untraced
}

// runOnce performs one whole run of a workload.
func runOnce(sp *spec, seed int64, seconds int, traced, short bool, epoch time.Time) (*runResult, error) {
	res := &runResult{sp: sp, ph: planPhases(sp, seconds, traced, short)}
	if traced {
		res.rec = &measure.Recorder{Epoch: epoch}
		var err error
		if res.probes, err = newProbes(res.rec); err != nil {
			return nil, err
		}
		defer res.probes.close()
	}
	for k := 0; k < res.ph.setups; k++ {
		f, err := openFederation(sp, k, seed, epoch, res.rec)
		if err != nil {
			return nil, err
		}
		res.setups = append(res.setups, f.setup)
		if k < res.ph.setups-res.ph.pieces {
			f.close()
			continue
		}
		m, err := measureFederation(f, res, seed, epoch)
		f.close()
		if err != nil {
			return nil, err
		}
		res.parts = append(res.parts, m)
	}
	if traced {
		res.probes.runMicro(sp, seed)
	}
	return res, nil
}

// measureFederation takes one set-up federation through quiet point,
// accounted run, measured span and drain, and returns what it observed.
// The caller closes the federation.
func measureFederation(f *fedn, res *runResult, seed int64, epoch time.Time) (*measured, error) {
	sp, ph := f.sp, res.ph
	m := &measured{sp: sp, rec: res.rec, truth: liveTruth{n: sp.peers, origin: f.primed}}
	if sp.churn {
		runner, err := chaos.Start(f.net, churnSchedule(seed, f.primaryTree(), ph))
		if err != nil {
			return nil, fmt.Errorf("chaos: %w", err)
		}
		defer func() {
			m.applied = runner.Applied()
			runner.Stop()
		}()
		m.truth.origin, m.truth.acts = runner.StartedAt(), runner.Actions()
	}
	// First quiet point: the set-up's one round of tuples has been
	// reported, so mass conservation is exact over what follows.
	mass0, capped := waitQuiet(f, f.primed, ph.quiet)
	m.quietHit = capped
	time.Sleep(time.Until(m.truth.origin.Add(ph.settle)))

	stream, err := openLatStream(f.url)
	if err != nil {
		return nil, err
	}
	m.opened = stream.opened
	if res.probes != nil {
		res.probes.startLive(f)
	}
	go f.in.run()
	time.Sleep(ph.warm)
	m.begin = f.read()
	m.samples = sampleSpan(f.in, ph.span)
	m.end = f.read()
	m.heldMB = heldMB()
	f.in.halt()
	runEnd := time.Now()
	if res.probes != nil {
		res.probes.stopLive()
	}
	mass1, capped := waitQuiet(f, runEnd, ph.drain)
	m.quietHit = m.quietHit || capped
	if m.lines, err = stream.close(); err != nil {
		return nil, fmt.Errorf("result stream: %w", err)
	}
	m.obs, m.late = f.obs.snapshot(), f.in.lateSamples()
	m.massIn, m.massOut = f.in.tuples.Load(), mass1-mass0
	m.callNs, m.callTup = f.in.callNs.Load(), f.in.callTuples.Load()
	m.lay = f.layout()
	if res.rec != nil {
		m.planMs = planProbe(f, seed)
		m.recordWindowSpans(f, epoch)
	}
	return m, nil
}

// firstLines indexes the stream's lines by window, keeping the first of
// any the gateway sent twice.
func firstLines(lines []latLine) map[int64]latLine {
	first := make(map[int64]latLine, len(lines))
	for _, l := range lines {
		if _, dup := first[l.window]; !dup {
			first[l.window] = l
		}
	}
	return first
}

// recordWindowSpans adds the per-window spans of a traced run after the
// fact, from the stamps the observer and the stream reader took anyway:
// mortar.window from the newest contributing event (t0) to the root's
// report (t1), and under it gateway.deliver from the report to the line
// the client read (t2). Only lat windows carry a t0.
func (m *measured) recordWindowSpans(f *fedn, epoch time.Time) {
	read := firstLines(m.lines)
	for _, r := range m.obs {
		if m.sp.tenants[r.tenant].name != latName || !r.hasValue || r.t1.Before(m.opened) {
			continue
		}
		id := f.id(latName + "/" + strconv.FormatInt(r.window, 10))
		m.rec.Add("mortar.window", id, "", epoch.Add(time.Duration(r.value*1e3)), r.t1)
		if l, ok := read[r.window]; ok {
			m.rec.Add("gateway.deliver", id+"/deliver", id, r.t1, l.t2)
		}
	}
}

// medianSetup returns the set-up whose total is the median of the run's.
func medianSetup(all []setupTimes) setupTimes {
	s := append([]setupTimes(nil), all...)
	sort.Slice(s, func(i, j int) bool { return s[i].total < s[j].total })
	return s[len(s)/2]
}
