package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"strconv"
	"sync"
	"time"

	"repro/bench/measure"
	"repro/internal/federation"
	"repro/internal/gateway"
	"repro/internal/mortar"
	"repro/internal/plan"
	"repro/internal/runtime"
	"repro/internal/runtime/livert"
	"repro/internal/runtime/netrt"
	"repro/internal/tuple"
)

// topology is the seed-derived synthetic latency map of the UDP workloads:
// peers sit at random points of a 40 ms square and a datagram's one-way
// delay is 1 ms plus the distance, so 1 to about 57 ms.
type topology struct{ x, y []float64 }

func newTopology(seed int64, n int) *topology {
	rng := rand.New(rand.NewSource(seed ^ 0x746f706f))
	t := &topology{x: make([]float64, n), y: make([]float64, n)}
	for i := 0; i < n; i++ {
		t.x[i], t.y[i] = 40*rng.Float64(), 40*rng.Float64()
	}
	return t
}

func (t *topology) delay(from, to int) time.Duration {
	ms := 1 + math.Hypot(t.x[from]-t.x[to], t.y[from]-t.y[to])
	return time.Duration(ms * float64(time.Millisecond))
}

// setupTimes are the spans of one federation set-up, in order; their sum
// is the set-up time, less the few lines between the spans.
type setupTimes struct {
	groupBuild, gossip, open, install, httpInstall, wired, firstWindow, total time.Duration
}

// obsRec is one root report as the bench's own subscriber saw it.
type obsRec struct {
	tenant int
	window int64
	count  int
	hops   int
	age    time.Duration
	value  float64
	// hasValue is false for a window no raw tuple reached (boundary only).
	hasValue bool
	t1       time.Time
}

// observer is the bench's Fabric.SubscribeAll subscriber. It runs on the
// root peer's report path, so it only stamps and appends.
type observer struct {
	index map[string]int
	full  int

	mu       sync.Mutex
	recs     []obsRec
	fullSeen []bool
	allFull  chan struct{}
}

func newObserver(tenants []tenant, full int) *observer {
	o := &observer{index: map[string]int{}, full: full,
		fullSeen: make([]bool, len(tenants)), allFull: make(chan struct{})}
	for i, t := range tenants {
		o.index[t.name] = i
	}
	return o
}

func (o *observer) onResult(r mortar.Result) {
	t1 := time.Now()
	i, ok := o.index[r.Query]
	if !ok {
		return
	}
	v, _ := r.Value.(float64)
	o.mu.Lock()
	o.recs = append(o.recs, obsRec{tenant: i, window: r.WindowIndex, count: r.Count,
		hops: r.Hops, age: r.Age, value: v, hasValue: r.Value != nil, t1: t1})
	if r.Count >= o.full && !o.fullSeen[i] {
		o.fullSeen[i] = true
		done := true
		for _, s := range o.fullSeen {
			done = done && s
		}
		if done {
			close(o.allFull)
		}
	}
	o.mu.Unlock()
}

func (o *observer) snapshot() []obsRec {
	o.mu.Lock()
	defer o.mu.Unlock()
	return append([]obsRec(nil), o.recs...)
}

// fedn is one running federation with the bench's observer and gateway
// attached.
type fedn struct {
	sp   *spec
	rt   runtime.Runtime
	net  *netrt.Runtime  // nil on livert
	live *livert.Runtime // nil on netrt
	topo *topology       // nil on livert
	fed  *federation.Federation
	obs  *observer

	gw    *gateway.Server
	srv   *http.Server
	url   string
	unsub func()

	// k numbers the federations of one run; it prefixes their span ids.
	k     int
	in    *injector
	setup setupTimes
	// primed is when set-up offered its one round of tuples.
	primed time.Time
}

// id makes a span id unique across the federations of a run.
func (f *fedn) id(s string) string { return "f" + strconv.Itoa(f.k) + "/" + s }

func allPeers(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

// openFederation builds the workload's federation exactly as a deployment
// would — runtime, gossip, federation, gateway, installs — and returns once
// every tenant has reported a window at full completeness. Once the
// operators are wired it offers every peer one round of tuples: a source
// that has never produced data contributes nothing, not even a boundary
// tuple, so completeness could not otherwise reach the peer count.
func openFederation(sp *spec, k int, seed int64, epoch time.Time, rec *measure.Recorder) (*fedn, error) {
	begin := time.Now()
	f := &fedn{sp: sp, k: k}
	mark := begin
	lap := func(d *time.Duration) {
		now := time.Now()
		*d, mark = now.Sub(mark), now
	}
	if sp.udp {
		f.topo = newTopology(seed, sp.peers)
		rts, _, err := netrt.NewGroup([][]int{allPeers(sp.peers)}, netrt.Options{
			Seed: seed, PeersPerSocket: sp.peersPerSocket, PairDelay: f.topo.delay})
		if err != nil {
			return nil, fmt.Errorf("netrt group: %w", err)
		}
		f.net, f.rt = rts[0], rts[0]
		lap(&f.setup.groupBuild)
		// The paper lets Vivaldi run ten rounds before wiring operators.
		f.net.Gossip(10, 0, 100*time.Millisecond)
		lap(&f.setup.gossip)
	} else {
		f.live = livert.New(sp.peers, livert.Options{
			Seed: seed, MinDelay: 50 * time.Microsecond, MaxDelay: 200 * time.Microsecond})
		f.rt = f.live
		lap(&f.setup.groupBuild)
	}
	fed, err := federation.NewRuntimeCfg(f.rt, nil, rand.New(rand.NewSource(seed)), mortar.DefaultConfig())
	if err != nil {
		f.rt.Shutdown()
		return nil, fmt.Errorf("federation: %w", err)
	}
	f.fed = fed
	f.obs = newObserver(sp.tenants, sp.peers)
	f.unsub = fed.Fab.SubscribeAll(f.obs.onResult)
	f.gw = gateway.NewServer(fed, gateway.Options{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		f.close()
		return nil, fmt.Errorf("gateway listen: %w", err)
	}
	f.srv = &http.Server{Handler: f.gw}
	go f.srv.Serve(ln) // returns when close() closes the server
	f.url = "http://" + ln.Addr().String()
	lap(&f.setup.open)

	for _, t := range sp.tenants {
		alignClock(f.rt.Clock(0), tickGrid, 0)
		if t.name == latName {
			t0 := time.Now()
			if err := f.httpInstall(t); err != nil {
				f.close()
				return nil, err
			}
			f.setup.httpInstall = time.Since(t0)
			rec.Add("gateway.http_install", f.id("install/"+t.name), "", t0, time.Now())
			continue
		}
		t0 := time.Now()
		err := fed.InstallQuery(federation.QuerySpec{Name: t.name, Op: t.op, Args: t.args,
			FilterKey: t.filterKey, Trees: sp.trees, BF: sp.bf,
			Window: tuple.WindowSpec{Kind: tuple.TimeWindow, Range: sp.window, Slide: sp.window}})
		if err != nil {
			f.close()
			return nil, fmt.Errorf("install %s: %w", t.name, err)
		}
		rec.Add("federation.install", f.id("install/"+t.name), "", t0, time.Now())
	}
	lap(&f.setup.install)

	deadline := time.Now().Add(30 * time.Second)
	for {
		wired := true
		for _, q := range fed.Queries() {
			wired = wired && q.Wired == sp.peers
		}
		if wired {
			break
		}
		if time.Now().After(deadline) {
			f.close()
			return nil, fmt.Errorf("setup: operators not wired on all %d peers after 30s", sp.peers)
		}
		time.Sleep(20 * time.Millisecond)
	}
	lap(&f.setup.wired)
	f.in = newInjector(f, epoch, seed, rec)
	alignClock(f.rt.Clock(0), tickGrid, tickGrid/2)
	f.primed = time.Now()
	f.in.offer(f.primed)
	select {
	case <-f.obs.allFull:
	case <-time.After(time.Until(deadline)):
		f.close()
		return nil, fmt.Errorf("setup: no window at full completeness from every tenant after 30s")
	}
	lap(&f.setup.firstWindow)
	f.setup.total = time.Since(begin)
	return f, nil
}

// tickGrid is the grid both window boundaries and generator ticks are
// placed on. A query's windows close at its issue time plus whole slides,
// and every slide is a whole number of grid steps, so issuing every
// install on a grid line and offering every tick half a step off it keeps
// tuple arrivals clear of window boundaries for the whole run. That
// matters because of a defect this benchmark found: a raw tuple arriving
// after a slide boundary but before the peer's (always slightly late)
// close timer is counted in both windows, so whether mass is conserved
// would otherwise depend on the phase the run happened to start with.
const tickGrid = 10 * time.Millisecond

// alignClock returns when the runtime clock reads phase (within a fifth of
// a millisecond) past a grid line. It sleeps most of the way and spins the
// rest: this box's sleeps overshoot by about a millisecond.
func alignClock(ck runtime.Clock, grid, phase time.Duration) {
	for {
		left := (phase - ck.Now()%grid + grid) % grid
		if grid-left < 200*time.Microsecond {
			return // just past the line
		}
		if left > 2500*time.Microsecond {
			time.Sleep(left - 2*time.Millisecond)
		}
	}
}

// httpInstall installs one tenant through the gateway, as a client would.
func (f *fedn) httpInstall(t tenant) error {
	body, err := json.Marshal(gateway.Spec{Name: t.name, Op: t.op, Args: t.args, FilterKey: t.filterKey,
		WindowMS: f.sp.window.Milliseconds(), Trees: f.sp.trees, BF: f.sp.bf})
	if err != nil {
		return err
	}
	resp, err := http.Post(f.url+"/v1/queries", "application/json", bytes.NewReader(body))
	if err != nil {
		return fmt.Errorf("install %s over http: %w", t.name, err)
	}
	defer resp.Body.Close()
	msg, _ := io.ReadAll(resp.Body) // best effort: only decorates the error below
	if resp.StatusCode != http.StatusCreated {
		return fmt.Errorf("install %s over http: %s: %s", t.name, resp.Status, bytes.TrimSpace(msg))
	}
	return nil
}

// close tears the federation down: gateway first, so no handler enters a
// peer domain that Shutdown is draining.
func (f *fedn) close() {
	if f.srv != nil {
		f.srv.Close()
	}
	if f.gw != nil {
		f.gw.Close()
	}
	if f.unsub != nil {
		f.unsub()
	}
	f.rt.Shutdown()
}

// latLine is one NDJSON record read off the lat tenant's result stream.
type latLine struct {
	window int64
	// value is the window's max stamp as the client parsed it off the
	// wire; has is false for a window no stamped tuple reached.
	value float64
	has   bool
	t2    time.Time
}

// latStream is the benchmark's one HTTP stream connection.
type latStream struct {
	opened time.Time
	cancel context.CancelFunc
	done   chan struct{}

	mu    sync.Mutex
	lines []latLine
	err   error
}

// openLatStream connects to GET /v1/queries/lat/results and stamps every
// line as it is read.
func openLatStream(url string) (*latStream, error) {
	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url+"/v1/queries/"+latName+"/results", nil)
	if err != nil {
		cancel()
		return nil, err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		cancel()
		return nil, fmt.Errorf("open result stream: %w", err)
	}
	if resp.StatusCode != http.StatusOK {
		resp.Body.Close()
		cancel()
		return nil, fmt.Errorf("open result stream: %s", resp.Status)
	}
	s := &latStream{opened: time.Now(), cancel: cancel, done: make(chan struct{})}
	go func() {
		defer close(s.done)
		defer resp.Body.Close()
		dec := json.NewDecoder(resp.Body)
		for {
			var wr gateway.WindowResult
			if err := dec.Decode(&wr); err != nil {
				if ctx.Err() == nil && err != io.EOF {
					s.mu.Lock()
					s.err = err
					s.mu.Unlock()
				}
				return
			}
			t2 := time.Now()
			v, has := wr.Value.(float64)
			s.mu.Lock()
			s.lines = append(s.lines, latLine{window: wr.Window, value: v, has: has, t2: t2})
			s.mu.Unlock()
		}
	}()
	return s, nil
}

// close hangs up and waits for the reader to exit.
func (s *latStream) close() ([]latLine, error) {
	s.cancel()
	<-s.done
	return s.lines, s.err
}

// primaryTree returns the lat tenant's first planned tree (every tenant
// spans all peers, so member index equals peer index).
func (f *fedn) primaryTree() *plan.Tree {
	def := f.fed.Def(latName)
	if def == nil || def.Trees == nil || len(def.Trees.Trees) == 0 {
		return nil
	}
	return def.Trees.Trees[0]
}
