package mortar

import (
	"math/rand"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/runtime/simrt"
	"repro/internal/tuple"
	"repro/internal/vclock"
	"repro/internal/wire"
)

// testbed builds a small fabric over a simulated transit-stub topology.
func testbed(t testing.TB, hosts int, seed int64, cfg Config, clocks []vclock.Clock) (*Fabric, *simrt.Runtime) {
	t.Helper()
	rt := simrt.NewPaper(seed, hosts, simrt.TopoOptions{Stubs: 8, Transits: 2}, clocks...)
	fab, err := NewFabric(rt, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return fab, rt
}

// uniformCoords gives every peer a random 2-D coordinate (tests don't need
// network awareness).
func uniformCoords(n int, seed int64) []cluster.Point {
	rng := rand.New(rand.NewSource(seed))
	out := make([]cluster.Point, n)
	for i := range out {
		out[i] = cluster.Point{rng.Float64() * 100, rng.Float64() * 100}
	}
	return out
}

// sumQuery compiles and installs a 1s/1s sum query over all peers, rooted
// at peer 0, and starts per-peer sensors emitting value 1 every second
// (the paper's §7.2 microbenchmark).
func sumQuery(t *testing.T, fab *Fabric, rt *simrt.Runtime, bf, d int) *QueryDef {
	t.Helper()
	meta := QueryMeta{
		Name:   "sum1",
		Seq:    1,
		OpName: "sum",
		Window: tuple.WindowSpec{Kind: tuple.TimeWindow, Range: time.Second, Slide: time.Second},
		Root:   0,
	}
	def, err := fab.Compile(meta, nil, uniformCoords(fab.NumPeers(), 7), bf, d)
	if err != nil {
		t.Fatal(err)
	}
	if err := fab.Install(0, def); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < fab.NumPeers(); i++ {
		startSensor(fab, rt, i)
	}
	return def
}

// startSensor emits value 1 every second from the given peer, with a
// per-peer phase offset so sensors are not phase-locked to window
// boundaries (as on a real testbed).
func startSensor(fab *Fabric, rt *simrt.Runtime, i int) {
	phase := time.Duration(137*(i+1)%997)*time.Millisecond + 500*time.Microsecond
	rt.After(phase, func() {
		rt.Every(time.Second, func() {
			fab.Inject(i, tuple.Raw{Vals: []float64{1}})
		})
	})
}

func TestInstallCoversAllLiveNodes(t *testing.T) {
	fab, rt := testbed(t, 60, 1, DefaultConfig(), nil)
	sumQuery(t, fab, rt, 4, 2)
	rt.RunFor(5 * time.Second)
	if got, _ := fab.Counts("sum1", wire.AllEpochs); got != 60 {
		t.Fatalf("installed = %d, want 60", got)
	}
	if _, got := fab.Counts("sum1", wire.AllEpochs); got != 60 {
		t.Fatalf("wired = %d, want 60", got)
	}
}

func TestSumQueryReachesFullCompleteness(t *testing.T) {
	fab, rt := testbed(t, 60, 2, DefaultConfig(), nil)
	var results []Result
	fab.SubscribeAll(func(r Result) { results = append(results, r) })
	sumQuery(t, fab, rt, 4, 2)
	rt.RunFor(60 * time.Second)
	if len(results) < 20 {
		t.Fatalf("only %d results", len(results))
	}
	// After warm-up the root should reflect all 60 peers, both in the
	// completeness count and in the summed value.
	late := results[len(results)-5:]
	for _, r := range late {
		if r.Count != 60 {
			t.Fatalf("completeness count = %d, want 60 (result %+v)", r.Count, r)
		}
		if r.Value.(float64) != 60 {
			t.Fatalf("sum = %v, want 60", r.Value)
		}
	}
}

func TestResultLatencyBounded(t *testing.T) {
	fab, rt := testbed(t, 60, 3, DefaultConfig(), nil)
	var results []Result
	fab.SubscribeAll(func(r Result) { results = append(results, r) })
	issue := rt.Now()
	sumQuery(t, fab, rt, 4, 2)
	rt.RunFor(45 * time.Second)
	if len(results) == 0 {
		t.Fatal("no results")
	}
	for _, r := range results[5:] {
		due := issue + time.Duration(r.WindowIndex+1)*time.Second
		lat := r.At - due
		if lat < 0 || lat > 10*time.Second {
			t.Fatalf("result latency %v out of range for window %d", lat, r.WindowIndex)
		}
	}
}

func TestWindowIndicesAdvanceMonotonically(t *testing.T) {
	fab, rt := testbed(t, 30, 4, DefaultConfig(), nil)
	var idxs []int64
	fab.SubscribeAll(func(r Result) { idxs = append(idxs, r.WindowIndex) })
	sumQuery(t, fab, rt, 4, 2)
	rt.RunFor(30 * time.Second)
	for i := 1; i < len(idxs); i++ {
		if idxs[i] <= idxs[i-1] {
			t.Fatalf("window indices not strictly increasing: %v", idxs)
		}
	}
}

func TestFailureReroutesAroundDeadParents(t *testing.T) {
	cfg := DefaultConfig()
	fab, rt := testbed(t, 60, 5, cfg, nil)
	var results []Result
	fab.SubscribeAll(func(r Result) { results = append(results, r) })
	sumQuery(t, fab, rt, 4, 4)
	rt.RunFor(15 * time.Second)

	// Disconnect 20% of non-root peers.
	rng := rand.New(rand.NewSource(5))
	down := map[int]bool{}
	for len(down) < 12 {
		v := 1 + rng.Intn(59)
		if !down[v] {
			down[v] = true
			fab.SetDown(v, true)
		}
	}
	results = nil
	rt.RunFor(40 * time.Second)
	if len(results) < 10 {
		t.Fatalf("only %d results during failure", len(results))
	}
	// Steady-state completeness should reflect nearly all live peers (48).
	tail := results[len(results)-5:]
	for _, r := range tail {
		if r.Count < 44 {
			t.Fatalf("completeness %d of 48 live peers after failures", r.Count)
		}
	}
	// Reconnect: completeness returns to 60.
	for v := range down {
		fab.SetDown(v, false)
	}
	results = nil
	rt.RunFor(40 * time.Second)
	tail = results[len(results)-3:]
	for _, r := range tail {
		if r.Count != 60 {
			t.Fatalf("completeness %d after recovery, want 60", r.Count)
		}
	}
}

func TestReconciliationInstallsOnRecoveredNodes(t *testing.T) {
	fab, rt := testbed(t, 40, 6, DefaultConfig(), nil)
	// Disconnect 10 peers before install.
	for v := 5; v < 15; v++ {
		fab.SetDown(v, true)
	}
	sumQuery(t, fab, rt, 4, 2)
	rt.RunFor(10 * time.Second)
	got, _ := fab.Counts("sum1", wire.AllEpochs)
	if got > 30 {
		t.Fatalf("installed %d while 10 peers down", got)
	}
	// Reconnect; reconciliation must install on all, eventually.
	for v := 5; v < 15; v++ {
		fab.SetDown(v, false)
	}
	rt.RunFor(60 * time.Second)
	if got, _ := fab.Counts("sum1", wire.AllEpochs); got != 40 {
		t.Fatalf("installed = %d after recovery, want 40", got)
	}
	if _, got := fab.Counts("sum1", wire.AllEpochs); got != 40 {
		t.Fatalf("wired = %d after recovery, want 40", got)
	}
}

func TestRemoveEventuallyEverywhere(t *testing.T) {
	fab, rt := testbed(t, 40, 7, DefaultConfig(), nil)
	sumQuery(t, fab, rt, 4, 2)
	rt.RunFor(5 * time.Second)
	// Disconnect a few peers so they miss the removal multicast.
	for v := 20; v < 25; v++ {
		fab.SetDown(v, true)
	}
	if err := fab.Remove(0, "sum1", 2); err != nil {
		t.Fatal(err)
	}
	rt.RunFor(10 * time.Second)
	remaining, _ := fab.Counts("sum1", wire.AllEpochs)
	if remaining == 0 {
		t.Fatal("down peers should still hold the query")
	}
	for v := 20; v < 25; v++ {
		fab.SetDown(v, false)
	}
	rt.RunFor(120 * time.Second)
	if got, _ := fab.Counts("sum1", wire.AllEpochs); got != 0 {
		t.Fatalf("%d peers still hold the removed query", got)
	}
}

func TestRemoveRequiresDefinition(t *testing.T) {
	fab, _ := testbed(t, 10, 8, DefaultConfig(), nil)
	if err := fab.Remove(3, "nope", 1); err == nil {
		t.Fatal("remove without definition must fail")
	}
}

func TestInstallValidation(t *testing.T) {
	fab, _ := testbed(t, 10, 9, DefaultConfig(), nil)
	meta := QueryMeta{
		Name:   "q",
		OpName: "sum",
		Window: tuple.WindowSpec{Kind: tuple.TimeWindow, Range: time.Second, Slide: time.Second},
		Root:   0,
	}
	def, err := fab.Compile(meta, nil, uniformCoords(10, 1), 4, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := fab.Install(3, def); err == nil {
		t.Fatal("install from non-root issuer must fail")
	}
	bad := *def
	bad.Meta.OpName = "bogus"
	if err := fab.Install(0, &bad); err == nil {
		t.Fatal("unknown operator accepted")
	}
}

func TestSynclessToleratesClockOffset(t *testing.T) {
	// Give every peer except the root a large offset; syncless results
	// should still aggregate everyone into the right windows.
	n := 40
	rng := rand.New(rand.NewSource(10))
	clocks := make([]vclock.Clock, n)
	clocks[0] = vclock.Perfect()
	for i := 1; i < n; i++ {
		off := time.Duration(rng.Intn(600)-300) * time.Second
		clocks[i] = vclock.Clock{Offset: off, Skew: 1}
	}
	cfg := DefaultConfig()
	fab, rt := testbed(t, n, 10, cfg, clocks)
	var results []Result
	fab.SubscribeAll(func(r Result) { results = append(results, r) })
	sumQuery(t, fab, rt, 4, 2)
	rt.RunFor(45 * time.Second)
	if len(results) < 10 {
		t.Fatalf("only %d results", len(results))
	}
	tail := results[len(results)-5:]
	for _, r := range tail {
		if r.Count < n-1 {
			t.Fatalf("syncless completeness %d, want >= %d", r.Count, n-1)
		}
	}
}

func TestTimestampModeSuffersUnderOffset(t *testing.T) {
	n := 40
	rng := rand.New(rand.NewSource(11))
	clocks := make([]vclock.Clock, n)
	clocks[0] = vclock.Perfect()
	for i := 1; i < n; i++ {
		off := time.Duration(rng.Intn(600)-300) * time.Second
		clocks[i] = vclock.Clock{Offset: off, Skew: 1}
	}
	cfg := DefaultConfig()
	cfg.Syncless = false
	fab, rt := testbed(t, n, 11, cfg, clocks)
	counts := map[int64]int{}
	fab.SubscribeAll(func(r Result) {
		if r.Count > counts[r.WindowIndex] {
			counts[r.WindowIndex] = r.Count
		}
	})
	sumQuery(t, fab, rt, 4, 2)
	rt.RunFor(45 * time.Second)
	// With +-300s offsets and 1s windows, data lands in wildly wrong
	// windows: no window near the true range should see full completeness.
	full := 0
	for idx, c := range counts {
		if idx >= 0 && idx < 45 && c == n {
			full++
		}
	}
	if full > 0 {
		t.Fatalf("timestamp mode achieved full completeness despite offsets (%d windows)", full)
	}
}

func TestScopedQueryOnlyInvolvesMembers(t *testing.T) {
	fab, rt := testbed(t, 30, 12, DefaultConfig(), nil)
	members := []int{0, 3, 4, 9, 12, 17, 21, 25}
	meta := QueryMeta{
		Name:   "scoped",
		Seq:    1,
		OpName: "count",
		Window: tuple.WindowSpec{Kind: tuple.TimeWindow, Range: time.Second, Slide: time.Second},
		Root:   0,
	}
	def, err := fab.Compile(meta, members, uniformCoords(len(members), 3), 3, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := fab.Install(0, def); err != nil {
		t.Fatal(err)
	}
	var last Result
	fab.SubscribeAll(func(r Result) { last = r })
	for _, m := range members {
		startSensor(fab, rt, m)
	}
	// Non-members also produce data; it must not leak into the query.
	startSensor(fab, rt, 5)
	rt.RunFor(30 * time.Second)
	if got, _ := fab.Counts("scoped", wire.AllEpochs); got != len(members) {
		t.Fatalf("installed on %d peers, want %d", got, len(members))
	}
	if last.Value == nil || last.Value.(float64) != float64(len(members)) {
		t.Fatalf("count = %v, want %d", last.Value, len(members))
	}
}

func TestFilterKeySelectsTuples(t *testing.T) {
	fab, rt := testbed(t, 12, 13, DefaultConfig(), nil)
	meta := QueryMeta{
		Name:      "sel",
		Seq:       1,
		OpName:    "count",
		Window:    tuple.WindowSpec{Kind: tuple.TimeWindow, Range: time.Second, Slide: time.Second},
		FilterKey: "wanted",
		Root:      0,
	}
	def, err := fab.Compile(meta, nil, uniformCoords(12, 2), 3, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := fab.Install(0, def); err != nil {
		t.Fatal(err)
	}
	var last Result
	fab.SubscribeAll(func(r Result) {
		if r.Value != nil {
			last = r
		}
	})
	for i := 0; i < 12; i++ {
		i := i
		phase := time.Duration(137*(i+1)%997) * time.Millisecond
		rt.After(phase, func() {
			rt.Every(time.Second, func() {
				fab.Inject(i, tuple.Raw{Key: "wanted", Vals: []float64{1}})
				fab.Inject(i, tuple.Raw{Key: "other", Vals: []float64{1}})
			})
		})
	}
	rt.RunFor(20 * time.Second)
	if last.Value == nil || last.Value.(float64) != 12 {
		t.Fatalf("filtered count = %v, want 12", last.Value)
	}
}

func TestBoundaryTuplesKeepCompletenessDuringStalls(t *testing.T) {
	fab, rt := testbed(t, 12, 14, DefaultConfig(), nil)
	var results []Result
	fab.SubscribeAll(func(r Result) { results = append(results, r) })
	meta := QueryMeta{
		Name:   "stall",
		Seq:    1,
		OpName: "sum",
		Window: tuple.WindowSpec{Kind: tuple.TimeWindow, Range: time.Second, Slide: time.Second},
		Root:   0,
	}
	def, _ := fab.Compile(meta, nil, uniformCoords(12, 4), 3, 2)
	if err := fab.Install(0, def); err != nil {
		t.Fatal(err)
	}
	// All peers emit for 10s; then peer 1 goes silent (stalls) while
	// others continue.
	for i := 0; i < 12; i++ {
		i := i
		phase := time.Duration(137*(i+1)%997) * time.Millisecond
		rt.After(phase, func() {
			rt.Every(time.Second, func() {
				if i == 1 && rt.Now() > 10*time.Second {
					return
				}
				fab.Inject(i, tuple.Raw{Vals: []float64{1}})
			})
		})
	}
	rt.RunFor(30 * time.Second)
	tail := results[len(results)-3:]
	for _, r := range tail {
		if r.Value.(float64) != 11 {
			t.Fatalf("sum = %v, want 11 (stalled peer contributes no value)", r.Value)
		}
		if r.Count != 12 {
			t.Fatalf("completeness = %d, want 12 (boundary tuples keep the stalled peer counted)", r.Count)
		}
	}
}

func TestStatsAccumulate(t *testing.T) {
	fab, rt := testbed(t, 30, 15, DefaultConfig(), nil)
	sumQuery(t, fab, rt, 4, 2)
	rt.RunFor(20 * time.Second)
	if fab.Stats.ResultsReported.Load() == 0 {
		t.Fatal("no results counted")
	}
}

func TestHeartbeatTrafficIsAccounted(t *testing.T) {
	fab, rt := testbed(t, 30, 16, DefaultConfig(), nil)
	sumQuery(t, fab, rt, 4, 2)
	rt.RunFor(30 * time.Second)
	ctl := rt.ControlBytes()
	data := rt.DataBytes()
	if ctl == 0 || data == 0 {
		t.Fatalf("traffic accounting: control %d data %d", ctl, data)
	}
}
