package mortar

import (
	"math"
	"sync"
	"time"

	"repro/internal/ops"
	"repro/internal/runtime"
	"repro/internal/tslist"
	"repro/internal/tuple"
)

// instance is one peer's operator for one query: the local window over its
// raw source stream ("merging across time"), the time-space list merging
// children's summaries ("merging across space"), and the routing state that
// stripes evicted summaries up the tree set.
type instance struct {
	peer *Peer
	meta QueryMeta
	op   ops.Operator
	fin  ops.Finalizer // nil when the partial value is the final value

	// Tree position; zero until wired (install multicast carries it; peers
	// adopted via reconciliation fetch it from the root topology service).
	nb    neighbors
	wired bool
	// own caches ownLevels' vector, recomputed on (re)wire; read-only to
	// callers.
	own []int16

	// draining marks an instance retired by an epoch-scoped removal: it
	// opens no new local windows but keeps merging, evicting, and routing
	// its in-flight windows until the drain timer tears it down — the
	// "break" half of make-before-break happens only after the old epoch's
	// data has had time to reach the root.
	draining   bool
	drainTimer runtime.Timer

	// acked tracks, at the root of an epoch > 0 instance, which members
	// have reported the epoch installed and wired (wire.InstallAck). Once
	// every member has acked — and the new epoch's completeness has caught
	// up with the old one's — the root retires the previous epoch.
	acked   map[int]struct{}
	retired bool // this instance already triggered the old epoch's removal

	// lastCount is the completeness of this root's most recent report;
	// reportsAfterAck counts reports made after the member set fully
	// acked. Together they drive the retirement criterion.
	lastCount       int
	reportsAfterAck int

	// Full definition; held only at the query root / issuer (§6.1).
	def *QueryDef

	// Local source window state: the window is the Combine of the last
	// WindowSpec.Panes() panes held in sealed. win is the open pane's
	// partial aggregate and paneN its raw count; paneOff is Σ(arrival −
	// slide start) for a time window, Σ(arrival − paneFirst) for a tuple
	// window — offsets, so the sum stays small however far the frame clock
	// has run. sum, count, avg, min and max panes keep nothing per tuple.
	win       ops.Window
	paneN     int64
	paneOff   time.Duration
	paneFirst time.Duration
	sealed    *ops.Panes
	everRaw   bool

	// scratch holds the filtered, re-keyed copy of a batch this instance
	// merges when it may not use the shared batch itself (selectRaws);
	// reused from batch to batch.
	scratch []tuple.Raw

	// ownsValues reports that a value this instance emits or evicts is
	// exclusively that summary's, so the time-space list may fold later
	// arrivals into it in place. It holds for tumbling time windows only (see
	// newInstance).
	ownsValues bool

	// Tuple-window state (§4.1): the raw count and Σ(arrival − oldest
	// pane's First) over the sealed panes, whether a raw arrived since the
	// last stall tick, panes sealed since the last emission, and the end of
	// the last emitted validity interval so stall boundaries can extend it
	// (§4.3).
	heldN      int64
	heldOff    time.Duration
	rawInSlide bool
	sinceSlide int
	lastTE     time.Duration
	stallTick  runtime.Timer

	// Reference clock (§5.1): a syncless instance's indexing frame is base
	// plus the peer's clock; a timestamp instance's is the peer's clock.
	base time.Duration

	curSlide   int64 // next local slide boundary to close
	slideTimer runtime.Timer

	ts           *tslist.List
	evictTimer   runtime.Timer
	evictDue     time.Duration // frame time evictTimer fires at
	lastEvicted  int64         // highest window index already evicted (late detection)
	lastReported int64         // highest window index reported (root only)

	// netDist and netDev estimate how late past a window's end, in this
	// operator's frame, the window's slowest contribution reaches it: the
	// EWMA mean and EWMA absolute deviation (Jacobson–Karels, RFC 6298) of
	// the maximum lag of each round (foldNetDist). Samples accumulate into
	// sampleMax (negative: none yet this round) and fold once a round, capped
	// at twice the hold in force. learned is false until the first fold.
	netDist, netDev time.Duration
	sampleMax       time.Duration
	learned         bool

	// firstSlide is the slide the operator started in; see closeSlide.
	firstSlide int64

	stripe int // round-robin tree pointer for tuple-window summaries (routeNew)
}

// newInstance builds meta's operator, its frame at meta.Age at sentAt.
func (p *Peer) newInstance(meta QueryMeta, sentAt time.Duration) (*instance, error) {
	op, err := ops.New(meta.OpName, meta.OpArgs)
	if err != nil {
		return nil, err
	}
	inst := &instance{
		peer:         p,
		meta:         meta,
		op:           op,
		win:          op.NewWindow(),
		base:         meta.Age - sentAt,
		lastEvicted:  math.MinInt64,
		lastReported: math.MinInt64,
		sampleMax:    -1,
	}
	if f, ok := op.(ops.Finalizer); ok {
		inst.fin = f
	}
	// Tumbling time windows produce slide-aligned indices, so TS-list
	// entries never split and no value is ever shared between entries —
	// the precondition for folding summaries into the entry's value in
	// place. Tuple windows split unaligned intervals (cloneInterval shares
	// the value), and a sliding window's value may be one of its retained
	// panes (sealPane), so they keep the copying combiner: on every peer of
	// such a query a value, once made, is never written again.
	k := meta.Window.Panes()
	inst.sealed = ops.NewPanes(op, k)
	inst.ownsValues = meta.Window.Kind == tuple.TimeWindow && k == 1
	if inst.ownsValues {
		inst.ts = tslist.New(ops.CombineInPlaceNilAware(op))
	} else {
		inst.ts = tslist.New(ops.CombineNilAware(op))
	}
	inst.ts.SetCounters(&p.fab.DataPath)
	return inst, nil
}

// frameNow returns the instance's indexing-frame time.
func (inst *instance) frameNow() time.Duration { return inst.frameAt(inst.peer.now()) }

// frameAt maps a reading of the peer's clock into the instance's
// indexing frame.
func (inst *instance) frameAt(local time.Duration) time.Duration {
	if inst.peer.fab.Cfg.Syncless {
		return inst.base + local
	}
	return local
}

// start begins slide processing. Called once the operator is installed
// (wiring may complete later; an unwired operator still windows its local
// source, it just cannot forward).
func (inst *instance) start() {
	if inst.meta.Window.Kind == tuple.TupleWindow {
		// Tuple windows emit on arrival counts; a stall ticker injects
		// boundary tuples that extend the previous summary's validity
		// interval when the raw stream goes quiet (§4.3).
		inst.lastTE = inst.frameNow()
		inst.scheduleStall()
		return
	}
	now := inst.frameNow()
	inst.curSlide = int64(now / inst.meta.Window.Slide)
	if now < 0 {
		inst.curSlide--
	}
	inst.firstSlide = inst.curSlide
	inst.scheduleSlide()
}

func (inst *instance) stop() {
	if inst.slideTimer != nil {
		inst.slideTimer.Cancel()
	}
	if inst.evictTimer != nil {
		inst.evictTimer.Cancel()
	}
	if inst.stallTick != nil {
		inst.stallTick.Cancel()
	}
	if inst.drainTimer != nil {
		inst.drainTimer.Cancel()
	}
}

// beginDrain puts a retired instance into draining mode: the slide and
// stall timers stop (no new local windows open), while the TS list keeps
// merging arriving summaries and evicting expired windows toward the root.
// After the drain period the instance is torn down for good. Idempotent —
// the removal multicast and reconciliation may both deliver the retirement.
func (inst *instance) beginDrain(drain time.Duration) {
	if inst.draining {
		return
	}
	inst.draining = true
	if inst.slideTimer != nil {
		inst.slideTimer.Cancel()
	}
	if inst.stallTick != nil {
		inst.stallTick.Cancel()
	}
	p := inst.peer
	key := instKey{name: inst.meta.Name, epoch: inst.meta.Epoch}
	inst.drainTimer = p.rtc.After(drain, func() {
		if cur, ok := p.insts[key]; ok && cur == inst {
			inst.stop()
			p.deleteInst(key)
			p.pruneNeighborState()
		}
	})
}

// stallPeriod is how long a tuple-window source stays quiet before a
// boundary tuple extends its last summary.
const stallPeriod = 2 * time.Second

func (inst *instance) scheduleStall() {
	inst.stallTick = inst.peer.rtc.After(stallPeriod, func() {
		if !inst.rawInSlide && inst.everRaw {
			now := inst.frameNow()
			inst.absorb(tuple.Summary{
				Query:    inst.meta.Name,
				Index:    tuple.Index{TB: inst.lastTE, TE: now},
				Count:    1,
				Boundary: true,
				Age:      now - (inst.lastTE+now)/2,
			})
			inst.lastTE = now
		}
		inst.rawInSlide = false
		inst.foldNetDist()
		inst.scheduleStall()
	})
}

// takeArrivals merges a tuple window's batch, all stamped at, with one
// Merge per pane of g arrivals it reaches, and emits every SlideN/g sealed
// panes a summary over the last RangeN arrivals (the held panes), indexed
// by their arrival span (§4.1: "tb indicates the arrival time of the first
// tuple and te the arrival time of the last").
func (inst *instance) takeArrivals(batch []tuple.Raw, at time.Duration, emit func(tuple.Summary)) {
	w := inst.meta.Window
	g := w.RangeN / w.Panes()
	for len(batch) > 0 {
		if inst.paneN == 0 {
			inst.paneFirst = at
		}
		n := min(g-int(inst.paneN), len(batch))
		inst.win.Merge(batch[:n]...)
		batch = batch[n:]
		inst.paneN += int64(n)
		inst.paneOff += time.Duration(n) * (at - inst.paneFirst)
		if int(inst.paneN) < g {
			return
		}
		p := ops.Pane{Value: inst.win.Value(), First: inst.paneFirst, N: inst.paneN, Off: inst.paneOff}
		inst.win = inst.op.NewWindow()
		inst.paneN, inst.paneOff = 0, 0
		if old, evicted := inst.sealed.Push(p); evicted {
			inst.heldN -= old.N
			inst.heldOff -= old.Off + time.Duration(inst.heldN)*(inst.sealed.Oldest().First-old.First)
		}
		first := inst.sealed.Oldest().First
		inst.heldN += p.N
		inst.heldOff += p.Off + time.Duration(p.N)*(p.First-first)
		if inst.sinceSlide++; inst.sinceSlide < w.SlideN/g {
			continue
		}
		inst.sinceSlide = 0
		inst.lastTE = at + 1 // half-open: include the last arrival
		n64 := time.Duration(inst.heldN)
		emit(tuple.Summary{
			Query: inst.meta.Name,
			Index: tuple.Index{TB: first, TE: inst.lastTE},
			Value: inst.sealed.Value(),
			Count: 1,
			Age:   inst.frameNow() - first - (inst.heldOff+n64-1)/n64, // Σ(now − At)/N, without N·(now − first)
		})
	}
}

func (inst *instance) scheduleSlide() {
	boundary := time.Duration(inst.curSlide+1) * inst.meta.Window.Slide
	inst.slideTimer = inst.peer.rtc.After(boundary-inst.frameNow(), inst.closeSlide)
}

// injectRawBatch feeds a batch of raw tuples into every matching local
// operator. During a migration both epochs of a query are fed: the old
// epoch keeps producing complete windows while the new one wires up, so
// completeness never dips (make-before-break). Draining instances open no
// new windows and take no raws. The instance loop is outermost so the
// per-batch cost — the instance-map walk, the slide boundary check, the
// window call — is paid once per instance, not once per tuple; the clock is
// read once for the whole batch.
func (p *Peer) injectRawBatch(raws []tuple.Raw) {
	p.fab.Stats.TuplesIngested.Add(uint64(len(raws)))
	p.fab.Stats.IngestBatches.Add(1)
	local := p.now()
	for _, inst := range p.insts {
		if !inst.draining {
			inst.takeRaws(raws, local)
		}
	}
}

// takeRaws merges a batch that arrived when the peer's clock read local
// into the instance's window. The tuples arrived together, so one frame
// time stamps them all. A raw belongs to the slide its arrival stamp falls
// in: a stamp at or past the open slide's boundary means the close timer
// is running late, so that slide closes first and the raw is counted in the
// next one — in exactly one window, however late the timer. A time window
// takes the batch in one Merge; a tuple window in one per pane it reaches.
func (inst *instance) takeRaws(raws []tuple.Raw, local time.Duration) {
	at := inst.frameAt(local)
	w := inst.meta.Window
	tupleWin := w.Kind == tuple.TupleWindow
	if !tupleWin {
		for at >= time.Duration(inst.curSlide+1)*w.Slide {
			inst.slideTimer.Cancel()
			inst.closeSlide() // re-arms the timer for the next boundary
		}
	}
	batch := inst.selectRaws(raws)
	if len(batch) == 0 {
		return
	}
	inst.everRaw = true
	if tupleWin {
		inst.rawInSlide = true
		inst.takeArrivals(batch, at, inst.absorb)
		return
	}
	inst.win.Merge(batch...)
	n := int64(len(batch))
	inst.paneN += n
	inst.paneOff += time.Duration(n) * (at - time.Duration(inst.curSlide)*w.Slide)
}

// selectRaws returns the batch this instance merges: the shared batch
// itself when every tuple passes unchanged; otherwise a copy in
// inst.scratch of the tuples the select stage (§7.4) keeps, each grouped
// by its sub-key where it has one. It never writes the shared batch: the
// peer's other instances read it next.
func (inst *instance) selectRaws(raws []tuple.Raw) []tuple.Raw {
	filter := inst.meta.FilterKey
	if filter == "" {
		i := 0
		for i < len(raws) && raws[i].SubKey == "" {
			i++
		}
		if i == len(raws) {
			return raws
		}
	}
	out := inst.scratch[:0]
	for i := range raws {
		if filter != "" && raws[i].Key != filter {
			continue
		}
		r := raws[i]
		if r.SubKey != "" {
			r.Key = r.SubKey // select consumed the match key; group by sub-key
		}
		out = append(out, r)
	}
	inst.scratch = out
	return out
}

// closeSlide ends the open slide: it runs from the slide timer at each
// local boundary (the only trigger an idle source has) or from takeRaws
// when a raw stamped past the boundary gets there first. It seals the
// slide's pane, emits the window summary (or a boundary tuple if the
// source stalled, §4.3), and re-arms the timer.
func (inst *instance) closeSlide() {
	w := inst.meta.Window
	n := inst.curSlide
	inst.curSlide++
	idx := tuple.Index{TB: time.Duration(n) * w.Slide, TE: time.Duration(n+1) * w.Slide}
	now := inst.frameNow()
	s := tuple.Summary{
		Query: inst.meta.Name,
		Index: idx,
		Count: 1,
		// Anchor mid-slide unless this slide's own raws say better: a
		// stalled source, a sliding window whose value comes from earlier
		// panes only, or the slide the operator started in. That slide's
		// raws cover only its tail, so their mean inception can sit next
		// to TE, and a parent whose frame runs a few ms ahead would index
		// the summary into the next window, beside this operator's own
		// summary for it: one member counted twice.
		Age: now - (idx.TB + w.Slide/2),
	}
	if inst.paneN > 0 && n != inst.firstSlide {
		// A summary's age is anchored at the mean inception time of its
		// constituent raw tuples: downstream operators recover the window via
		// index = (t_ref - age) / slide, so the age must place the summary in
		// the middle of the data it represents, not at the moment of emission
		// (§5.1: ages weight toward the majority of the constituent data).
		s.Age = now - (idx.TB + inst.paneOff/time.Duration(inst.paneN))
	}
	s.Value = inst.sealPane()
	// A stalled stream injects a boundary tuple so downstream completeness
	// still counts this participant — but only once the source has ever
	// produced data (an idle peer with no sensor contributes nothing).
	s.Boundary = s.Value == nil
	// Fold once a round of d slides (foldNetDist). An interior operator's
	// windows where it is a leaf complete at once with a lag of zero; in the
	// partial round it started in, that zero can be the only sample and
	// would seed an estimate that times out every window of its deeper tree,
	// which then never teaches it. So it folds its first round only once the
	// round is full; the root has no such windows.
	d := max(int64(len(inst.nb.Parents)), 1)
	if inst.curSlide%d == 0 && (inst.isRoot() || inst.curSlide > inst.firstSlide+d) {
		inst.foldNetDist()
	}
	if s.Value != nil || inst.everRaw {
		inst.absorb(s)
	}
	inst.scheduleSlide()
}

// sealPane pushes the open slide's partial aggregate into sealed, starts a
// fresh window and returns the value of the window that ends with it: the
// Combine over the last Range/Slide panes (a tumbling window's pane
// itself). A sliding window's value may be a pane or a partial Combine that
// sealed still holds: nothing downstream may write to it (ownsValues is
// false for such an instance).
func (inst *instance) sealPane() tuple.Value {
	var pane tuple.Value
	if inst.paneN > 0 {
		pane = inst.win.Value()
		inst.win = inst.op.NewWindow()
		inst.paneN, inst.paneOff = 0, 0
	}
	inst.sealed.Push(ops.Pane{Value: pane})
	return inst.sealed.Value()
}

// --- TS list management (§4.2, §4.3) ---

// absorb inserts a summary (local or remote) into the time-space list,
// sends on what that completed and arms the eviction timer.
func (inst *instance) absorb(s tuple.Summary) {
	if s.Levels == nil && inst.wired {
		s.Levels = inst.ownLevels()
	}
	now := inst.frameNow()
	if s.Boundary && inst.meta.Window.Kind == tuple.TupleWindow {
		// A stalled tuple-window source: first try to extend the validity
		// interval of the summary it last produced (§4.3); fall through to
		// a normal insert only if there is nothing to extend.
		if inst.ts.ExtendLast(s.Index.TB, s.Index.TE) {
			return
		}
	}
	inst.ts.Insert(s, now, inst.deadline(s, now))
	inst.evictComplete(now)
	inst.armEvict()
}

// ownLevels is this operator's level on each tree, the starting routing
// history for newly created tuples. The returned vector is the cached copy
// built at wiring time: callers must not mutate it (they merge it into
// vectors they own via tuple.MergeLevelsInto).
func (inst *instance) ownLevels() []int16 { return inst.own }

// cacheOwnLevels rebuilds the cached level vector from the current tree
// position; called whenever the instance is (re)wired.
func (inst *instance) cacheOwnLevels() {
	inst.own = inst.own[:0]
	for _, l := range inst.nb.Levels {
		inst.own = append(inst.own, int16(l))
	}
}

// deadline is when an entry opened by s leaves on the timer path, in this
// operator's frame: TE + netDist + 4·netDev, once the window's slowest
// contribution should be in, clamped to [MinTimeout, MaxTimeout] from now —
// §4.3's "netDist − T.age" measured from the window's end, not from an age
// that also carries where in the slide s's raws fell. Before the first
// sample a time window holds one slide past TE, a tuple window MinTimeout.
func (inst *instance) deadline(s tuple.Summary, now time.Duration) time.Duration {
	cfg := inst.peer.fab.Cfg
	dl := now
	switch {
	case inst.learned:
		dl = s.Index.TE + inst.netDist + 4*inst.netDev
	case inst.meta.Window.Kind == tuple.TimeWindow:
		dl = s.Index.TE + inst.meta.Window.Slide
	}
	return min(max(dl, now+cfg.MinTimeout), now+cfg.MaxTimeout)
}

// observe records, toward the round's maximum, the lag past its window's
// end te at which a contribution reached this operator. The root and tuple
// windows sample every arriving summary, stragglers included. An interior
// time-window operator samples only the windows it evicts complete (evict),
// at the arrival that completed them: a timed-out partial arrives as late
// as its sender's hold, not its network distance, and an operator that
// learned from it would hold longer and teach its parent the same — holds
// stacking level by level.
func (inst *instance) observe(te, now time.Duration) {
	inst.sampleMax = max(inst.sampleMax, now-te, 0)
}

// foldNetDist folds the round's maximum lag into the estimate ("an EWMA of
// the maximum received sample", §4.3; alpha = 10% a window). A time window's
// round is one slide per tree (closeSlide): window n travels on tree n mod d,
// so the maximum over d slides is the slowest tree's lag, where one slide's
// would alternate between trees — a leaf's own windows and a deep subtree's,
// a tree with a dead member and one without — and pass the alternation off
// as deviation. The round folds at the per-window weight compounded over its
// d windows, 1 − (1 − alpha)^d, so the estimate learns at the paper's rate
// whatever d is. A tuple window's round is its stall period and folds at
// alpha. A round's maximum is capped at twice the hold in force, so one
// straggler teaches what a lag of twice the hold would, never its own
// lateness. The first sample seeds the estimate as (s, s/2), RFC 6298's
// first RTT measurement.
func (inst *instance) foldNetDist() {
	s := inst.sampleMax
	if s < 0 {
		return
	}
	inst.sampleMax = -1
	if !inst.learned {
		inst.netDist, inst.netDev, inst.learned = s, s/2, true
		return
	}
	cfg := inst.peer.fab.Cfg
	s = min(s, 2*max(inst.netDist+4*inst.netDev, cfg.MinTimeout))
	a := netDistAlpha
	if inst.meta.Window.Kind == tuple.TimeWindow {
		a = 1 - math.Pow(1-a, float64(max(len(inst.nb.Parents), 1)))
	}
	ewma := func(old, sample time.Duration) time.Duration {
		return time.Duration((1-a)*float64(old) + a*float64(sample))
	}
	inst.netDev = ewma(inst.netDev, (s - inst.netDist).Abs())
	inst.netDist = ewma(inst.netDist, s)
}

// armEvict keeps a single timer pointed at the earliest entry deadline, and
// none while the list is empty.
func (inst *instance) armEvict() {
	dl, ok := inst.ts.NextDeadline()
	if !ok {
		if inst.evictTimer != nil {
			inst.evictTimer.Cancel()
		}
		return
	}
	now := inst.frameNow()
	dl = max(dl, now)
	if inst.evictTimer != nil && !inst.evictTimer.Stopped() {
		// Keep the existing timer if it already fires early enough.
		if inst.evictDue <= dl {
			return
		}
		inst.evictTimer.Cancel()
	}
	inst.evictDue = dl
	inst.evictTimer = inst.peer.rtc.After(dl-now, inst.evictExpired)
}

func (inst *instance) evictExpired() {
	now := inst.frameNow()
	// Pop with a small tolerance: a clock model converts a delay to the
	// simulator's time through its skew and rounds, so at timer fire the
	// frame clock can sit an epsilon short of the deadline; without the
	// tolerance the evict timer would re-arm with zero delay forever.
	for _, e := range inst.ts.PopExpired(now + time.Millisecond) {
		inst.evict(e, now, false)
	}
	// An expired entry may have been all that held back complete ones.
	inst.evictComplete(now)
	inst.armEvict()
}

// windowTree is the tree window n of a time-window query travels on, at
// every operator: n mod d, floored. Agreeing on the tree is what lets a
// parent know which subtree to expect in a window's entry.
func (inst *instance) windowTree(n int64) int {
	d := int64(len(inst.nb.Parents))
	return int((n%d + d) % d)
}

// evictComplete is the fast path for time windows: an entry that has counted
// every member of this operator's subtree on the window's tree (boundary
// tuples count a stalled source) can gain nothing by waiting out its timeout,
// so it leaves at once — a leaf's own summary at slide close, the root's
// report when the whole query is in. Only the leading run of complete entries
// goes — an older window that is still open keeps newer complete ones behind
// it until its own timer fires — so windows leave in index order, and a dead,
// silent or lost descendant leaves its ancestors' windows to evictExpired. A
// summary re-striped here from a sibling tree can push an entry over its count
// early; the entry leaves and the rest of the subtree is relayed behind it.
// An operator wired without subtree counts (nil or zero) has only its timer.
func (inst *instance) evictComplete(now time.Duration) {
	if inst.meta.Window.Kind == tuple.TupleWindow || len(inst.nb.Subtree) == 0 {
		return
	}
	// One entry at a time: a result subscriber may feed this peer (Chain),
	// and on the simulator that re-enters absorb before report returns.
	for inst.ts.Len() > 0 {
		n := int64(inst.ts.Entries()[0].Index.TB / inst.meta.Window.Slide)
		need := inst.nb.Subtree[inst.windowTree(n)]
		if need <= 0 {
			return
		}
		e := inst.ts.PopLeading(need)
		if e == nil {
			return
		}
		inst.evict(e, now, true)
	}
}

// evict sends an entry popped from the time-space list on its way: the root
// reports it, every other operator routes it upstream. complete marks an
// entry popped by evictComplete rather than by its timeout.
func (inst *instance) evict(e *tslist.Entry, now time.Duration, complete bool) {
	tupleWin := inst.meta.Window.Kind == tuple.TupleWindow
	unit := inst.meta.Window.Slide
	if tupleWin {
		// Tuple-window indices are unaligned intervals; order reports
		// by interval start at millisecond granularity.
		unit = time.Millisecond
	}
	n := int64(e.Index.TB / unit)
	if n > inst.lastEvicted {
		inst.lastEvicted = n
	}
	s := e.Summary(inst.meta.Name, now)
	switch {
	case !inst.isRoot():
		if complete {
			inst.observe(e.Index.TE, now)
		}
		inst.routeNew(s, n)
	case tupleWin:
		inst.emit(n, s, false)
	default:
		inst.report(n, s, complete)
	}
	// The summary took its own Levels clone and the value travels on
	// by reference; the entry shell goes back to the list's pool.
	inst.ts.Recycle(e)
}

// noteReport updates the root's completeness view and, for a migrating
// epoch, re-checks the retirement criterion — the hand-off happens from
// the root's report path, where completeness is finally judged.
func (inst *instance) noteReport(count int) {
	inst.lastCount = count
	if inst.meta.Epoch > 0 && !inst.retired && inst.def != nil &&
		inst.acked != nil && len(inst.acked) >= len(inst.def.Members) {
		inst.reportsAfterAck++
		inst.peer.maybeRetireOld(inst)
	}
}

// isRoot reports whether this operator is the query root (no parent in any
// tree).
func (inst *instance) isRoot() bool {
	if !inst.wired {
		return false
	}
	for _, pa := range inst.nb.Parents {
		if pa >= 0 {
			return false
		}
	}
	return true
}

// report emits a final time-window result from the root operator. Each
// window is reported at most once, in order; data evicted for an
// already-reported window is counted as late. complete as in evict.
func (inst *instance) report(n int64, s tuple.Summary, complete bool) {
	if n <= inst.lastReported {
		inst.peer.fab.Stats.LateAtRoot.Add(1)
		return
	}
	inst.lastReported = n
	inst.emit(n, s, complete)
}

// emit counts, finalizes and publishes a root result. Tuple windows come
// here straight from evict: the unaligned intervals of different sources
// legitimately evict out of order, so every eviction is reported, and none
// takes the complete path.
func (inst *instance) emit(n int64, s tuple.Summary, complete bool) {
	f := inst.peer.fab
	inst.noteReport(s.Count)
	f.Stats.ResultsReported.Add(1)
	if complete {
		f.Stats.ReportedComplete.Add(1)
	}
	val := s.Value
	if inst.fin != nil && val != nil {
		val = inst.fin.Finalize(val)
	}
	f.emitResult(Result{
		Query:       s.Query,
		Epoch:       inst.meta.Epoch,
		WindowIndex: n,
		Index:       s.Index,
		Value:       val,
		Count:       s.Count,
		Hops:        s.Hops,
		At:          inst.peer.now(),
		Age:         s.Age,
	})
}

// --- Summary arrival (§3.3, §4) ---

func (p *Peer) handleSummary(src int, env *envelope) {
	// A summary names its operator by the Seq of the install that made it,
	// and merges only into the instance of that install: two live epochs
	// of a query are two disjoint tree sets, and cross-epoch merging would
	// double-count the sources that feed both; a superseded install of the
	// name (a removed and re-created query) counts a membership the
	// current one does not.
	inst, ok := p.bySeq[env.Seq]
	if !ok || !inst.wired {
		// We cannot process or even consult tree levels; best-effort drop.
		p.fab.Stats.Dropped.Add(1)
		return
	}
	if !inst.op.Valid(env.S.Value) {
		// Only a corrupt or forged frame carries a value without the
		// operator's shape; merged, it would panic a Combine here or a
		// Finalize at the root.
		p.fab.Stats.Dropped.Add(1)
		return
	}
	if env.S.Index == (tuple.Index{}) && !inst.reindexes() {
		// Only a syncless time-window sender leaves the index off (send);
		// an instance that reads it would merge the summary into window 0.
		p.fab.Stats.Dropped.Add(1)
		return
	}
	s := env.S
	s.Query = inst.meta.Name // not on the wire: the Seq named the instance
	// The transport measures one-hop flight time (UdpCC RTT/2) on this
	// peer's clock, and it adds to the tuple's age.
	s.Age += p.now() - env.SentAt
	s.Hops++

	now := inst.frameNow()

	if inst.meta.Window.Kind == tuple.TupleWindow {
		// Tuple-window summaries keep their arrival-span indices; the
		// TS list's overlap splitting reconciles the unaligned intervals
		// of different sources (§4.2).
		inst.observe(s.Index.TE, now)
		inst.absorb(s)
		return
	}

	// Re-index in the local frame for syncless operation: the operator
	// merges tuples that have been alive for similar periods (§5.1,
	// Figure 7: index <- (t_ref - T.age) / slide).
	var n int64
	if inst.reindexes() {
		n = int64((now - s.Age) / inst.meta.Window.Slide)
		if now-s.Age < 0 && (now-s.Age)%inst.meta.Window.Slide != 0 {
			n--
		}
		s.Index = tuple.Index{
			TB: time.Duration(n) * inst.meta.Window.Slide,
			TE: time.Duration(n+1) * inst.meta.Window.Slide,
		}
	} else {
		n = int64(s.Index.TB / inst.meta.Window.Slide)
	}

	root := inst.isRoot()
	if root {
		// The root is where completeness is finally judged, so it alone
		// learns from every arrival, stragglers included.
		inst.observe(s.Index.TE, now)
	}
	if n <= inst.lastEvicted {
		// Late for this operator: the window was already sent upstream.
		if root {
			p.fab.Stats.LateAtRoot.Add(1)
			return
		}
		// Interior operators relay the straggler toward the root without
		// feeding it into their own netDist. Interior operators waiting
		// for relayed (cross-tree) paths would deadlock-by-creep: with
		// mutual parent pairs across sibling trees, each operator would
		// wait for the other's hold plus its own margin, ratcheting result
		// latency without bound. Stragglers keep moving; only the root
		// waits for them.
		p.fab.Stats.Relayed.Add(1)
		inst.forward(s, env.Tree, env.TTLDown)
		return
	}
	inst.absorb(s)
}

// --- Dynamic tuple striping (§3.3) ---

// routeNew sends a freshly created (merged) summary toward the root,
// striping across trees and falling back to the staged policy when the
// preferred parent is unreachable. Window n of a time-window query starts
// from windowTree(n), the same tree at every operator; tuple windows share
// no window number (a TB-derived one would alias with periodic sources), so
// they stripe round-robin from a per-instance pointer.
func (inst *instance) routeNew(s tuple.Summary, n int64) {
	if !inst.wired {
		inst.peer.fab.Stats.Dropped.Add(1)
		return
	}
	if p := inst.peer; p.fab.Down(p.id) {
		// Held down by the transport, the peer is dead to the federation:
		// what its operators make goes nowhere, and is no routing loss.
		return
	}
	// s.Levels is the caller's alone (cloned at eviction or freshly decoded),
	// so the routing constraint folds in place.
	s.Levels = tuple.MergeLevelsInto(s.Levels, inst.ownLevels())
	d := len(inst.nb.Parents)
	tupleWin := inst.meta.Window.Kind == tuple.TupleWindow
	start := inst.windowTree(n)
	if tupleWin {
		start = inst.stripe
	}
	// Default policy: the first tree from start with a live parent ("the
	// operator migrates the stripe to a remaining, live parent").
	for i := 0; i < d; i++ {
		t := (start + i) % d
		pa := inst.nb.Parents[t]
		if pa >= 0 && inst.peer.alive(pa) {
			if tupleWin {
				inst.stripe = (t + 1) % d
			}
			inst.send(s, t, pa, 0)
			return
		}
	}
	// No live parent on any tree: let the staged policy explore downward.
	inst.forward(s, -1, 0)
}

// forward applies the staged multipath routing policy (Figure 5) for a
// tuple that arrived on tree `arrived` (-1 for locally created tuples with
// no preferred tree).
func (inst *instance) forward(s tuple.Summary, arrived int, ttlDown uint8) {
	if !inst.wired {
		inst.peer.fab.Stats.Dropped.Add(1)
		return
	}
	s.Levels = tuple.MergeLevelsInto(s.Levels, inst.ownLevels())
	nb := &inst.nb
	d := len(nb.Parents)
	tl := func(t int) int {
		if t < len(s.Levels) && s.Levels[t] >= 0 {
			return int(s.Levels[t])
		}
		return math.MaxInt32 // never visited: no constraint
	}
	ol := func(t int) int { return nb.Levels[t] }
	liveParent := func(t int) bool {
		return nb.Parents[t] >= 0 && inst.peer.alive(nb.Parents[t])
	}

	// Stage 1 — same tree: route to P(t).
	if arrived >= 0 && liveParent(arrived) {
		inst.send(s, arrived, nb.Parents[arrived], ttlDown)
		return
	}
	// Stage 2 — up*: a tree at least as close to the root as the arrival
	// tree; choose the minimum level.
	if arrived >= 0 {
		best, bestLevel := -1, math.MaxInt32
		for t := 0; t < d; t++ {
			if t != arrived && liveParent(t) && ol(t) <= tl(arrived) && ol(t) < bestLevel {
				best, bestLevel = t, ol(t)
			}
		}
		if best >= 0 {
			inst.send(s, best, nb.Parents[best], ttlDown)
			return
		}
	}
	// Stage 3 — flex: forward progress on any tree not yet re-entered at a
	// visited level.
	best, bestLevel := -1, math.MaxInt32
	for t := 0; t < d; t++ {
		if t != arrived && liveParent(t) && ol(t) <= tl(t) && ol(t) < bestLevel {
			best, bestLevel = t, ol(t)
		}
	}
	if best >= 0 {
		inst.send(s, best, nb.Parents[best], ttlDown)
		return
	}
	// Stage 4 — flex down: descend to a live child, bounded by TTL-down.
	if ttlDown < ttlDownMax {
		for t := 0; t < d; t++ {
			if ol(t) > tl(t) {
				continue
			}
			for _, c := range nb.Children[t] {
				if inst.peer.alive(c) {
					inst.peer.fab.Stats.FlexDownHops.Add(1)
					inst.send(s, t, c, ttlDown+1)
					return
				}
			}
		}
	}
	// Stage 5 — drop.
	inst.peer.fab.Stats.Dropped.Add(1)
}

// envPool recycles envelope shells: the transport keeps only the encoded
// bytes, so a shell is free again once the send returns.
var envPool = sync.Pool{New: func() any { return new(envelope) }}

// reindexes reports whether the instance indexes an arriving summary by
// its age alone (syncless time windows, §5.1), so the index it was sent
// with is never read.
func (inst *instance) reindexes() bool {
	return inst.peer.fab.Cfg.Syncless && inst.meta.Window.Kind == tuple.TimeWindow
}

// send moves the summary toward peer `to` on tree t, recording the level
// visited. It is the one upstream transmit: the summary leaves at once as one
// data frame, a single envelope the transport stamps as it leaves — in the
// turn that computed its age — so the receiver's flight-time addition and
// syncless re-indexing see the age the operator produced. Nothing parks and
// nothing batches. A summary the receiver re-indexes leaves without its
// index, which the codec then does not write.
func (inst *instance) send(s tuple.Summary, t, to int, ttlDown uint8) {
	if t < len(s.Levels) {
		s.Levels[t] = int16(inst.nb.Levels[t])
	}
	if inst.reindexes() {
		s.Index = tuple.Index{}
	}
	p, fab := inst.peer, inst.peer.fab
	fab.Stats.SummariesStaged.Add(1)
	env := envPool.Get().(*envelope)
	*env = envelope{S: s, Tree: t, TTLDown: ttlDown, Seq: inst.meta.Seq}
	fab.send(p.id, to, runtime.ClassData, env)
	*env = envelope{}
	envPool.Put(env)
}
