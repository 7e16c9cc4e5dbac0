package mortar

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/tuple"
)

// Subscription cancel must actually detach the callback: results emitted
// after cancel never reach it, while other subscribers keep receiving.
func TestSubscribeCancelDetaches(t *testing.T) {
	cfg := DefaultConfig()
	fab, rt := testbed(t, 8, 3, cfg, nil)

	var kept, transient atomic.Uint64
	fab.SubscribeAll(func(Result) { kept.Add(1) })
	cancel := fab.SubscribeAll(func(Result) { transient.Add(1) })

	meta := QueryMeta{
		Name:   "q",
		Seq:    1,
		OpName: "count",
		Window: tuple.WindowSpec{Kind: tuple.TimeWindow, Range: time.Second, Slide: time.Second},
		Root:   0,
	}
	def, err := fab.Compile(meta, nil, uniformCoords(8, 1), 4, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := fab.Install(0, def); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		i := i
		rt.Clock(i).Every(time.Second, func() { fab.Inject(i, tuple.Raw{Vals: []float64{1}}) })
	}
	rt.Sim().RunUntil(5 * time.Second)
	if transient.Load() == 0 || kept.Load() == 0 {
		t.Fatalf("no results before cancel: kept=%d transient=%d", kept.Load(), transient.Load())
	}
	cancel()
	cancel() // idempotent
	atCancel := transient.Load()
	keptAtCancel := kept.Load()
	rt.Sim().RunUntil(12 * time.Second)
	if got := transient.Load(); got != atCancel {
		t.Fatalf("canceled subscriber still receiving: %d results after cancel", got-atCancel)
	}
	if kept.Load() <= keptAtCancel {
		t.Fatal("surviving subscriber stopped receiving after a sibling's cancel")
	}
}

// Subscribing, canceling, and emitting concurrently must be race-clean
// (copy-on-write snapshots): this is the pattern of gateway clients
// attaching and disconnecting while roots report. Run under -race by the
// tier-1 suite.
func TestSubscribeCancelRace(t *testing.T) {
	f := &Fabric{}
	stop := make(chan struct{})
	emitterDone := make(chan struct{})
	go func() { // emitter: the root peer's report path
		defer close(emitterDone)
		for {
			select {
			case <-stop:
				return
			default:
				f.emitResult(Result{Query: "q"})
			}
		}
	}()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() { // churning clients
			defer wg.Done()
			for i := 0; i < 500; i++ {
				c1 := f.SubscribeAll(func(Result) {})
				c2 := f.Subscribe("q", func(Result) {})
				c1()
				c2()
			}
		}()
	}
	wg.Wait()
	close(stop)
	<-emitterDone
	f.subMu.Lock()
	n := len(f.subs)
	f.subMu.Unlock()
	if n != 0 {
		t.Fatalf("%d subscriptions leaked after every client canceled", n)
	}
}

// Every transmitted message lands in exactly one accounting bucket: the
// class totals split data from control, and the control total splits into
// shared-mesh bytes plus per-query attributable bytes.
func TestTrafficAccountingBuckets(t *testing.T) {
	cfg := DefaultConfig()
	fab, rt := testbed(t, 12, 7, cfg, nil)
	meta := QueryMeta{
		Name:   "acct",
		Seq:    1,
		OpName: "count",
		Window: tuple.WindowSpec{Kind: tuple.TimeWindow, Range: time.Second, Slide: time.Second},
		Root:   0,
	}
	def, err := fab.Compile(meta, nil, uniformCoords(12, 2), 4, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := fab.Install(0, def); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 12; i++ {
		i := i
		rt.Clock(i).Every(time.Second, func() { fab.Inject(i, tuple.Raw{Vals: []float64{1}}) })
	}
	rt.Sim().RunUntil(30 * time.Second)

	ctl := fab.Stats.ControlBytes.Load()
	data := fab.Stats.DataBytes.Load()
	shared := fab.Stats.SharedCtlBytes.Load()
	qctl, qdata := fab.QueryTraffic("acct")
	if ctl == 0 || data == 0 || shared == 0 || qctl == 0 || qdata == 0 {
		t.Fatalf("a bucket stayed empty: ctl=%d data=%d shared=%d qctl=%d qdata=%d",
			ctl, data, shared, qctl, qdata)
	}
	if shared+qctl != ctl {
		t.Fatalf("control bytes do not reconcile: shared=%d + query=%d != total=%d",
			shared, qctl, ctl)
	}
	if qdata != data {
		t.Fatalf("data bytes do not reconcile: query=%d != total=%d", qdata, data)
	}
	if c2, d2 := fab.QueryTraffic("nonesuch"); c2 != 0 || d2 != 0 {
		t.Fatalf("unknown query reports traffic: %d/%d", c2, d2)
	}
}
