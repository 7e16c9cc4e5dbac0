package mortar

import (
	"testing"
	"time"

	"repro/internal/tuple"
	"repro/internal/wire"
)

// A summary names its operator by the Seq of the install that made it, so
// a superseded install's summaries cannot merge into the install that
// replaced it. Query q is installed (Seq 1), removed (Seq 2) and
// re-created at epoch 0 (Seq 3) on the same trees while a leaf is down:
// the leaf comes back still running Seq 1 and sends its parents Seq-1
// summaries until reconciliation hands it the removal and Seq 3. Every one
// of them is dropped and counted, and no root window closed before the
// leaf runs Seq 3 counts it.
func TestSupersededInstallDropped(t *testing.T) {
	const peers = 20
	fab, rt := testbed(t, peers, 36, DefaultConfig(), nil)
	def := installQuery(t, fab, rt, sumMeta("q", 0), 4, 2)
	for i := 0; i < peers; i++ {
		startSensor(fab, rt, i)
	}
	rt.RunFor(10 * time.Second)
	leaf := leafOf(t, def)
	parents := map[int]bool{}
	for _, pa := range fab.Peer(leaf).insts[instKey{name: "q"}].nb.Parents {
		parents[pa] = true
	}

	fab.SetDown(leaf, true)
	if err := fab.Remove(0, "q", 2); err != nil {
		t.Fatal(err)
	}
	rt.RunFor(5 * time.Second)
	again := sumMeta("q", 0)
	again.Seq = 3
	installQuery(t, fab, rt, again, 4, 2)
	rt.RunFor(5 * time.Second)
	old := fab.Peer(leaf).insts[instKey{name: "q"}]
	if old == nil || old.meta.Seq != 1 {
		t.Fatalf("leaf %d runs %+v, want the Seq 1 install it was down for the removal of", leaf, old)
	}

	// Record the leaf's summaries to its parents while it runs Seq 1 —
	// each one's own delivery must count exactly one drop, the simulator
	// running nothing else meanwhile — and every root window that closes
	// before it runs Seq 3.
	stale, merged := 0, 0
	for pa := range parents {
		rt.Handle(pa, func(src int, payload any, size int) {
			env, ok := payload.(*envelope)
			if !ok || src != leaf || fab.Peer(leaf).insts[instKey{name: "q"}] != old {
				fab.Peer(pa).deliver(src, payload, size)
				return
			}
			stale++
			if env.Seq != 1 || fab.Peer(pa).bySeq[1] != nil {
				t.Errorf("leaf summary names Seq %d; parent %d runs %v at Seq 1", env.Seq, pa, fab.Peer(pa).bySeq[1])
			}
			before := fab.Stats.Dropped.Load()
			fab.Peer(pa).deliver(src, payload, size)
			if fab.Stats.Dropped.Load()-before != 1 {
				merged++
			}
		})
	}
	var counts []int
	fab.SubscribeAll(func(r Result) {
		if fab.Peer(leaf).insts[instKey{name: "q"}] == old && r.Index.TE <= fab.Peer(0).insts[instKey{name: "q"}].frameNow() {
			counts = append(counts, r.Count)
		}
	})
	fab.SetDown(leaf, false)
	for i := 0; i < 40 && fab.Peer(leaf).insts[instKey{name: "q"}] == old; i++ {
		rt.RunFor(500 * time.Millisecond)
	}
	if cur := fab.Peer(leaf).insts[instKey{name: "q"}]; cur == old || cur == nil || cur.meta.Seq != 3 {
		t.Fatalf("leaf %d never moved to Seq 3 (runs %+v)", leaf, cur)
	}
	if stale == 0 {
		t.Fatal("the leaf sent no summary while it ran the superseded install")
	}
	if merged != 0 {
		t.Fatalf("%d of the %d summaries of the superseded install reaching its parents were not dropped", merged, stale)
	}
	if len(counts) == 0 {
		t.Fatal("no root window closed while the leaf ran Seq 1")
	}
	for _, c := range counts {
		if c >= peers {
			t.Fatalf("root windows counted %v while the leaf ran the superseded install; want at most %d each", counts, peers-1)
		}
	}
	t.Logf("leaf %d sent %d Seq-1 summaries; root counts meanwhile %v", leaf, stale, counts)
}

// A summary whose Seq names no instance, or an instance still waiting for
// its tree position, is dropped and counted.
func TestUnknownSeqDropped(t *testing.T) {
	fab, rt := testbed(t, 20, 37, DefaultConfig(), nil)
	installQuery(t, fab, rt, sumMeta("q", 0), 4, 2)
	rt.RunFor(5 * time.Second)
	p, inst := interiorPeer(t, fab, "q")
	unwired := sumMeta("u", 7) // rooted elsewhere: p asks peer 7 for its position
	unwired.Seq = 2
	p.installLocal(unwired, nil, nil, p.now())
	if u := p.bySeq[2]; u == nil || u.wired {
		t.Fatalf("Seq 2 at peer %d: %+v, want an unwired instance", p.id, u)
	}
	for _, seq := range []uint64{99, 2} {
		dropped := fab.Stats.Dropped.Load()
		p.deliver(inst.nb.Children[0][0], &envelope{
			S:      tuple.Summary{Value: 1.0, Count: 1, Levels: []int16{0, 0}},
			Seq:    seq,
			SentAt: p.now(),
		}, 0)
		if got := fab.Stats.Dropped.Load() - dropped; got != 1 {
			t.Errorf("summary naming Seq %d: %d drops counted, want 1", seq, got)
		}
	}
}

// Each live (name, epoch) owns its Seq: an install whose Seq a live
// instance of another query, or of another epoch of the same query,
// holds is refused at every peer and counted, and the running query is
// untouched.
func TestCollidingSeqInstallRefused(t *testing.T) {
	const peers = 20
	fab, rt := testbed(t, peers, 38, DefaultConfig(), nil)
	installQuery(t, fab, rt, sumMeta("q", 0), 4, 2)
	rt.RunFor(5 * time.Second)
	for _, meta := range []QueryMeta{
		{Name: "r", Seq: 1, OpName: "max", Window: sumMeta("", 0).Window},
		{Name: "q", Seq: 1, Epoch: 1, OpName: "sum", Window: sumMeta("", 0).Window},
	} {
		refused := fab.Stats.InstallsRefused.Load()
		installQuery(t, fab, rt, meta, 4, 2)
		rt.RunFor(5 * time.Second)
		if got := fab.Stats.InstallsRefused.Load() - refused; got != peers {
			t.Errorf("install of (%s, %d) at Seq 1: %d refusals counted, want %d", meta.Name, meta.Epoch, got, peers)
		}
		if n, _ := fab.Counts(meta.Name, meta.Epoch); meta.Name == "r" && n != 0 {
			t.Errorf("%d peers host r", n)
		}
	}
	if n, _ := fab.Counts("q", wire.AllEpochs); n != peers {
		t.Fatalf("%d peers host q, want %d", n, peers)
	}
	for i := 0; i < peers; i++ {
		if inst := fab.Peer(i).bySeq[1]; inst == nil || inst.meta.Name != "q" || inst.meta.Epoch != 0 {
			t.Fatalf("peer %d: Seq 1 names %+v, want (q, 0)", i, inst)
		}
		if _, ok := fab.Peer(i).insts[instKey{name: "q", epoch: 1}]; ok {
			t.Fatalf("peer %d hosts (q, 1)", i)
		}
	}
}
