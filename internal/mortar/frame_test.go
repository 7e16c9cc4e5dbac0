package mortar

import (
	"testing"
	"time"
)

// A member's frame is the root's whichever path installed it: the install
// multicast, reconciliation after it was down for the multicast — a leaf
// adopting the query from its parent's reply, an interior peer (and the
// members its install chunk forwarded to) from whichever of a parent's
// reply or a child's probe comes first — or a replan's second epoch, which the root starts in its running epoch's
// frame. With perfect clocks every one reads the root's frameNow to the
// nanosecond.
func TestFrameSameWhicheverPathInstalled(t *testing.T) {
	const peers = 30
	fab, rt := testbed(t, peers, 41, DefaultConfig(), nil)
	def := epochQuery(t, fab, 1, 0, 7)
	for i := 0; i < peers; i++ {
		startSensor(fab, rt, i)
	}
	leaf, interior := leafOf(t, def), -1
	sizes := def.subtreeSizes()
	for mi := 1; mi < len(def.Members) && interior < 0; mi++ {
		if len(neighborsFor(def, sizes, mi).Children[0]) > 0 {
			interior = def.Members[mi]
		}
	}
	if interior < 0 {
		t.Fatal("plan has no interior member")
	}
	fab.SetDown(leaf, true)
	fab.SetDown(interior, true)
	rt.RunFor(time.Second)
	if err := fab.Install(0, def); err != nil {
		t.Fatal(err)
	}
	rt.RunFor(3 * time.Second)
	for _, p := range []int{leaf, interior} {
		if _, ok := fab.Peer(p).insts[instKey{name: "mig"}]; ok {
			t.Fatalf("peer %d installed the query while down", p)
		}
	}
	fab.SetDown(leaf, false)
	fab.SetDown(interior, false)
	rt.RunFor(20 * time.Second)
	if _, wired := fab.Counts("mig", 0); wired != peers {
		t.Fatalf("%d of %d peers wired after reconciliation", wired, peers)
	}
	requireRootFrame(t, fab, 0)

	if err := fab.Install(0, epochQuery(t, fab, 2, 1, 8)); err != nil {
		t.Fatal(err)
	}
	rt.RunFor(time.Second)
	if _, wired := fab.Counts("mig", 1); wired != peers {
		t.Fatalf("epoch 1 wired on %d of %d peers", wired, peers)
	}
	requireRootFrame(t, fab, 0)
	requireRootFrame(t, fab, 1)
}

// requireRootFrame fails unless every peer hosting the epoch of "mig"
// reads the frame time the root's epoch 0 reads.
func requireRootFrame(t *testing.T, fab *Fabric, epoch uint32) {
	t.Helper()
	want := fab.Peer(0).insts[instKey{name: "mig"}].frameNow()
	for i := 0; i < fab.NumPeers(); i++ {
		if inst, ok := fab.Peer(i).insts[instKey{name: "mig", epoch: epoch}]; ok && inst.frameNow() != want {
			t.Errorf("peer %d epoch %d frame reads %v, the root's %v", i, epoch, inst.frameNow(), want)
		}
	}
}
