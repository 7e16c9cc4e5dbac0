package mortar

import (
	"fmt"
	"math/rand"
	"testing"
	"time"
)

// BenchmarkReconBeat measures one reconciliation beat (sendHeartbeats on a
// beat that carries the pair hashes) at an interior peer of a 32-peer
// simrt federation hosting Q co-planned sum queries: the topology retries,
// the re-acks, the neighbor-state prune, a pair hash per child over every
// query it shares and the heartbeats' encoding. The queries share one set
// of trees, so the beat heartbeats the same children at every Q, and its
// cost over Q is what many queries add to the mesh. While the beats run the
// peer's neighbors are held down, so the transport drops the heartbeats
// after they are encoded and the simulator queues nothing.
func BenchmarkReconBeat(b *testing.B) {
	for _, q := range []int{1, 64, 1000} {
		b.Run(fmt.Sprintf("Q=%d", q), func(b *testing.B) {
			fab, rt := testbed(b, 32, 39, DefaultConfig(), nil)
			coords := uniformCoords(fab.NumPeers(), 7)
			for qi := 0; qi < q; qi++ {
				meta := sumMeta(fmt.Sprintf("q%d", qi), 0)
				meta.Seq = uint64(qi + 1)
				def, err := fab.CompileWith(meta, nil, coords, 4, 2, rand.New(rand.NewSource(42)))
				if err != nil {
					b.Fatal(err)
				}
				if err := fab.Install(0, def); err != nil {
					b.Fatal(err)
				}
			}
			rt.RunFor(3 * time.Second)
			var p *Peer
			for i := 1; i < fab.NumPeers() && p == nil; i++ {
				inst := fab.Peer(i).insts[instKey{name: "q0"}]
				if inst != nil && inst.wired && len(inst.nb.Children[0]) > 0 {
					p = fab.Peer(i)
				}
			}
			if p == nil {
				b.Fatal("no interior peer")
			}
			for _, inst := range p.insts {
				if !inst.wired {
					b.Fatalf("peer %d: %s not wired", p.id, inst.meta.Name)
				}
			}
			for i := 0; i < fab.NumPeers(); i++ {
				fab.SetDown(i, i != p.id)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				p.beat = reconcileEveryBeats - 1
				p.sendHeartbeats()
			}
		})
	}
}
