// Package livert hosts a whole federation in one netrt runtime, behind one loopback UDP socket.
package livert

import (
	"math/rand"
	"sync"
	"time"

	"repro/internal/runtime/netrt"
)

// Options: each frame is held a uniform [MinDelay, MaxDelay]; Loss and CtrlDup are netrt's.
type Options struct {
	Seed               int64
	MinDelay, MaxDelay time.Duration
	Loss, CtrlDup      float64
}

// Runtime is a netrt runtime hosting every peer.
type Runtime struct{ *netrt.Runtime }

// New starts n peers behind one deep-buffered socket; it panics if it cannot bind.
func New(n int, opt Options) *Runtime {
	var mu sync.Mutex
	rng := rand.New(rand.NewSource(opt.Seed ^ 0x6c697665))
	delay := func(int, int) time.Duration {
		mu.Lock()
		defer mu.Unlock()
		return opt.MinDelay + time.Duration(rng.Int63n(int64(max(opt.MaxDelay-opt.MinDelay, 0))+1))
	}
	all := make([]int, n)
	for i := range all {
		all[i] = i
	}
	rts, _, err := netrt.NewGroup([][]int{all}, netrt.Options{Seed: opt.Seed, PeersPerSocket: n, PairDelay: delay, ReadBuffer: 4 << 20})
	if err != nil {
		panic(err)
	}
	rts[0].SetLoss(opt.Loss)
	rts[0].SetCtrlDup(opt.CtrlDup)
	return &Runtime{rts[0]}
}

// Stats is the frame ledger: dropped is every copy no mailbox got.
func (r *Runtime) Stats() (sent, delivered, dropped, duplicated uint64) {
	_, delivered, _ = r.Runtime.Stats()
	ns := r.NetStats()
	sent, duplicated = ns.CtlFrames+ns.DataFrames, ns.Duplicated
	return sent, delivered, sent + duplicated - min(delivered, sent+duplicated), duplicated
}
