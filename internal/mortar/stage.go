package mortar

import (
	"sort"
	"sync"
	"time"

	"repro/internal/runtime"
	"repro/internal/tuple"
	"repro/internal/wire"
)

// Hold-and-batch staging: the one upstream summary path. Instead of
// transmitting every summary the moment the routing policy picks its next
// hop, peers park summaries in a small per-next-hop staging buffer, and
// everything parked at flush time leaves as one multi-summary envelope
// batch instead of one frame each — the summaries co-planned tenants send a
// shared parent within milliseconds of each other, above all. Merging
// across space happens in the time-space list, which forwards a window
// once, when its subtree is counted (instance.evictComplete); what still
// merges here, in place through the operator's combine, is a summary
// parked for the same (query, epoch, window, tree) as another: stragglers
// relayed past an operator whose window had already left.
//
// Three events flush a buffer: the batch approaching the configured byte
// ceiling (Config.SummaryBatchBytes), the hold timer (Config.SummaryHold,
// a fraction of the heartbeat period — the bound on added per-hop
// latency), and the epoch-retirement barrier (beginDrain flushes so a
// retiring epoch's last windows are not still parked when its drain
// period starts counting). A negative hold flushes at once: every summary
// leaves alone in its own frame, the uncoalesced reference.
//
// Age bookkeeping is exact: each staged entry records when it was parked,
// its age advances by the park time (local-frame, via the peer's clock
// model) whenever it merges or flushes, and the batch's shared SentAt is
// stamped at flush — so the receiver's flight-time addition and syncless
// re-indexing see the same ages an unstaged path would have produced.

// stagedEnv is one parked summary. Stored by value in the buffer's slice:
// recycling the slice recycles the entries, so steady-state staging
// allocates nothing per summary.
type stagedEnv struct {
	env    envelope
	inst   *instance
	parkAt time.Duration // runtime time the age was last brought current
	n      int           // merged constituents (age weighting, as in tslist)
	// owned marks the value as exclusively this entry's, making in-place
	// combining safe. Values relayed from a received envelope are borrowed
	// (an in-process transport that duplicates delivery hands the same
	// envelope — and value — to the handler twice); the first copying
	// combine produces a fresh, owned value.
	owned bool
}

// stageBuf holds the summaries parked for one next-hop peer. The hold
// timer is per destination and armed when the first summary parks in an
// empty buffer, so an undisturbed buffer's hold is a constant — a variable
// hold would jitter the phase of periodic result streams, and a chained
// query windowing another query's results would see its inputs straddle
// slide boundaries.
type stageBuf struct {
	entries []stagedEnv
	bytes   int // running wire-size estimate
	timer   runtime.Timer
	// flush is the hold-timer callback, built once when the buffer is
	// created: arming the timer with a fresh closure would put one on the
	// heap per hold cycle.
	flush func()
}

// batchPool recycles envelope-batch shells (and their entry slices) on
// transports that consume frame bytes synchronously; in-process backends
// retain the payload in the receiver's mailbox and get fresh ones.
var batchPool = sync.Pool{New: func() any { return new(wire.EnvelopeBatch) }}

// envPool recycles single-envelope shells under the same rule.
var envPool = sync.Pool{New: func() any { return new(envelope) }}

// stageSummary parks a summary bound for peer `to` on tree t, merging it
// into an already-parked summary of the same (query, epoch, window, tree)
// when one exists. owned reports whether s.Value is exclusively the
// caller's (see stagedEnv.owned).
func (p *Peer) stageSummary(inst *instance, s tuple.Summary, t, to int, ttlDown uint8, owned bool) {
	p.fab.Stats.SummariesStaged.Add(1)
	buf := p.stage[to]
	if buf == nil {
		buf = &stageBuf{}
		buf.flush = func() { p.flushStage(to, buf) }
		if p.stage == nil {
			p.stage = make(map[int]*stageBuf)
		}
		p.stage[to] = buf
	}
	now := p.now()
	for i := range buf.entries {
		e := &buf.entries[i]
		if e.inst != inst || e.env.Tree != t || !e.env.S.Index.Equal(s.Index) {
			continue
		}
		// Bring the parked age current, then fold in the arrival the way
		// the time-space list does: count accumulates, ages average over
		// constituents, hops and TTL-down take the conservative maximum.
		e.env.S.Age += p.clock.Elapsed(now - e.parkAt)
		e.parkAt = now
		if !s.Boundary {
			e.env.S.Boundary = false
			switch {
			case s.Value == nil:
				// Nothing to fold; the parked value (possibly nil) stands.
			case e.env.S.Value == nil:
				e.env.S.Value = s.Value
				e.owned = owned
			case e.owned && inst.combineIP != nil:
				e.env.S.Value = inst.combineIP.CombineInto(e.env.S.Value, s.Value)
			default:
				e.env.S.Value = inst.op.Combine(e.env.S.Value, s.Value)
				e.owned = true // Combine allocated a fresh value
			}
		}
		e.env.S.Count += s.Count
		e.env.S.Age = (e.env.S.Age*time.Duration(e.n) + s.Age) / time.Duration(e.n+1)
		e.n++
		if s.Hops > e.env.S.Hops {
			e.env.S.Hops = s.Hops
		}
		if ttlDown > e.env.TTLDown {
			e.env.TTLDown = ttlDown
		}
		// Both vectors are exclusively ours by the time send() stages them
		// (cloned at eviction or before relay), so the fold is in place.
		e.env.S.Levels = tuple.MergeLevelsInto(e.env.S.Levels, s.Levels)
		p.fab.Stats.SummariesCoalesced.Add(1)
		return
	}
	buf.entries = append(buf.entries, stagedEnv{
		env:    envelope{S: s, Tree: t, TTLDown: ttlDown, Epoch: inst.meta.Epoch},
		inst:   inst,
		parkAt: now,
		n:      1,
		owned:  owned,
	})
	buf.bytes += wire.SummaryWireSize(&s)
	if buf.bytes >= p.fab.batchBytes || p.fab.Cfg.SummaryHold < 0 {
		p.flushStage(to, buf)
		return
	}
	if len(buf.entries) == 1 {
		buf.timer = p.rtc.After(p.fab.Cfg.SummaryHold, buf.flush)
	}
}

// flushStages transmits every staged buffer — the hold-timer path and the
// drain barrier. Destinations flush in ascending order: map iteration must
// never order anything behavior-visible (simulated runs are bit-for-bit
// deterministic).
func (p *Peer) flushStages() {
	if len(p.stage) == 0 {
		return
	}
	dests := make([]int, 0, len(p.stage))
	for to, buf := range p.stage {
		if len(buf.entries) > 0 {
			dests = append(dests, to)
		}
	}
	sort.Ints(dests)
	for _, to := range dests {
		p.flushStage(to, p.stage[to])
	}
}

// flushStage transmits one buffer: a single envelope when one summary is
// parked, an envelope batch otherwise. Entry ages advance by their park
// time and the transmit stamp is taken here, so flight-time accounting at
// the receiver is exact.
func (p *Peer) flushStage(to int, buf *stageBuf) {
	if len(buf.entries) == 0 {
		return
	}
	if buf.timer != nil {
		buf.timer.Cancel()
		buf.timer = nil
	}
	now := p.now()
	fab := p.fab
	if len(buf.entries) == 1 {
		e := &buf.entries[0]
		e.env.S.Age += p.clock.Elapsed(now - e.parkAt)
		e.env.SentAt = now
		var env *envelope
		if fab.consumesBytes {
			env = envPool.Get().(*envelope)
		} else {
			env = new(envelope)
		}
		*env = e.env
		fab.send(p.id, to, runtime.ClassData, env)
		if fab.consumesBytes {
			*env = envelope{}
			envPool.Put(env)
		}
	} else {
		var b *wire.EnvelopeBatch
		if fab.consumesBytes {
			b = batchPool.Get().(*wire.EnvelopeBatch)
		} else {
			b = new(wire.EnvelopeBatch)
		}
		b.SentAt = now
		b.Envelopes = b.Envelopes[:0]
		for i := range buf.entries {
			e := &buf.entries[i]
			e.env.S.Age += p.clock.Elapsed(now - e.parkAt)
			e.env.SentAt = now
			b.Envelopes = append(b.Envelopes, e.env)
		}
		fab.send(p.id, to, runtime.ClassData, b)
		if fab.consumesBytes {
			for i := range b.Envelopes {
				b.Envelopes[i] = envelope{}
			}
			batchPool.Put(b)
		}
	}
	for i := range buf.entries {
		buf.entries[i] = stagedEnv{}
	}
	buf.entries = buf.entries[:0]
	buf.bytes = 0
}
