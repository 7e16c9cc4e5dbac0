package mortar

import (
	"sync"

	"repro/internal/runtime"
	"repro/internal/tuple"
	"repro/internal/wire"
)

// Per-turn batching: the one upstream summary path. A summary the routing
// policy has picked a next hop for parks only until the turn that produced
// it ends, and everything one turn parked for one next hop leaves as one
// frame — an envelope batch when there are several, a single envelope
// otherwise. A turn is the message, clock callback or ingest batch the peer
// is handling: flushStages runs at the end of the five entry points that can
// reach instance.send (Peer.deliver, injectRawBatch, closeSlide,
// evictExpired, the tuple-window stall tick), so a summary never parks
// across turns and staging adds no latency.
//
// Nothing merges here. Merging across space happens in the time-space list,
// which forwards a window once, when its subtree is counted
// (instance.evictComplete); two summaries of one (query, epoch, window,
// tree) parked in one turn travel side by side, and the parent's time-space
// list sums them exactly as it would have summed their merge. What a turn
// still batches: a child's batch completing several co-planned tenants'
// windows, one evictExpired expiring several windows, and a relayed batch's
// stragglers.
//
// One event flushes a buffer before its turn ends: the batch reaching the
// byte ceiling (Config.SummaryBatchBytes). The transmit stamp is taken at
// flush, in the turn that computed the ages, so the receiver's flight-time
// addition and syncless re-indexing see the ages the operator produced.

// stageBuf holds the summaries the current turn has parked for one next-hop
// peer. Entries are stored by value: recycling the slice recycles them, so
// steady-state staging allocates nothing per summary.
type stageBuf struct {
	entries []envelope
	bytes   int // running wire-size estimate
}

// batchPool recycles envelope-batch shells (and their entry slices) on
// transports that consume frame bytes synchronously; in-process backends
// retain the payload in the receiver's mailbox and get fresh ones.
var batchPool = sync.Pool{New: func() any { return new(wire.EnvelopeBatch) }}

// envPool recycles single-envelope shells under the same rule.
var envPool = sync.Pool{New: func() any { return new(envelope) }}

// stageSummary parks a summary bound for peer `to` on tree t until the turn
// ends (flushStages) or the buffer reaches the byte ceiling.
func (p *Peer) stageSummary(inst *instance, s tuple.Summary, t, to int, ttlDown uint8) {
	p.fab.Stats.SummariesStaged.Add(1)
	buf := p.stage[to]
	if buf == nil {
		buf = &stageBuf{}
		if p.stage == nil {
			p.stage = make(map[int]*stageBuf)
		}
		p.stage[to] = buf
	}
	if len(buf.entries) == 0 {
		p.staged = append(p.staged, to)
	}
	buf.entries = append(buf.entries, envelope{S: s, Tree: t, TTLDown: ttlDown, Epoch: inst.meta.Epoch})
	buf.bytes += wire.SummaryWireSize(&s)
	if buf.bytes >= p.fab.batchBytes {
		p.flushStage(to, buf)
	}
}

// flushStages ends a turn: every buffer the turn parked into transmits, in
// the order its first summary parked (a ceiling flush mid-turn may list a
// destination twice; an empty buffer is skipped).
func (p *Peer) flushStages() {
	if len(p.staged) == 0 {
		return
	}
	for _, to := range p.staged {
		p.flushStage(to, p.stage[to])
	}
	p.staged = p.staged[:0]
}

// flushStage transmits one buffer: a single envelope when one summary is
// parked, an envelope batch otherwise.
func (p *Peer) flushStage(to int, buf *stageBuf) {
	if len(buf.entries) == 0 {
		return
	}
	now := p.now()
	fab := p.fab
	if len(buf.entries) == 1 {
		var env *envelope
		if fab.consumesBytes {
			env = envPool.Get().(*envelope)
		} else {
			env = new(envelope)
		}
		*env = buf.entries[0]
		env.SentAt = now
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
		b.Envelopes = append(b.Envelopes[:0], buf.entries...)
		for i := range b.Envelopes {
			b.Envelopes[i].SentAt = now
		}
		fab.send(p.id, to, runtime.ClassData, b)
		if fab.consumesBytes {
			clear(b.Envelopes)
			batchPool.Put(b)
		}
	}
	clear(buf.entries)
	buf.entries = buf.entries[:0]
	buf.bytes = 0
}
