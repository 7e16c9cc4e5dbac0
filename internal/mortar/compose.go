package mortar

import (
	"repro/internal/tuple"
	"repro/internal/wire"
)

// Query composition (§2.2): a query "may take as input one or more raw
// sensor data streams or subscribe to existing data streams to compose
// complex data processing operations". Subscriptions attach to a query's
// root output stream; Chain converts each result into raw tuples for a
// downstream query whose source operator runs at the same peer. The Wi-Fi
// location service composes select -> topk -> trilat this way (§7.4).

// Subscribe invokes fn for every result the named query's root reports.
// Subscribing is synchronized and safe while queries are already live. The
// returned cancel func detaches the callback; without it a long-lived
// fabric serving transient consumers (the HTTP gateway's streams) would
// leak one callback per departed client. Cancel is idempotent and safe
// concurrently with emission — a callback already snapshotted by an
// in-flight emit may run once more after cancel returns.
func (f *Fabric) Subscribe(query string, fn func(Result)) (cancel func()) {
	return f.SubscribeAll(func(r Result) {
		if r.Query == query {
			fn(r)
		}
	})
}

// SubscribeAll invokes fn for every root-reported result of every query,
// returning a cancel func that detaches it (see Subscribe).
func (f *Fabric) SubscribeAll(fn func(Result)) (cancel func()) {
	f.subMu.Lock()
	f.subSeq++
	id := f.subSeq
	// Copy-on-write so emitResult can iterate a snapshot without holding
	// the lock across callbacks.
	subs := make([]subEntry, len(f.subs), len(f.subs)+1)
	copy(subs, f.subs)
	f.subs = append(subs, subEntry{id: id, fn: fn})
	f.subMu.Unlock()
	return func() {
		f.subMu.Lock()
		kept := make([]subEntry, 0, len(f.subs))
		for _, s := range f.subs {
			if s.id != id {
				kept = append(kept, s)
			}
		}
		f.subs = kept
		f.subMu.Unlock()
	}
}

// Chain feeds the results of query `from` into query `to` as raw tuples at
// the downstream query's root peer. Scored-entry results (top-k, union)
// fan out into one raw per entry with Vals = payload + score; scalar
// results become a single raw. The returned cancel func severs the chain
// (removing the downstream query must also stop feeding it).
func (f *Fabric) Chain(from string, toRoot int) (cancel func()) {
	return f.Subscribe(from, func(r Result) {
		for _, raw := range ResultToRaws(r) {
			f.Inject(toRoot, raw)
		}
	})
}

// ResultToRaws converts a root result into raw tuples for a downstream
// operator.
func ResultToRaws(r Result) []tuple.Raw {
	switch v := r.Value.(type) {
	case nil:
		return nil
	case []wire.ScoredEntry:
		out := make([]tuple.Raw, 0, len(v))
		for _, e := range v {
			vals := append(append([]float64(nil), e.Payload...), e.Score)
			out = append(out, tuple.Raw{Key: e.Key, Vals: vals})
		}
		return out
	case float64:
		return []tuple.Raw{{Vals: []float64{v}}}
	case []float64:
		return []tuple.Raw{{Vals: append([]float64(nil), v...)}}
	case wire.Coord:
		return []tuple.Raw{{Vals: []float64{v.X, v.Y}}}
	case map[string]float64:
		out := make([]tuple.Raw, 0, len(v))
		for k, c := range v {
			out = append(out, tuple.Raw{Key: k, Vals: []float64{c}})
		}
		return out
	default:
		return nil
	}
}
