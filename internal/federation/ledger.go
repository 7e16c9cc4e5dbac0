package federation

import (
	"slices"
	"sort"
	"sync"

	"repro/internal/mortar"
)

const (
	// ledgerWindows is how many windows the ledger keeps per query: what a
	// reconnecting stream replays and what GET .../windows serves.
	ledgerWindows = 64
	// streamDepth is each stream subscriber's channel depth: as many reports
	// as the ledger keeps windows, so a reader may fall that far behind the
	// root before it loses its tail.
	streamDepth = 64
)

// Ledger is the federation's one record of root results, kept per query.
// During a make-before-break migration both plan epochs report each window
// and the best report — the highest Count — is the federation's result for
// it, so every window holds one slot: a late report (an older epoch's, or
// one that trails a newer window) takes or improves its own window's slot
// and is never placed behind newer windows. The ledger also fans every
// report out to stream subscribers, dropping on a full channel so a slow
// reader loses its own tail instead of back-pressuring the root peer.
//
// Record runs inside the root peer's serialization domain. It takes only
// the ledger's mutex, and nothing is acquired or waited on while that mutex
// is held, so the ledger may be entered with Federation.mu held (RemoveQuery
// does, across an ExecWait into the root) but the report path must never
// take Federation.mu.
type Ledger struct {
	mu      sync.Mutex
	queries map[string]*ledgerEntry // installed queries only
}

// ledgerEntry is one query's record.
type ledgerEntry struct {
	windows []mortar.Result // best report per window, ascending, the last ledgerWindows
	best    int             // highest Count of any report
	subs    map[chan mortar.Result]struct{}
}

func newLedger() *Ledger { return &Ledger{queries: map[string]*ledgerEntry{}} }

// arm starts recording a query (InstallQuery); re-arming a removed name
// starts it afresh.
func (l *Ledger) arm(name string) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.queries[name] == nil {
		l.queries[name] = &ledgerEntry{subs: map[chan mortar.Result]struct{}{}}
	}
}

// drop forgets a query (RemoveQuery) and closes its streams; its late
// reports are ignored from then on.
func (l *Ledger) drop(name string) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if e := l.queries[name]; e != nil {
		for ch := range e.subs {
			delete(e.subs, ch)
			close(ch)
		}
		delete(l.queries, name)
	}
}

// Record files one root report. It is the ledger's fabric subscription;
// reports of a query not installed through this federation are ignored.
func (l *Ledger) Record(r mortar.Result) {
	l.mu.Lock()
	defer l.mu.Unlock()
	e := l.queries[r.Query]
	if e == nil {
		return
	}
	w := e.windows
	i := sort.Search(len(w), func(i int) bool { return w[i].WindowIndex >= r.WindowIndex })
	switch {
	case i < len(w) && w[i].WindowIndex == r.WindowIndex:
		if r.Count >= w[i].Count {
			w[i] = r
		}
	case i == 0 && len(w) == ledgerWindows:
		// older than every window kept
	default:
		w = slices.Insert(w, i, r)
		if len(w) > ledgerWindows {
			w = slices.Delete(w, 0, 1)
		}
		e.windows = w
	}
	e.best = max(e.best, r.Count)
	for ch := range e.subs {
		select {
		case ch <- r:
		default: // reader slower than the root: it loses this report
		}
	}
}

// Latest returns the query's newest window and its best count (zeros
// before the first report).
func (l *Ledger) Latest(query string) (window int64, count int) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if e := l.queries[query]; e != nil && len(e.windows) > 0 {
		r := e.windows[len(e.windows)-1]
		return r.WindowIndex, r.Count
	}
	return 0, 0
}

// Best returns the highest count any of the query's windows has reached.
func (l *Ledger) Best(query string) int {
	l.mu.Lock()
	defer l.mu.Unlock()
	if e := l.queries[query]; e != nil {
		return e.best
	}
	return 0
}

// Window returns the best count of one of the query's kept windows.
func (l *Ledger) Window(query string, idx int64) (count int, ok bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if e := l.queries[query]; e != nil {
		for _, r := range e.windows {
			if r.WindowIndex == idx {
				return r.Count, true
			}
		}
	}
	return 0, false
}

// Windows copies the query's kept windows in window order; ok is false for
// a query that is not installed.
func (l *Ledger) Windows(query string) (windows []mortar.Result, ok bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	e := l.queries[query]
	if e == nil {
		return nil, false
	}
	return slices.Clone(e.windows), true
}

// Queries lists the installed queries' names in order.
func (l *Ledger) Queries() []string {
	l.mu.Lock()
	defer l.mu.Unlock()
	names := make([]string, 0, len(l.queries))
	for name := range l.queries {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// Subscribe attaches a stream reader to a query: the kept windows from
// window `from` on, then every report as the root makes it, late ones and
// both epochs' included. The channel closes when the query is removed or
// cancel is called; ok is false for a query that is not installed.
func (l *Ledger) Subscribe(query string, from int64) (replay []mortar.Result, ch <-chan mortar.Result, cancel func(), ok bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	e := l.queries[query]
	if e == nil {
		return nil, nil, nil, false
	}
	for _, r := range e.windows {
		if r.WindowIndex >= from {
			replay = append(replay, r)
		}
	}
	c := make(chan mortar.Result, streamDepth)
	e.subs[c] = struct{}{}
	return replay, c, func() {
		l.mu.Lock()
		defer l.mu.Unlock()
		if _, live := e.subs[c]; live {
			delete(e.subs, c)
			close(c)
		}
	}, true
}
