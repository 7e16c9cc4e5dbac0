// Package gateway is the serving plane: an HTTP/JSON front door hosted by
// the coordinator process that turns a running federation into a
// multi-tenant continuous-query service. Clients install queries from a
// JSON spec, list them with per-query epoch/completeness/traffic status,
// stream per-window results as NDJSON or SSE, and remove them — the
// consumption model of the paper's LoGS case study, where many independent
// long-lived queries feed dashboards rather than processes linked into the
// coordinator.
//
// The gateway deliberately sits outside the data path: one fabric
// subscription fans results into per-query bounded caches and per-client
// stream channels, so a reconnecting reader catches up from the cache with
// zero federation traffic, and a slow reader loses its own tail (drop on
// full channel) instead of back-pressuring the root peer. Admission
// control — a query-count ceiling, per-client install rate limits, and an
// in-flight install cap — protects the shared mesh from tenant misuse.
package gateway

import (
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/federation"
	"repro/internal/mortar"
	"repro/internal/tuple"
)

// Options tunes the serving plane. Zero values pick the defaults.
type Options struct {
	// MaxQueries caps installed queries; installs past it get 429.
	// Default 256.
	MaxQueries int
	// CacheWindows bounds the per-query result cache (last N windows)
	// serving read-only clients and reconnect catch-up. Default 64.
	CacheWindows int
	// InstallRate is the sustained per-client install rate in
	// installs/second; InstallBurst is the bucket depth. Zero rate
	// disables per-client limiting.
	InstallRate  float64
	InstallBurst int
	// MaxPendingInstalls bounds concurrently in-flight install/remove
	// multicasts (backpressure toward the mesh). Default 8.
	MaxPendingInstalls int
	// MaxStreams bounds concurrently open result streams. Default 256.
	MaxStreams int
	// StreamBuffer is each stream subscriber's channel depth; a reader
	// slower than the root's report rate loses its tail. Default 64.
	StreamBuffer int
}

func (o Options) withDefaults() Options {
	if o.MaxQueries <= 0 {
		o.MaxQueries = 256
	}
	if o.CacheWindows <= 0 {
		o.CacheWindows = 64
	}
	if o.InstallBurst <= 0 {
		o.InstallBurst = 4
	}
	if o.MaxPendingInstalls <= 0 {
		o.MaxPendingInstalls = 8
	}
	if o.MaxStreams <= 0 {
		o.MaxStreams = 256
	}
	if o.StreamBuffer <= 0 {
		o.StreamBuffer = 64
	}
	return o
}

// Spec is the JSON install body: the wire form of federation.QuerySpec.
// Exactly one of window_ms (time window) or window_tuples (count window)
// must be set; slide defaults to the range (non-overlapping windows).
type Spec struct {
	Name         string   `json:"name"`
	Op           string   `json:"op"`
	Args         []string `json:"args,omitempty"`
	Source       string   `json:"source,omitempty"`
	FilterKey    string   `json:"filter_key,omitempty"`
	WindowMS     int64    `json:"window_ms,omitempty"`
	SlideMS      int64    `json:"slide_ms,omitempty"`
	WindowTuples int      `json:"window_tuples,omitempty"`
	SlideTuples  int      `json:"slide_tuples,omitempty"`
	Trees        int      `json:"trees,omitempty"`
	BF           int      `json:"bf,omitempty"`
}

// toQuerySpec validates the JSON-level shape and converts to the
// federation's spec; semantic validation (operator registry, window
// bounds) happens inside InstallQuery.
func (sp Spec) toQuerySpec() (federation.QuerySpec, error) {
	var w tuple.WindowSpec
	switch {
	case sp.WindowMS > 0 && sp.WindowTuples > 0:
		return federation.QuerySpec{}, errors.New("spec: window_ms and window_tuples are mutually exclusive")
	case sp.WindowMS > 0:
		w.Kind = tuple.TimeWindow
		w.Range = time.Duration(sp.WindowMS) * time.Millisecond
		w.Slide = w.Range
		if sp.SlideMS > 0 {
			w.Slide = time.Duration(sp.SlideMS) * time.Millisecond
		}
	case sp.WindowTuples > 0:
		w.Kind = tuple.TupleWindow
		w.RangeN = sp.WindowTuples
		w.SlideN = sp.WindowTuples
		if sp.SlideTuples > 0 {
			w.SlideN = sp.SlideTuples
		}
	default:
		return federation.QuerySpec{}, errors.New("spec: one of window_ms or window_tuples is required")
	}
	return federation.QuerySpec{
		Name:      sp.Name,
		Op:        sp.Op,
		Args:      sp.Args,
		Source:    sp.Source,
		FilterKey: sp.FilterKey,
		Window:    w,
		Trees:     sp.Trees,
		BF:        sp.BF,
	}, nil
}

// WindowResult is one streamed/cached per-window record.
type WindowResult struct {
	Query        string      `json:"query"`
	Epoch        uint32      `json:"epoch"`
	Window       int64       `json:"window"`
	Value        tuple.Value `json:"value"`
	Completeness int         `json:"completeness"`
	Hops         int         `json:"hops"`
	AtMS         int64       `json:"at_ms"`
}

// QueryInfo is one list-endpoint entry: the federation's installation
// status joined with the gateway's observed result stream.
type QueryInfo struct {
	Name       string `json:"name"`
	Epoch      uint32 `json:"epoch"`
	Members    int    `json:"members"`
	Installed  int    `json:"installed"`
	Wired      int    `json:"wired"`
	LastWindow int64  `json:"last_window"`
	// Completeness is the best per-window participant count seen at this
	// gateway (max across epochs, per the migration contract).
	Completeness int    `json:"completeness"`
	CtlBytes     uint64 `json:"ctl_bytes"`
	DataBytes    uint64 `json:"data_bytes"`
}

// queryState is the gateway's per-query fan-out: a bounded window cache
// plus the live stream subscribers.
type queryState struct {
	mu      sync.Mutex
	cache   []WindowResult // ascending window order, last CacheWindows entries
	subs    map[uint64]chan WindowResult
	subSeq  uint64
	lastWin int64
	best    int // max completeness observed across windows and epochs
	closed  bool
}

// Server is the HTTP serving plane over one federation.
type Server struct {
	fed *federation.Federation
	opt Options
	mux *http.ServeMux

	unsub func()
	done  chan struct{}
	once  sync.Once

	mu         sync.Mutex
	queries    map[string]*queryState
	removed    map[string]bool
	buckets    map[string]*bucket
	installing int
	streams    int
}

// bucket is a per-client token bucket for install admission.
type bucket struct {
	tokens float64
	last   time.Time
}

// NewServer builds the serving plane over a running federation. The single
// fabric subscription it takes is released by Close.
func NewServer(fed *federation.Federation, opt Options) *Server {
	s := &Server{
		fed:     fed,
		opt:     opt.withDefaults(),
		mux:     http.NewServeMux(),
		done:    make(chan struct{}),
		queries: map[string]*queryState{},
		removed: map[string]bool{},
		buckets: map[string]*bucket{},
	}
	s.mux.HandleFunc("POST /v1/queries", s.handleInstall)
	s.mux.HandleFunc("GET /v1/queries", s.handleList)
	s.mux.HandleFunc("GET /v1/queries/{name}", s.handleGet)
	s.mux.HandleFunc("DELETE /v1/queries/{name}", s.handleRemove)
	s.mux.HandleFunc("GET /v1/queries/{name}/results", s.handleStream)
	s.mux.HandleFunc("GET /v1/queries/{name}/windows", s.handleWindows)
	s.mux.HandleFunc("GET /v1/stats", s.handleStats)
	s.unsub = fed.Fab.SubscribeAll(s.onResult)
	return s
}

// Close detaches the gateway from the fabric and terminates every open
// stream. Idempotent; requests arriving after Close get 503.
func (s *Server) Close() {
	s.once.Do(func() {
		s.unsub()
		close(s.done)
		s.mu.Lock()
		states := make([]*queryState, 0, len(s.queries))
		for _, q := range s.queries {
			states = append(states, q)
		}
		s.mu.Unlock()
		for _, q := range states {
			q.close()
		}
	})
}

func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	select {
	case <-s.done:
		http.Error(w, "gateway shut down", http.StatusServiceUnavailable)
		return
	default:
	}
	s.mux.ServeHTTP(w, r)
}

// onResult is the fabric fan-in: it runs on the root peer's report path,
// so it only moves the record into per-query state and never blocks (slow
// stream readers drop their own tail).
func (s *Server) onResult(r mortar.Result) {
	s.mu.Lock()
	if s.removed[r.Query] {
		s.mu.Unlock()
		return
	}
	q := s.queries[r.Query]
	if q == nil {
		q = &queryState{subs: map[uint64]chan WindowResult{}}
		s.queries[r.Query] = q
	}
	s.mu.Unlock()
	wr := WindowResult{
		Query:        r.Query,
		Epoch:        r.Epoch,
		Window:       r.WindowIndex,
		Value:        r.Value,
		Completeness: r.Count,
		Hops:         r.Hops,
		AtMS:         r.At.Milliseconds(),
	}
	q.ingest(wr, s.opt.CacheWindows)
}

// ingest merges one result into the cache (replacing a same-window entry
// only for a better completeness — during migrations both epochs report
// and the per-window max is the contract) and fans it to subscribers.
func (q *queryState) ingest(wr WindowResult, cap int) {
	q.mu.Lock()
	if q.closed {
		q.mu.Unlock()
		return
	}
	if n := len(q.cache); n > 0 && q.cache[n-1].Window == wr.Window {
		if wr.Completeness >= q.cache[n-1].Completeness {
			q.cache[n-1] = wr
		}
	} else {
		q.cache = append(q.cache, wr)
		if len(q.cache) > cap {
			q.cache = append(q.cache[:0], q.cache[len(q.cache)-cap:]...)
		}
	}
	if wr.Window > q.lastWin {
		q.lastWin = wr.Window
	}
	if wr.Completeness > q.best {
		q.best = wr.Completeness
	}
	subs := make([]chan WindowResult, 0, len(q.subs))
	for _, ch := range q.subs {
		subs = append(subs, ch)
	}
	q.mu.Unlock()
	for _, ch := range subs {
		select {
		case ch <- wr:
		default: // reader slower than the root: it loses this record
		}
	}
}

// subscribe attaches a stream reader: a snapshot of the cache from window
// `from` plus a live channel. cancel detaches and closes the channel.
func (q *queryState) subscribe(from int64, depth int) (replay []WindowResult, ch chan WindowResult, cancel func()) {
	ch = make(chan WindowResult, depth)
	q.mu.Lock()
	for _, wr := range q.cache {
		if wr.Window >= from {
			replay = append(replay, wr)
		}
	}
	q.subSeq++
	id := q.subSeq
	if q.closed {
		close(ch)
	} else {
		q.subs[id] = ch
	}
	q.mu.Unlock()
	return replay, ch, func() {
		q.mu.Lock()
		if _, ok := q.subs[id]; ok {
			delete(q.subs, id)
			close(ch)
		}
		q.mu.Unlock()
	}
}

// close terminates every subscriber (query removed or gateway shut down).
func (q *queryState) close() {
	q.mu.Lock()
	for id, ch := range q.subs {
		delete(q.subs, id)
		close(ch)
	}
	q.closed = true
	q.mu.Unlock()
}

// snapshot returns the cached windows and observed stream stats.
func (q *queryState) snapshot() (cache []WindowResult, lastWin int64, best int) {
	q.mu.Lock()
	defer q.mu.Unlock()
	return append([]WindowResult(nil), q.cache...), q.lastWin, q.best
}

// clientKey identifies a client for rate limiting: the remote IP.
func clientKey(r *http.Request) string {
	host, _, err := net.SplitHostPort(r.RemoteAddr)
	if err != nil {
		return r.RemoteAddr
	}
	return host
}

// admitInstall applies the three admission gates and, when admitted,
// reserves an in-flight install slot (released by releaseInstall).
func (s *Server) admitInstall(r *http.Request) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.installing >= s.opt.MaxPendingInstalls {
		return http.StatusTooManyRequests, errors.New("too many installs in flight")
	}
	// QueryCount, not Queries: the latter enters peer serialization
	// domains, which may be blocked on s.mu in the result fan-in.
	if s.fed.QueryCount() >= s.opt.MaxQueries {
		return http.StatusTooManyRequests, fmt.Errorf("query limit %d reached", s.opt.MaxQueries)
	}
	if s.opt.InstallRate > 0 {
		key := clientKey(r)
		b := s.buckets[key]
		now := time.Now()
		if b == nil {
			b = &bucket{tokens: float64(s.opt.InstallBurst), last: now}
			s.buckets[key] = b
		}
		b.tokens += now.Sub(b.last).Seconds() * s.opt.InstallRate
		b.last = now
		if max := float64(s.opt.InstallBurst); b.tokens > max {
			b.tokens = max
		}
		if b.tokens < 1 {
			return http.StatusTooManyRequests, fmt.Errorf("client %s over install rate", key)
		}
		b.tokens--
	}
	s.installing++
	return 0, nil
}

func (s *Server) releaseInstall() {
	s.mu.Lock()
	s.installing--
	s.mu.Unlock()
}

func (s *Server) handleInstall(w http.ResponseWriter, r *http.Request) {
	var sp Spec
	if err := json.NewDecoder(r.Body).Decode(&sp); err != nil {
		http.Error(w, "bad install body: "+err.Error(), http.StatusBadRequest)
		return
	}
	qs, err := sp.toQuerySpec()
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	if code, err := s.admitInstall(r); err != nil {
		http.Error(w, err.Error(), code)
		return
	}
	defer s.releaseInstall()
	if err := s.fed.InstallQuery(qs); err != nil {
		code := http.StatusBadRequest
		if strings.Contains(err.Error(), "already installed") {
			code = http.StatusConflict
		}
		http.Error(w, err.Error(), code)
		return
	}
	s.mu.Lock()
	delete(s.removed, qs.Name)
	s.mu.Unlock()
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusCreated)
	json.NewEncoder(w).Encode(map[string]string{"name": qs.Name, "status": "installed"})
}

func (s *Server) info(st federation.QueryStatus) QueryInfo {
	qi := QueryInfo{
		Name:      st.Name,
		Epoch:     st.Epoch,
		Members:   st.Members,
		Installed: st.Installed,
		Wired:     st.Wired,
		CtlBytes:  st.CtlBytes,
		DataBytes: st.DataBytes,
	}
	s.mu.Lock()
	q := s.queries[st.Name]
	s.mu.Unlock()
	if q != nil {
		_, qi.LastWindow, qi.Completeness = q.snapshot()
	}
	return qi
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	infos := make([]QueryInfo, 0)
	for _, st := range s.fed.Queries() {
		infos = append(infos, s.info(st))
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(infos)
}

// status looks one query up in the federation's listing.
func (s *Server) status(name string) (federation.QueryStatus, bool) {
	for _, st := range s.fed.Queries() {
		if st.Name == name {
			return st, true
		}
	}
	return federation.QueryStatus{}, false
}

func (s *Server) handleGet(w http.ResponseWriter, r *http.Request) {
	st, ok := s.status(r.PathValue("name"))
	if !ok {
		http.Error(w, "unknown query", http.StatusNotFound)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(s.info(st))
}

func (s *Server) handleRemove(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	if err := s.fed.RemoveQuery(name); err != nil {
		code := http.StatusNotFound
		if strings.Contains(err.Error(), "still feeds") {
			code = http.StatusConflict
		}
		http.Error(w, err.Error(), code)
		return
	}
	s.mu.Lock()
	q := s.queries[name]
	delete(s.queries, name)
	s.removed[name] = true
	s.mu.Unlock()
	if q != nil {
		q.close()
	}
	w.WriteHeader(http.StatusNoContent)
}

func (s *Server) handleWindows(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	s.mu.Lock()
	q := s.queries[name]
	s.mu.Unlock()
	if q == nil {
		if _, ok := s.status(name); !ok {
			http.Error(w, "unknown query", http.StatusNotFound)
			return
		}
		q = &queryState{} // installed but nothing reported yet
	}
	cache, _, _ := q.snapshot()
	if cache == nil {
		cache = []WindowResult{}
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(cache)
}

// handleStream serves per-window results as NDJSON (default) or SSE
// (Accept: text/event-stream). ?from=W replays cached windows >= W before
// going live — reconnect catch-up straight from the cache, no federation
// traffic. ?limit=N closes the stream after N records.
func (s *Server) handleStream(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	if _, ok := s.status(name); !ok {
		http.Error(w, "unknown query", http.StatusNotFound)
		return
	}
	s.mu.Lock()
	if s.streams >= s.opt.MaxStreams {
		s.mu.Unlock()
		http.Error(w, "too many open streams", http.StatusTooManyRequests)
		return
	}
	s.streams++
	q := s.queries[name]
	if q == nil {
		q = &queryState{subs: map[uint64]chan WindowResult{}}
		s.queries[name] = q
	}
	s.mu.Unlock()
	defer func() {
		s.mu.Lock()
		s.streams--
		s.mu.Unlock()
	}()

	from := int64(0)
	if v := r.URL.Query().Get("from"); v != "" {
		n, err := strconv.ParseInt(v, 10, 64)
		if err != nil {
			http.Error(w, "bad from", http.StatusBadRequest)
			return
		}
		from = n
	}
	limit := -1
	if v := r.URL.Query().Get("limit"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n <= 0 {
			http.Error(w, "bad limit", http.StatusBadRequest)
			return
		}
		limit = n
	}
	sse := strings.Contains(r.Header.Get("Accept"), "text/event-stream")
	if sse {
		w.Header().Set("Content-Type", "text/event-stream")
	} else {
		w.Header().Set("Content-Type", "application/x-ndjson")
	}
	w.Header().Set("Cache-Control", "no-store")
	flusher, _ := w.(http.Flusher)

	replay, ch, cancel := q.subscribe(from, s.opt.StreamBuffer)
	defer cancel()

	enc := json.NewEncoder(w)
	sent := 0
	lastWin := from - 1
	emit := func(wr WindowResult) bool {
		if wr.Window <= lastWin {
			return true // already served by the cache replay or an older epoch
		}
		lastWin = wr.Window
		if sse {
			fmt.Fprintf(w, "data: ")
		}
		if err := enc.Encode(wr); err != nil {
			return false
		}
		if sse {
			fmt.Fprintf(w, "\n")
		}
		if flusher != nil {
			flusher.Flush()
		}
		sent++
		return limit < 0 || sent < limit
	}
	for _, wr := range replay {
		if !emit(wr) {
			return
		}
	}
	ctx := r.Context()
	for {
		select {
		case <-ctx.Done():
			return
		case <-s.done:
			return
		case wr, ok := <-ch:
			if !ok {
				return // query removed
			}
			if !emit(wr) {
				return
			}
		}
	}
}

// classByteSource is implemented by runtimes that split transmitted wire
// bytes by class (runtime/netrt).
type classByteSource interface {
	ClassBytes() (controlBytes, dataBytes uint64)
}

// Stats is the /v1/stats payload: the fabric's byte accounting (per-class
// and per-query), the shared-mesh share, which path the roots reported on,
// and — when the runtime reports it — actual wire bytes by class.
type Stats struct {
	Peers          int    `json:"peers"`
	Live           int    `json:"live"`
	Queries        int    `json:"queries"`
	CtlBytes       uint64 `json:"ctl_bytes"`
	DataBytes      uint64 `json:"data_bytes"`
	SharedCtlBytes uint64 `json:"shared_ctl_bytes"`
	WireCtlBytes   uint64 `json:"wire_ctl_bytes,omitempty"`
	WireDataBytes  uint64 `json:"wire_data_bytes,omitempty"`
	// Which path reported: ResultsReportedComplete of ResultsReported left
	// the root the moment every member was counted; the rest waited out its
	// timeout, as every window of a query with a dead, silent or sensorless
	// member does. LateAtRoot arrived after its window had been reported.
	ResultsReported         uint64 `json:"results_reported"`
	ResultsReportedComplete uint64 `json:"results_reported_complete"`
	LateAtRoot              uint64 `json:"late_at_root"`
	// The upstream summary path: SummariesStaged summaries sent upstream,
	// one data frame each (DataFrames). Relayed of them were forwarded
	// unmerged, their window having already left the operator they reached:
	// near zero while the federation aggregates in-network, a large share
	// when operators sit on their timers.
	SummariesStaged uint64      `json:"summaries_staged"`
	Relayed         uint64      `json:"relayed"`
	DataFrames      uint64      `json:"data_frames"`
	PerQuery        []QueryInfo `json:"per_query"`
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	fab := s.fed.Fab
	st := Stats{
		Peers:          fab.NumPeers(),
		Live:           fab.LiveCount(),
		CtlBytes:       fab.Stats.ControlBytes.Load(),
		DataBytes:      fab.Stats.DataBytes.Load(),
		SharedCtlBytes: fab.Stats.SharedCtlBytes.Load(),

		ResultsReported:         fab.Stats.ResultsReported.Load(),
		ResultsReportedComplete: fab.Stats.ReportedComplete.Load(),
		LateAtRoot:              fab.Stats.LateAtRoot.Load(),

		SummariesStaged: fab.Stats.SummariesStaged.Load(),
		Relayed:         fab.Stats.Relayed.Load(),
		DataFrames:      fab.Stats.DataFrames.Load(),

		PerQuery: []QueryInfo{},
	}
	if cb, ok := s.fed.Rt.(classByteSource); ok {
		st.WireCtlBytes, st.WireDataBytes = cb.ClassBytes()
	}
	for _, q := range s.fed.Queries() {
		st.PerQuery = append(st.PerQuery, s.info(q))
	}
	st.Queries = len(st.PerQuery)
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(st)
}
