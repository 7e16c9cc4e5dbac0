// Package gateway is the serving plane: an HTTP/JSON front door hosted by
// the coordinator process that turns a running federation into a
// multi-tenant continuous-query service. Clients install queries from a
// JSON spec, list them with per-query epoch/completeness/traffic status,
// stream per-window results as NDJSON or SSE, and remove them — the
// consumption model of the paper's LoGS case study, where many independent
// long-lived queries feed dashboards rather than processes linked into the
// coordinator.
//
// The gateway deliberately sits outside the data path: it serves results
// from the federation's per-query ledger (federation.Ledger), so a
// reconnecting reader catches up from the ledger's last 64 windows with
// zero federation traffic, and a slow reader loses its own tail (drop on
// full channel) instead of back-pressuring the root peer. Admission
// control — a query-count ceiling, an in-flight install cap and a stream
// cap — protects the shared mesh from tenant misuse.
package gateway

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
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
	// MaxPendingInstalls bounds concurrently in-flight install/remove
	// multicasts (backpressure toward the mesh). Default 8.
	MaxPendingInstalls int
}

// maxStreams bounds concurrently open result streams; past it a stream
// request gets 429.
const maxStreams = 256

func (o Options) withDefaults() Options {
	if o.MaxQueries <= 0 {
		o.MaxQueries = 256
	}
	if o.MaxPendingInstalls <= 0 {
		o.MaxPendingInstalls = 8
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

// maxMS is the longest window_ms or slide_ms a time.Duration holds.
const maxMS = math.MaxInt64 / int64(time.Millisecond)

// toQuerySpec validates the JSON-level shape and converts to the
// federation's spec; semantic validation (operator registry, window
// bounds) happens inside InstallQuery.
func (sp Spec) toQuerySpec() (federation.QuerySpec, error) {
	var w tuple.WindowSpec
	switch {
	case sp.WindowMS > 0 && sp.WindowTuples > 0:
		return federation.QuerySpec{}, errors.New("spec: window_ms and window_tuples are mutually exclusive")
	case sp.WindowMS > maxMS || sp.SlideMS > maxMS:
		return federation.QuerySpec{}, fmt.Errorf("spec: window_ms and slide_ms must be at most %d", maxMS)
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

// WindowResult is one streamed or listed per-window record.
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
// status joined with its result ledger.
type QueryInfo struct {
	Name       string `json:"name"`
	Epoch      uint32 `json:"epoch"`
	Members    int    `json:"members"`
	Installed  int    `json:"installed"`
	Wired      int    `json:"wired"`
	LastWindow int64  `json:"last_window"`
	// Completeness is the best per-window participant count the ledger has
	// recorded (max across epochs, per the migration contract).
	Completeness int    `json:"completeness"`
	CtlBytes     uint64 `json:"ctl_bytes"`
	DataBytes    uint64 `json:"data_bytes"`
}

// Server is the HTTP serving plane over one federation.
type Server struct {
	fed *federation.Federation
	opt Options
	mux *http.ServeMux

	done chan struct{}
	once sync.Once

	mu         sync.Mutex
	installing int
	streams    int
}

// NewServer builds the serving plane over a running federation.
func NewServer(fed *federation.Federation, opt Options) *Server {
	s := &Server{
		fed:  fed,
		opt:  opt.withDefaults(),
		mux:  http.NewServeMux(),
		done: make(chan struct{}),
	}
	s.mux.HandleFunc("POST /v1/queries", s.handleInstall)
	s.mux.HandleFunc("GET /v1/queries", s.handleList)
	s.mux.HandleFunc("GET /v1/queries/{name}", s.handleGet)
	s.mux.HandleFunc("DELETE /v1/queries/{name}", s.handleRemove)
	s.mux.HandleFunc("GET /v1/queries/{name}/results", s.handleStream)
	s.mux.HandleFunc("GET /v1/queries/{name}/windows", s.handleWindows)
	s.mux.HandleFunc("GET /v1/stats", s.handleStats)
	return s
}

// Close terminates every open stream. Idempotent; requests arriving after
// Close get 503.
func (s *Server) Close() {
	s.once.Do(func() { close(s.done) })
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

// admitInstall applies the two admission gates and, when admitted,
// reserves an in-flight install slot (released by releaseInstall).
func (s *Server) admitInstall() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.installing >= s.opt.MaxPendingInstalls {
		return errors.New("too many installs in flight")
	}
	// QueryCount, not Queries: the latter enters every peer's
	// serialization domain, too slow to hold s.mu across.
	if s.fed.QueryCount() >= s.opt.MaxQueries {
		return fmt.Errorf("query limit %d reached", s.opt.MaxQueries)
	}
	s.installing++
	return nil
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
	if err := s.admitInstall(); err != nil {
		http.Error(w, err.Error(), http.StatusTooManyRequests)
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
	qi.LastWindow, _ = s.fed.Ledger.Latest(st.Name)
	qi.Completeness = s.fed.Ledger.Best(st.Name)
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
	w.WriteHeader(http.StatusNoContent)
}

// windowResult is the JSON record of one root report.
func windowResult(r mortar.Result) WindowResult {
	return WindowResult{
		Query:        r.Query,
		Epoch:        r.Epoch,
		Window:       r.WindowIndex,
		Value:        r.Value,
		Completeness: r.Count,
		Hops:         r.Hops,
		AtMS:         r.At.Milliseconds(),
	}
}

// handleWindows lists the ledger's kept windows, each window's best report.
func (s *Server) handleWindows(w http.ResponseWriter, r *http.Request) {
	rs, ok := s.fed.Ledger.Windows(r.PathValue("name"))
	if !ok {
		http.Error(w, "unknown query", http.StatusNotFound)
		return
	}
	out := make([]WindowResult, len(rs))
	for i, res := range rs {
		out[i] = windowResult(res)
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(out)
}

// handleStream serves per-window results as NDJSON (default) or SSE
// (Accept: text/event-stream), each window once and in window order: a
// replayed window's best report so far, a live window's first report.
// ?from=W replays the ledger's kept windows >= W before going live —
// reconnect catch-up with no federation traffic. ?limit=N closes the stream
// after N records.
func (s *Server) handleStream(w http.ResponseWriter, r *http.Request) {
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
	s.mu.Lock()
	if s.streams >= maxStreams {
		s.mu.Unlock()
		http.Error(w, "too many open streams", http.StatusTooManyRequests)
		return
	}
	s.streams++
	s.mu.Unlock()
	defer func() {
		s.mu.Lock()
		s.streams--
		s.mu.Unlock()
	}()
	replay, ch, cancel, ok := s.fed.Ledger.Subscribe(r.PathValue("name"), from)
	if !ok {
		http.Error(w, "unknown query", http.StatusNotFound)
		return
	}
	defer cancel()

	sse := strings.Contains(r.Header.Get("Accept"), "text/event-stream")
	if sse {
		w.Header().Set("Content-Type", "text/event-stream")
	} else {
		w.Header().Set("Content-Type", "application/x-ndjson")
	}
	w.Header().Set("Cache-Control", "no-store")
	flusher, _ := w.(http.Flusher)

	enc := json.NewEncoder(w)
	sent := 0
	lastWin := from - 1
	emit := func(res mortar.Result) bool {
		if res.WindowIndex <= lastWin {
			return true // already served by the replay or an earlier report
		}
		lastWin = res.WindowIndex
		if sse {
			fmt.Fprintf(w, "data: ")
		}
		if err := enc.Encode(windowResult(res)); err != nil {
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
	for _, res := range replay {
		if !emit(res) {
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
		case res, ok := <-ch:
			if !ok {
				return // query removed
			}
			if !emit(res) {
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
