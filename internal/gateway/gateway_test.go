package gateway

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/federation"
	"repro/internal/mortar"
	"repro/internal/runtime/livert"
	"repro/internal/tuple"
)

// liveConfig shortens the mortar timers so a live federation converges in
// test time.
func liveConfig() mortar.Config {
	cfg := mortar.DefaultConfig()
	cfg.HeartbeatPeriod = 50 * time.Millisecond
	cfg.MinTimeout = 20 * time.Millisecond
	cfg.MaxTimeout = 2 * time.Second
	return cfg
}

// newTestPlane stands up a live federation with sensors running and a
// gateway over it, wrapped in an httptest server.
func newTestPlane(t *testing.T, peers int, opt Options) (*Server, *federation.Federation, *httptest.Server) {
	t.Helper()
	rt := livert.New(peers, livert.Options{Seed: 11, MinDelay: time.Millisecond, MaxDelay: 5 * time.Millisecond})
	fed, err := federation.NewRuntimeCfg(rt, nil, rand.New(rand.NewSource(11)), liveConfig())
	if err != nil {
		t.Fatal(err)
	}
	fed.StartSensors(100*time.Millisecond, func(int) tuple.Raw {
		return tuple.Raw{Vals: []float64{1}}
	}, rand.New(rand.NewSource(13)))
	srv := NewServer(fed, opt)
	ts := httptest.NewServer(srv)
	t.Cleanup(func() {
		ts.Close()
		srv.Close()
		rt.Shutdown()
	})
	return srv, fed, ts
}

func install(t *testing.T, ts *httptest.Server, sp Spec) *http.Response {
	t.Helper()
	body, _ := json.Marshal(sp)
	resp, err := http.Post(ts.URL+"/v1/queries", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	return resp
}

func countSpec(name string) Spec {
	return Spec{Name: name, Op: "count", WindowMS: 200, Trees: 2, BF: 4}
}

func TestSpecValidation(t *testing.T) {
	_, _, ts := newTestPlane(t, 4, Options{})
	cases := []struct {
		what string
		body string
	}{
		{"malformed json", `{"name": `},
		{"missing window", `{"name":"a","op":"count"}`},
		{"both window kinds", `{"name":"a","op":"count","window_ms":200,"window_tuples":5}`},
		{"empty name", `{"op":"count","window_ms":200}`},
		{"unknown operator", `{"name":"a","op":"nonesuch","window_ms":200}`},
		{"unknown source query", `{"name":"a","op":"count","window_ms":200,"source":"ghost"}`},
		{"range not a multiple of slide", `{"name":"a","op":"count","window_ms":500,"slide_ms":200}`},
		{"window_ms overflows a duration", `{"name":"a","op":"count","window_ms":18446744073710}`},
		{"window_ms one past the largest duration", `{"name":"a","op":"count","window_ms":9223372036855}`},
		{"slide_ms overflows a duration", `{"name":"a","op":"count","window_ms":200,"slide_ms":18446744073710}`},
	}
	for _, c := range cases {
		resp, err := http.Post(ts.URL+"/v1/queries", "application/json", strings.NewReader(c.body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: got %d, want 400", c.what, resp.StatusCode)
		}
	}
	// A valid spec installs, and reinstalling the same name conflicts.
	if resp := install(t, ts, countSpec("q")); resp.StatusCode != http.StatusCreated {
		t.Fatalf("valid install: got %d, want 201", resp.StatusCode)
	}
	if resp := install(t, ts, countSpec("q")); resp.StatusCode != http.StatusConflict {
		t.Fatalf("duplicate install: got %d, want 409", resp.StatusCode)
	}
	// Nothing invalid leaked into the federation.
	var list []QueryInfo
	getJSON(t, ts, "/v1/queries", &list)
	if len(list) != 1 || list[0].Name != "q" {
		t.Fatalf("list after rejections: %+v", list)
	}
}

func getJSON(t *testing.T, ts *httptest.Server, path string, into any) {
	t.Helper()
	resp, err := http.Get(ts.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: %d", path, resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(into); err != nil {
		t.Fatal(err)
	}
}

func TestAdmissionLimits(t *testing.T) {
	_, _, ts := newTestPlane(t, 4, Options{MaxQueries: 2})
	if resp := install(t, ts, countSpec("a")); resp.StatusCode != http.StatusCreated {
		t.Fatalf("install a: %d", resp.StatusCode)
	}
	if resp := install(t, ts, countSpec("b")); resp.StatusCode != http.StatusCreated {
		t.Fatalf("install b: %d", resp.StatusCode)
	}
	if resp := install(t, ts, countSpec("c")); resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("install past MaxQueries: got %d, want 429", resp.StatusCode)
	}
	// Removing one frees a slot.
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/queries/a", nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("remove a: got %d, want 204", resp.StatusCode)
	}
	if resp := install(t, ts, countSpec("c")); resp.StatusCode != http.StatusCreated {
		t.Fatalf("install after remove: got %d, want 201", resp.StatusCode)
	}
}

// An install body past 1 MiB is refused with 413 and installs nothing; a
// normal install next to it is created.
func TestInstallBodyLimit(t *testing.T) {
	_, fed, ts := newTestPlane(t, 4, Options{})
	big := fmt.Sprintf(`{"name":"big","op":"count","window_ms":200,"args":[%q]}`, strings.Repeat("a", maxInstallBody))
	resp, err := http.Post(ts.URL+"/v1/queries", "application/json", strings.NewReader(big))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("install of %d B: got %d, want 413", len(big), resp.StatusCode)
	}
	if resp := install(t, ts, countSpec("a")); resp.StatusCode != http.StatusCreated {
		t.Fatalf("normal install: got %d, want 201", resp.StatusCode)
	}
	for _, st := range fed.Queries() {
		if st.Name == "big" {
			t.Fatal("the oversized install was installed")
		}
	}
}

// During a make-before-break migration both plan epochs report each window
// and the best report wins. A late epoch's report of an older window takes
// that window's slot; it is never listed behind newer windows.
func TestLateEpochTakesItsWindowSlot(t *testing.T) {
	_, fed, ts := newTestPlane(t, 4, Options{})
	// An hour-long window: no real report arrives while the test runs.
	if resp := install(t, ts, Spec{Name: "q", Op: "count", WindowMS: 3_600_000}); resp.StatusCode != http.StatusCreated {
		t.Fatalf("install: %d", resp.StatusCode)
	}
	for _, r := range []mortar.Result{
		{Query: "q", Epoch: 1, WindowIndex: 5, Count: 3},
		{Query: "q", Epoch: 1, WindowIndex: 6, Count: 4},
		{Query: "q", Epoch: 2, WindowIndex: 5, Count: 4},
	} {
		fed.Ledger.Record(r)
	}
	want := func(what string, got []WindowResult) {
		t.Helper()
		if len(got) != 2 || got[0].Window != 5 || got[0].Epoch != 2 || got[0].Completeness != 4 ||
			got[1].Window != 6 || got[1].Epoch != 1 || got[1].Completeness != 4 {
			t.Fatalf("%s = %+v, want window 5 (epoch 2, completeness 4) then window 6", what, got)
		}
	}
	var windows []WindowResult
	getJSON(t, ts, "/v1/queries/q/windows", &windows)
	want("/windows", windows)
	want("stream replay", readWindows(t, ts.URL+"/v1/queries/q/results?limit=2", 2))
	var list []QueryInfo
	getJSON(t, ts, "/v1/queries", &list)
	if len(list) != 1 || list[0].LastWindow != 6 || list[0].Completeness != 4 {
		t.Fatalf("list = %+v, want last_window 6 and completeness 4", list)
	}
}

// readWindows reads up to n NDJSON records from a results stream.
func readWindows(t *testing.T, url string, n int) []WindowResult {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: %d", url, resp.StatusCode)
	}
	var out []WindowResult
	sc := bufio.NewScanner(resp.Body)
	for len(out) < n && sc.Scan() {
		var wr WindowResult
		if err := json.Unmarshal(sc.Bytes(), &wr); err != nil {
			t.Fatalf("bad stream record %q: %v", sc.Text(), err)
		}
		out = append(out, wr)
	}
	return out
}

// A reader that drops off and comes back is served from the ledger: the
// catch-up windows arrive immediately (no waiting for the next report) and
// the query's attributable federation traffic does not move.
func TestCacheCatchup(t *testing.T) {
	_, fed, ts := newTestPlane(t, 4, Options{})
	if resp := install(t, ts, countSpec("q")); resp.StatusCode != http.StatusCreated {
		t.Fatalf("install: %d", resp.StatusCode)
	}
	// First client: watch three live windows, then disconnect.
	first := readWindows(t, ts.URL+"/v1/queries/q/results?limit=3", 3)
	if len(first) != 3 {
		t.Fatalf("first reader got %d windows", len(first))
	}
	lastSeen := first[len(first)-1].Window

	// Let more windows accumulate while nobody watches.
	time.Sleep(600 * time.Millisecond)

	ctlBefore, _ := fed.Fab.QueryTraffic("q")
	start := time.Now()
	catch := readWindows(t, fmt.Sprintf("%s/v1/queries/q/results?from=%d&limit=2", ts.URL, lastSeen+1), 2)
	elapsed := time.Since(start)
	ctlAfter, _ := fed.Fab.QueryTraffic("q")

	if len(catch) != 2 {
		t.Fatalf("catch-up got %d windows", len(catch))
	}
	for _, wr := range catch {
		if wr.Window <= lastSeen {
			t.Fatalf("catch-up replayed window %d already seen (from=%d)", wr.Window, lastSeen+1)
		}
	}
	// Kept windows must be there already: far faster than waiting out
	// two more 200ms windows.
	if elapsed > 150*time.Millisecond {
		t.Fatalf("catch-up took %v; the ledger should answer without waiting for new windows", elapsed)
	}
	if ctlAfter != ctlBefore {
		t.Fatalf("catch-up moved query control traffic: %d -> %d", ctlBefore, ctlAfter)
	}
}

// Closing the gateway mid-stream ends the response body cleanly and flips
// subsequent requests to 503.
func TestCloseMidStream(t *testing.T) {
	srv, _, ts := newTestPlane(t, 4, Options{})
	if resp := install(t, ts, countSpec("q")); resp.StatusCode != http.StatusCreated {
		t.Fatalf("install: %d", resp.StatusCode)
	}
	resp, err := http.Get(ts.URL + "/v1/queries/q/results")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	// Read one record so the stream is demonstrably live.
	sc := bufio.NewScanner(resp.Body)
	if !sc.Scan() {
		t.Fatal("stream produced nothing")
	}
	done := make(chan error, 1)
	go func() {
		_, err := io.Copy(io.Discard, resp.Body)
		done <- err
	}()
	srv.Close()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("stream ended with transport error: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("stream did not end after Close")
	}
	after, err := http.Get(ts.URL + "/v1/queries")
	if err != nil {
		t.Fatal(err)
	}
	after.Body.Close()
	if after.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("request after Close: got %d, want 503", after.StatusCode)
	}
	srv.Close() // idempotent
}

// SSE framing: Accept: text/event-stream wraps each record in a data:
// line followed by a blank line.
func TestSSEStream(t *testing.T) {
	_, _, ts := newTestPlane(t, 4, Options{})
	if resp := install(t, ts, countSpec("q")); resp.StatusCode != http.StatusCreated {
		t.Fatalf("install: %d", resp.StatusCode)
	}
	req, _ := http.NewRequest(http.MethodGet, ts.URL+"/v1/queries/q/results?limit=2", nil)
	req.Header.Set("Accept", "text/event-stream")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("content type %q", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	records := 0
	for _, line := range strings.Split(string(body), "\n") {
		if strings.HasPrefix(line, "data: ") {
			var wr WindowResult
			if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &wr); err != nil {
				t.Fatalf("bad SSE data line %q: %v", line, err)
			}
			records++
		}
	}
	if records != 2 {
		t.Fatalf("got %d SSE records, want 2", records)
	}
}

// The stream endpoint 404s for unknown queries and a removed query's
// stream terminates.
func TestStreamLifecycle(t *testing.T) {
	_, _, ts := newTestPlane(t, 4, Options{})
	resp, err := http.Get(ts.URL + "/v1/queries/ghost/results")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown query stream: got %d, want 404", resp.StatusCode)
	}
	if resp := install(t, ts, countSpec("q")); resp.StatusCode != http.StatusCreated {
		t.Fatalf("install: %d", resp.StatusCode)
	}
	stream, err := http.Get(ts.URL + "/v1/queries/q/results")
	if err != nil {
		t.Fatal(err)
	}
	defer stream.Body.Close()
	sc := bufio.NewScanner(stream.Body)
	if !sc.Scan() {
		t.Fatal("stream produced nothing")
	}
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/queries/q", nil)
	del, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	del.Body.Close()
	if del.StatusCode != http.StatusNoContent {
		t.Fatalf("remove: %d", del.StatusCode)
	}
	done := make(chan struct{})
	go func() {
		for sc.Scan() {
		}
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("stream did not terminate after query removal")
	}
	var list []QueryInfo
	getJSON(t, ts, "/v1/queries", &list)
	if len(list) != 0 {
		t.Fatalf("list not empty after removal: %+v", list)
	}
}

// The stats payload surfaces the upstream summary counters: after a few
// windows of traffic the fabric must have sent summaries, each as its own
// data frame. (The name dates from hold-and-merge staging; nothing merges or
// batches now, and the counters that would read zero for it —
// summaries_coalesced, batch_frames, batched_summaries, frames_saved — are
// gone from the payload.)
func TestStatsReportsCoalescing(t *testing.T) {
	_, _, ts := newTestPlane(t, 4, Options{})
	if resp := install(t, ts, countSpec("q")); resp.StatusCode != http.StatusCreated {
		t.Fatalf("install: %d", resp.StatusCode)
	}
	if got := readWindows(t, ts.URL+"/v1/queries/q/results?limit=3", 3); len(got) != 3 {
		t.Fatalf("got %d windows before stats", len(got))
	}
	resp, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	for _, dead := range []string{"summaries_coalesced", "batch_frames", "batched_summaries", "frames_saved"} {
		if bytes.Contains(body, []byte(dead)) {
			t.Fatalf("stats still carry %s, a counter that is constant zero:\n%s", dead, body)
		}
	}
	var st Stats
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	if st.SummariesStaged == 0 {
		t.Fatal("stats report zero staged summaries after three result windows")
	}
	if st.DataFrames == 0 {
		t.Fatal("stats report zero data frames after three result windows")
	}
	// One data frame per summary. The handler loads the two counters one
	// after the other while peers keep sending, so a read can straddle a
	// send; some read of a few must see them equal.
	for i := 0; st.SummariesStaged != st.DataFrames; i++ {
		if i == 50 {
			t.Fatalf("summaries_staged = %d, data_frames = %d on every read; want one frame per summary", st.SummariesStaged, st.DataFrames)
		}
		getJSON(t, ts, "/v1/stats", &st)
	}
	// Which path reported: all four peers run a sensor, so some of the
	// windows read above left the root on completeness, not on its timer.
	if st.ResultsReported < 3 || st.ResultsReportedComplete == 0 || st.ResultsReportedComplete > st.ResultsReported {
		t.Fatalf("results_reported = %d, results_reported_complete = %d, late_at_root = %d after three windows of a fully live query",
			st.ResultsReported, st.ResultsReportedComplete, st.LateAtRoot)
	}
	// And every operator below forwarded on completeness: next to nothing
	// reached a parent after its window had left.
	if 10*st.Relayed > st.SummariesStaged {
		t.Fatalf("relayed = %d of summaries_staged = %d on a fully live query: operators are not aggregating in-network",
			st.Relayed, st.SummariesStaged)
	}
}
