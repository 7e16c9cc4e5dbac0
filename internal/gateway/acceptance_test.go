package gateway

import (
	"fmt"
	"net/http"
	"sync"
	"testing"
	"time"
)

// The serving-plane acceptance scenario: 64 concurrent queries over one
// shared heartbeat mesh, every one of them streaming windowed results
// through the gateway at full completeness, and a reconnecting reader
// served from the ledger with zero additional federation traffic for the
// query it reads.
func TestSixtyFourQueriesOneMesh(t *testing.T) {
	const peers = 10
	const queries = 64
	_, fed, ts := newTestPlane(t, peers, Options{
		MaxQueries:         queries * 2,
		MaxPendingInstalls: queries,
	})

	// Install 64 queries over HTTP, concurrently.
	var wg sync.WaitGroup
	codes := make(chan int, queries)
	for i := 0; i < queries; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sp := Spec{Name: fmt.Sprintf("q%02d", i), Op: "count", WindowMS: 400, Trees: 2, BF: 4}
			codes <- install(t, ts, sp).StatusCode
		}(i)
	}
	wg.Wait()
	close(codes)
	for code := range codes {
		if code != http.StatusCreated {
			t.Fatalf("install over HTTP: got %d, want 201", code)
		}
	}

	// Every query streams through the gateway and reaches full
	// completeness over the shared mesh.
	deadline := time.Now().Add(60 * time.Second)
	for {
		var list []QueryInfo
		getJSON(t, ts, "/v1/queries", &list)
		if len(list) != queries {
			t.Fatalf("list has %d queries, want %d", len(list), queries)
		}
		full := 0
		for _, qi := range list {
			if qi.Completeness == peers {
				full++
			}
		}
		if full == queries {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("only %d/%d queries at full completeness", full, queries)
		}
		time.Sleep(200 * time.Millisecond)
	}

	// All 64 streams concurrently: every query serves live windows.
	results := make(chan []WindowResult, queries)
	for i := 0; i < queries; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			url := fmt.Sprintf("%s/v1/queries/q%02d/results?limit=2", ts.URL, i)
			results <- readWindows(t, url, 2)
		}(i)
	}
	wg.Wait()
	close(results)
	streams := 0
	for ws := range results {
		if len(ws) != 2 {
			t.Fatalf("a stream served %d windows, want 2", len(ws))
		}
		if ws[1].Window <= ws[0].Window {
			t.Fatalf("stream windows not advancing: %d then %d", ws[0].Window, ws[1].Window)
		}
		streams++
	}
	if streams != queries {
		t.Fatalf("%d streams completed, want %d", streams, queries)
	}

	// Reconnect catch-up for one tenant comes from the ledger: instant,
	// and the query's attributable federation traffic does not move.
	first := readWindows(t, ts.URL+"/v1/queries/q07/results?limit=3", 3)
	lastSeen := first[len(first)-1].Window
	time.Sleep(900 * time.Millisecond) // two more windows land while disconnected

	ctlBefore, _ := fed.Fab.QueryTraffic("q07")
	start := time.Now()
	catch := readWindows(t, fmt.Sprintf("%s/v1/queries/q07/results?from=%d&limit=2", ts.URL, lastSeen+1), 2)
	elapsed := time.Since(start)
	ctlAfter, _ := fed.Fab.QueryTraffic("q07")

	if len(catch) != 2 {
		t.Fatalf("catch-up served %d windows, want 2", len(catch))
	}
	if catch[0].Window != lastSeen+1 && catch[0].Window != lastSeen+2 {
		t.Fatalf("catch-up resumed at window %d after %d", catch[0].Window, lastSeen)
	}
	if elapsed > 300*time.Millisecond {
		t.Fatalf("catch-up took %v; kept windows must not wait for new reports", elapsed)
	}
	if ctlAfter != ctlBefore {
		t.Fatalf("catch-up moved federation traffic for q07: %d -> %d", ctlBefore, ctlAfter)
	}
}
