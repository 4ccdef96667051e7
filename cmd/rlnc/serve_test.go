package main

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"rlnc/internal/serve"
)

// TestServeE2Golden is the control plane's acceptance differential: E2
// submitted over HTTP must produce the committed CLI golden byte for
// byte, and resubmitting it must be a cache hit that never reaches the
// execution machinery.
func TestServeE2Golden(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment table in -short mode")
	}
	st, err := serve.OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	srv, err := serve.NewServer(serve.Options{Store: st})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ts := httptest.NewServer(srv)
	defer ts.Close()

	submit := func(body string) (int, serve.RunMeta) {
		t.Helper()
		resp, err := http.Post(ts.URL+"/v1/runs", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var meta serve.RunMeta
		if err := json.NewDecoder(resp.Body).Decode(&meta); err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, meta
	}

	code, meta := submit(`{"experiment":"E2","quick":true,"seed":7}`)
	if code != http.StatusAccepted {
		t.Fatalf("submit: %d", code)
	}

	// Stream the run's events to completion — the SSE contract the CI
	// job also exercises: the stream ends at the terminal event.
	resp, err := http.Get(ts.URL + "/v1/runs/" + meta.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	events, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(events, []byte("event: done")) {
		t.Fatalf("stream ended without a done event:\n%s", events)
	}

	fetchTable := func() []byte {
		t.Helper()
		resp, err := http.Get(ts.URL + "/v1/runs/" + meta.ID + "/table")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		b, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("table: %d %s", resp.StatusCode, b)
		}
		return b
	}
	table := fetchTable()
	expectGolden(t, "run_E2_quick_seed7.golden", table)

	// Resubmission: same ID, zero additional executions, identical bytes.
	if srv.Executed() != 1 {
		t.Fatalf("executed %d runs, want 1", srv.Executed())
	}
	code2, meta2 := submit(`{"seed":7,"experiment":"e2","quick":true}`)
	if code2 != http.StatusOK || meta2.ID != meta.ID {
		t.Fatalf("resubmit: %d id=%s (want 200, id %s)", code2, meta2.ID, meta.ID)
	}
	if srv.Executed() != 1 {
		t.Fatalf("resubmission executed again: %d", srv.Executed())
	}
	if got := fetchTable(); !bytes.Equal(got, table) {
		t.Fatal("resubmitted table differs")
	}
}

// TestServeAlgorithmJob runs a real algorithm job end to end through
// the default runner: registry key, graph family, trials — and checks
// the run is deterministic (two daemons, same spec, byte-identical
// tables via the store's content addressing).
func TestServeAlgorithmJob(t *testing.T) {
	if testing.Short() {
		t.Skip("trial sweep in -short mode")
	}
	runOnce := func(dir string) (string, []byte) {
		t.Helper()
		st, err := serve.OpenStore(dir)
		if err != nil {
			t.Fatal(err)
		}
		srv, err := serve.NewServer(serve.Options{Store: st})
		if err != nil {
			t.Fatal(err)
		}
		defer srv.Close()
		ts := httptest.NewServer(srv)
		defer ts.Close()
		resp, err := http.Post(ts.URL+"/v1/runs", "application/json",
			strings.NewReader(`{"algorithm":{"key":"luby-mis","family":"cycle","n":24,"trials":50},"seed":9}`))
		if err != nil {
			t.Fatal(err)
		}
		var meta serve.RunMeta
		if err := json.NewDecoder(resp.Body).Decode(&meta); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		deadline := time.Now().Add(30 * time.Second)
		for {
			r, err := http.Get(ts.URL + "/v1/runs/" + meta.ID)
			if err != nil {
				t.Fatal(err)
			}
			if err := json.NewDecoder(r.Body).Decode(&meta); err != nil {
				t.Fatal(err)
			}
			r.Body.Close()
			if meta.Status == "done" || meta.Status == "error" {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("run stuck at %s", meta.Status)
			}
			time.Sleep(10 * time.Millisecond)
		}
		if meta.Status != "done" {
			t.Fatalf("algorithm run failed: %+v", meta)
		}
		r, err := http.Get(ts.URL + "/v1/runs/" + meta.ID + "/table")
		if err != nil {
			t.Fatal(err)
		}
		defer r.Body.Close()
		b, err := io.ReadAll(r.Body)
		if err != nil {
			t.Fatal(err)
		}
		return meta.ID, b
	}
	id1, t1 := runOnce(t.TempDir())
	id2, t2 := runOnce(t.TempDir())
	if id1 != id2 {
		t.Fatalf("same spec, different IDs: %s vs %s", id1, id2)
	}
	if !bytes.Equal(t1, t2) {
		t.Fatalf("same spec, different tables:\n%s\n---\n%s", t1, t2)
	}
	if !bytes.Contains(t1, []byte("rounds")) || !bytes.Contains(t1, []byte("messages")) {
		t.Fatalf("table missing metrics:\n%s", t1)
	}
}
