package serve

import (
	"bufio"
	"encoding/json"
	"net/http"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// sseEvent is one parsed wire frame.
type sseEvent struct {
	id   int
	typ  string
	data string
}

// readSSE consumes an SSE stream until it ends (the server closes a
// finished run's stream) and returns the frames.
func readSSE(t *testing.T, url string) []sseEvent {
	t.Helper()
	client := &http.Client{Timeout: 30 * time.Second}
	resp, err := client.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("events: %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("content type %q", ct)
	}
	var out []sseEvent
	var cur sseEvent
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case line == "":
			out = append(out, cur)
			cur = sseEvent{}
		case strings.HasPrefix(line, "id: "):
			cur.id, _ = strconv.Atoi(line[4:])
		case strings.HasPrefix(line, "event: "):
			cur.typ = line[7:]
		case strings.HasPrefix(line, "data: "):
			cur.data = line[6:]
		default:
			t.Fatalf("unexpected SSE line %q", line)
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return out
}

func TestSSEStreamOrdering(t *testing.T) {
	var calls atomic.Int64
	_, ts := newTestServer(t, t.TempDir(), countingRunner(&calls))
	_, body := postJob(t, ts, `{"experiment":"E2"}`)
	var meta RunMeta
	if err := json.Unmarshal(body, &meta); err != nil {
		t.Fatal(err)
	}

	events := readSSE(t, ts.URL+"/v1/runs/"+meta.ID+"/events")
	if len(events) == 0 {
		t.Fatal("no events")
	}
	// Sequence numbers are gapless and ascending from 1.
	for i, ev := range events {
		if ev.id != i+1 {
			t.Fatalf("event %d has seq %d: %+v", i, ev.id, events)
		}
		if !json.Valid([]byte(ev.data)) {
			t.Fatalf("event %d data is not JSON: %q", i, ev.data)
		}
	}
	// The lifecycle reads queued → started → sweep → chunks* → done.
	types := make([]string, len(events))
	for i, ev := range events {
		types[i] = ev.typ
	}
	want := []string{"queued", "started", "sweep", "chunks", "chunks", "done"}
	if strings.Join(types, " ") != strings.Join(want, " ") {
		t.Fatalf("event order %v, want %v", types, want)
	}
	var doneData struct {
		Cached     bool `json:"cached"`
		ChecksPass bool `json:"checksPass"`
		TableBytes int  `json:"tableBytes"`
	}
	if err := json.Unmarshal([]byte(events[len(events)-1].data), &doneData); err != nil {
		t.Fatal(err)
	}
	if doneData.Cached || !doneData.ChecksPass || doneData.TableBytes == 0 {
		t.Fatalf("done payload: %+v", doneData)
	}

	// A reconnect with Last-Event-ID replays only the tail.
	req, err := http.NewRequest("GET", ts.URL+"/v1/runs/"+meta.ID+"/events", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Last-Event-ID", "4")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var tail []string
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		if strings.HasPrefix(sc.Text(), "event: ") {
			tail = append(tail, sc.Text()[7:])
		}
	}
	if strings.Join(tail, " ") != "chunks done" {
		t.Fatalf("resumed tail %v", tail)
	}
}

func TestSSECachedRunReplaysTerminalLog(t *testing.T) {
	var calls atomic.Int64
	dir := t.TempDir()
	_, ts := newTestServer(t, dir, countingRunner(&calls))
	_, body := postJob(t, ts, `{"experiment":"E2"}`)
	var meta RunMeta
	if err := json.Unmarshal(body, &meta); err != nil {
		t.Fatal(err)
	}
	awaitDone(t, ts, meta.ID)

	// Fresh daemon over the same store: submitting again is a cache hit
	// whose event stream is the synthesized [cached, done] log.
	_, ts2 := newTestServer(t, dir, countingRunner(&calls))
	resp, body2 := postJob(t, ts2, `{"experiment":"E2"}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cache-hit submit: %d %s", resp.StatusCode, body2)
	}
	events := readSSE(t, ts2.URL+"/v1/runs/"+meta.ID+"/events")
	types := make([]string, len(events))
	for i, ev := range events {
		types[i] = ev.typ
	}
	if strings.Join(types, " ") != "cached done" {
		t.Fatalf("cached stream %v", types)
	}
	var doneData struct {
		Cached bool `json:"cached"`
	}
	if err := json.Unmarshal([]byte(events[1].data), &doneData); err != nil {
		t.Fatal(err)
	}
	if !doneData.Cached {
		t.Fatal("cached done event not flagged cached")
	}
}

func TestEventLogBackpressureAndReplayCap(t *testing.T) {
	l := newEventLog()
	// Overfill past the cap; the replay window must slide, seqs stay
	// global.
	total := eventLogCap + 100
	for i := 0; i < total; i++ {
		l.emit("chunks", i)
	}
	replay, ch, cancel := l.subscribe(0)
	defer cancel()
	if ch == nil {
		t.Fatal("open log returned no channel")
	}
	if len(replay) != eventLogCap {
		t.Fatalf("replay length %d, want %d", len(replay), eventLogCap)
	}
	if first := replay[0].Seq; first != total-eventLogCap+1 {
		t.Fatalf("window starts at seq %d", first)
	}
	if last := replay[len(replay)-1].Seq; last != total {
		t.Fatalf("window ends at seq %d, want %d", last, total)
	}
	l.close()
	if _, ok := <-ch; ok {
		t.Fatal("channel still open after close")
	}
	// Subscribing to a closed log yields replay only.
	replay2, ch2, _ := l.subscribe(total - 1)
	if ch2 != nil || len(replay2) != 1 || replay2[0].Seq != total {
		t.Fatalf("closed-log subscribe: ch=%v replay=%+v", ch2, replay2)
	}
}

// TestSSERejectsMalformedLastEventID pins the resume parse: a
// Last-Event-ID header or lastEventID parameter that is not a
// non-negative event number answers 400 with a message naming it,
// instead of replaying the whole log as if no resume point were given.
func TestSSERejectsMalformedLastEventID(t *testing.T) {
	var calls atomic.Int64
	_, ts := newTestServer(t, t.TempDir(), countingRunner(&calls))
	_, body := postJob(t, ts, `{"experiment":"E2"}`)
	var meta RunMeta
	if err := json.Unmarshal(body, &meta); err != nil {
		t.Fatal(err)
	}
	awaitDone(t, ts, meta.ID)
	url := ts.URL + "/v1/runs/" + meta.ID + "/events"
	for _, c := range []struct{ header, query, name string }{
		{header: "-1", name: "Last-Event-ID"},
		{header: "four", name: "Last-Event-ID"},
		{header: "99999999999999999999", name: "Last-Event-ID"},
		{query: "-3", name: "lastEventID"},
		{query: "2x", name: "lastEventID"},
		{header: "x", query: "2", name: "Last-Event-ID"},
	} {
		u := url
		if c.query != "" {
			u += "?lastEventID=" + c.query
		}
		req, err := http.NewRequest("GET", u, nil)
		if err != nil {
			t.Fatal(err)
		}
		if c.header != "" {
			req.Header.Set("Last-Event-ID", c.header)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		var msg struct{ Error string }
		err = json.NewDecoder(resp.Body).Decode(&msg)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest || err != nil || !strings.Contains(msg.Error, c.name) {
			t.Errorf("header %q query %q: status %d, error %q (decode %v); want 400 naming %s",
				c.header, c.query, resp.StatusCode, msg.Error, err, c.name)
		}
	}
}

// FuzzLastEventID fuzzes the SSE resume parse with any header and query
// values: it never panics, the header wins when set, an accepted value
// is the non-negative number strconv reads from the chosen source (0
// when neither is set), and a rejected one names its source. Seeds:
// testdata/fuzz/FuzzLastEventID plus the pair below.
func FuzzLastEventID(f *testing.F) {
	f.Add("4", "")
	f.Fuzz(func(t *testing.T, header, query string) {
		n, err := lastEventID(header, query)
		src, name := header, "Last-Event-ID"
		if src == "" {
			src, name = query, "lastEventID"
		}
		if err != nil {
			if src == "" || !strings.Contains(err.Error(), name) {
				t.Fatalf("header %q query %q: error %v", header, query, err)
			}
			if want, aerr := strconv.Atoi(src); aerr == nil && want >= 0 {
				t.Fatalf("header %q query %q: rejected event number %d", header, query, want)
			}
			return
		}
		want := 0
		if src != "" {
			want, _ = strconv.Atoi(src)
		}
		if n != want || n < 0 {
			t.Fatalf("header %q query %q: parsed %d, want %d", header, query, n, want)
		}
	})
}
