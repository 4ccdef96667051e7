package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"net"
	"net/http"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"rlnc/internal/exp"
	"rlnc/internal/report"
	"rlnc/internal/serve"
)

// serve-mix drives an in-process serve.Server behind a real loopback
// HTTP listener with a closed loop of two clients, one keep-alive
// connection each. A pass is one round over a fresh run store:
//
//  1. Daemon lifetime one runs every fresh job (the quick experiments
//     E1–E17 and four algorithm jobs) interleaved with hitsPerJob
//     resubmissions per job of specs already finished; the daemon answers
//     those from its in-memory run table.
//  2. A restarted daemon over the same store receives every spec once
//     more; each is a cache hit read back from the run store.
//
// The benchmark seed is every job's seed and orders the interleaving; it
// does not change the set of jobs.

const hitsPerJob = 10

type mixJob struct {
	name string
	kind string // "exp", "algo" or "algo_sharded"
	spec serve.JobSpec
	body []byte
}

// swapHandler forwards to the current daemon, so a restart keeps the
// listener and the clients' connections.
type swapHandler struct{ cur atomic.Pointer[serve.Server] }

func (h *swapHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) { h.cur.Load().ServeHTTP(w, r) }

type serveMix struct {
	seed uint64
	tr   *tracer
	tmp  string

	jobs    []mixJob
	handler swapHandler
	httpSrv *http.Server
	served  chan struct{}
	base    string
	clients [2]*http.Client
	probe   *serve.Server
	dir     string

	round int
	first [][]byte // every job's table from the first round

	mu    sync.Mutex
	layer serveLayer
}

// serveLayer collects the traced rounds' per-layer samples.
type serveLayer struct {
	submitMs, tableMs, queueMs []float64
	execMs                     map[string][]float64
	sseEvents                  int
	executed, cacheHits, posts int
}

// mixJobs is the fixed job set: every registered experiment in quick mode
// and four algorithm jobs, all at the benchmark seed.
func mixJobs(seed uint64) []mixJob {
	var jobs []mixJob
	for _, e := range exp.All() {
		jobs = append(jobs, mixJob{name: e.ID(), kind: "exp", spec: serve.JobSpec{Experiment: e.ID(), Quick: true, Seed: seed}})
	}
	algo := func(name, kind string, shards int, a serve.AlgoSpec) {
		jobs = append(jobs, mixJob{name: name, kind: kind, spec: serve.JobSpec{Algorithm: &a, Seed: seed, Shards: shards}})
	}
	algo("luby-mis/torus32", "algo", 0, serve.AlgoSpec{Key: "luby-mis", Family: "torus", N: 32, Trials: 400})
	algo("retry-coloring/cycle4096", "algo", 0, serve.AlgoSpec{Key: "retry-coloring", Params: []int64{3, 4}, Family: "cycle", N: 4096, Trials: 400})
	algo("cole-vishkin/cycle2048", "algo", 0, serve.AlgoSpec{Key: "cole-vishkin", Params: []int64{12}, Family: "cycle", N: 2048, Trials: 200})
	algo("luby-mis/torus32/shards2", "algo_sharded", 2, serve.AlgoSpec{Key: "luby-mis", Family: "torus", N: 32, Trials: 400})
	for i := range jobs {
		jobs[i].body, _ = json.Marshal(jobs[i].spec) //nolint:errcheck // a JobSpec always marshals
	}
	return jobs
}

// setup starts the listener and a daemon over an empty store, connects
// both clients and reads the registries the job set is built from.
func (w *serveMix) setup() error {
	if err := os.MkdirAll(w.tmp, 0o755); err != nil {
		return err
	}
	dir, err := os.MkdirTemp(w.tmp, "servemix-probe-")
	if err != nil {
		return err
	}
	w.dir = dir
	store, err := serve.OpenStore(dir)
	if err != nil {
		return err
	}
	if w.probe, err = serve.NewServer(serve.Options{Store: store}); err != nil {
		return err
	}
	w.handler.cur.Store(w.probe)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	w.base = "http://" + ln.Addr().String()
	w.httpSrv = &http.Server{Handler: &w.handler}
	w.served = make(chan struct{})
	go func() {
		defer close(w.served)
		w.httpSrv.Serve(ln) //nolint:errcheck // always ErrServerClosed after teardown
	}()
	for i := range w.clients {
		w.clients[i] = &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}}
		if _, err := w.get(w.clients[i], "/v1/healthz"); err != nil {
			return err
		}
	}
	reg, err := w.get(w.clients[0], "/v1/algorithms")
	if err != nil {
		return err
	}
	w.jobs = mixJobs(w.seed)
	for _, j := range w.jobs {
		if j.spec.Algorithm != nil && !bytes.Contains(reg, []byte(`"`+j.spec.Algorithm.Key+`"`)) {
			return fmt.Errorf("algorithm %q not registered", j.spec.Algorithm.Key)
		}
	}
	return nil
}

func (w *serveMix) hostProbe() *probe { return nil }

func (w *serveMix) teardown() {
	if w.httpSrv != nil {
		w.httpSrv.Close() //nolint:errcheck // closing the listener is best effort at exit
		<-w.served
		w.httpSrv = nil
	}
	for _, c := range w.clients {
		if c != nil {
			c.CloseIdleConnections()
		}
	}
	if w.probe != nil {
		w.probe.Close()
		w.probe = nil
	}
	if w.dir != "" {
		os.RemoveAll(w.dir) //nolint:errcheck // scratch cleanup
		w.dir = ""
	}
}

// get fetches path and returns the body of a 200 response.
func (w *serveMix) get(c *http.Client, path string) ([]byte, error) {
	resp, err := c.Get(w.base + path)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: status %d", path, resp.StatusCode)
	}
	return body, nil
}

// submit POSTs a job and returns the status code and the run metadata.
func (w *serveMix) submit(c *http.Client, body []byte) (int, serve.RunMeta, error) {
	var meta serve.RunMeta
	resp, err := c.Post(w.base+"/v1/runs", "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, meta, err
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(&meta); err != nil {
		return resp.StatusCode, meta, fmt.Errorf("decode run: %w", err)
	}
	_, err = io.Copy(io.Discard, resp.Body)
	return resp.StatusCode, meta, err
}

// await reads a run's SSE stream to its end and returns the terminal
// event type and the number of events.
func (w *serveMix) await(c *http.Client, id string) (string, int, error) {
	resp, err := c.Get(w.base + "/v1/runs/" + id + "/events")
	if err != nil {
		return "", 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return "", 0, fmt.Errorf("events %s: status %d", id, resp.StatusCode)
	}
	var last string
	events := 0
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		if typ, ok := strings.CutPrefix(sc.Text(), "event: "); ok {
			last = typ
			events++
		}
	}
	return last, events, sc.Err()
}

// roundState is one round's shared client state.
type roundState struct {
	mu   sync.Mutex
	next int
	// ops holds a job index i ≥ 0 to run fresh, -1 for a resubmission of
	// any finished job, or -2-i to resubmit job i.
	ops      []int
	tables   [][]byte
	finished []int
}

func (s *roundState) take() (int, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.next == len(s.ops) {
		return 0, false
	}
	s.next++
	return s.ops[s.next-1], true
}

// pass runs one round; see the top of the file.
func (w *serveMix) pass(rec *recorder) error {
	round := w.round
	w.round++
	dir, err := os.MkdirTemp(w.tmp, "servemix-store-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir) //nolint:errcheck // scratch cleanup
	store, err := serve.OpenStore(dir)
	if err != nil {
		return err
	}
	rng := rand.New(rand.NewPCG(w.seed, uint64(round)))
	st := &roundState{tables: make([][]byte, len(w.jobs))}
	for i := range w.jobs {
		st.ops = append(st.ops, i)
	}
	for range hitsPerJob*len(w.jobs) - len(w.jobs) {
		st.ops = append(st.ops, -1)
	}
	rng.Shuffle(len(st.ops), func(i, j int) { st.ops[i], st.ops[j] = st.ops[j], st.ops[i] })
	// Both clients open with a fresh job, so a resubmission always finds
	// a finished one.
	for c := 0; c < len(w.clients); c++ {
		for k := c; k < len(st.ops); k++ {
			if st.ops[k] >= 0 {
				st.ops[c], st.ops[k] = st.ops[k], st.ops[c]
				break
			}
		}
	}

	if err := w.lifetime(rec, store, st, round, len(w.jobs), 0); err != nil {
		return err
	}
	// Restart: every spec once more, each answered from the store.
	st.ops = st.ops[:0]
	st.next = 0
	for _, i := range rng.Perm(len(w.jobs)) {
		st.ops = append(st.ops, -2-i)
	}
	if err := w.lifetime(rec, store, st, round, 0, len(w.jobs)); err != nil {
		return err
	}

	for i, t := range st.tables {
		rec.sum(w.jobs[i].name, t)
	}
	if w.first == nil {
		w.first = st.tables
	}
	return nil
}

// lifetime runs one daemon lifetime over store until the round's ops
// are done, then checks the daemon's counters.
func (w *serveMix) lifetime(rec *recorder, store *serve.Store, st *roundState, round, wantExecuted, wantHits int) error {
	srv, err := serve.NewServer(serve.Options{Store: store})
	if err != nil {
		return err
	}
	w.handler.cur.Store(srv)
	var wg sync.WaitGroup
	for c := range w.clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			w.client(rec, c, st, round)
		}()
	}
	wg.Wait()
	body, err := w.get(w.clients[0], "/v1/stats")
	var stats struct{ Executed, CacheHits int }
	if err == nil {
		err = json.Unmarshal(body, &stats)
	}
	srv.Close()
	w.handler.cur.Store(w.probe)
	rec.check("GET /v1/stats answers", err == nil)
	rec.check(fmt.Sprintf("daemon executed %d runs", wantExecuted), stats.Executed == wantExecuted)
	rec.check(fmt.Sprintf("daemon counted %d run-store cache hits", wantHits), stats.CacheHits == wantHits)
	if w.tr.on {
		w.mu.Lock()
		w.layer.executed += stats.Executed
		w.layer.cacheHits += stats.CacheHits
		w.mu.Unlock()
	}
	return nil
}

// client is one closed-loop client: it takes the round's next op, runs
// it to completion, and repeats.
func (w *serveMix) client(rec *recorder, c int, st *roundState, round int) {
	hc := w.clients[c]
	rng := rand.New(rand.NewPCG(w.seed^uint64(c+1)<<32, uint64(round)))
	for {
		op, ok := st.take()
		if !ok {
			return
		}
		switch {
		case op >= 0:
			w.fresh(rec, hc, st, op)
		case op == -1:
			st.mu.Lock()
			if len(st.finished) == 0 {
				st.mu.Unlock()
				rec.op(0, true, errors.New("resubmission: no finished job to resubmit"))
				continue
			}
			i := st.finished[rng.IntN(len(st.finished))]
			want := st.tables[i]
			st.mu.Unlock()
			w.resubmit(rec, hc, i, want)
		default:
			i := -2 - op
			st.mu.Lock()
			want := st.tables[i]
			st.mu.Unlock()
			w.resubmit(rec, hc, i, want)
		}
	}
}

// fresh submits job i to a daemon that has never seen it and follows it
// to its table: POST (202), the SSE stream until done, GET table.
func (w *serveMix) fresh(rec *recorder, hc *http.Client, st *roundState, i int) {
	j := w.jobs[i]
	tr := w.tr
	t0 := time.Now()
	root := tr.begin("serve.job."+j.kind, -1)
	sp := tr.begin("serve.submit", root)
	code, meta, err := w.submit(hc, j.body)
	tr.end(sp)
	d0 := time.Since(t0)
	if err == nil && code != http.StatusAccepted {
		err = fmt.Errorf("POST %s: status %d, want 202", j.name, code)
	}
	var terminal string
	var events int
	if err == nil {
		sp = tr.begin("serve.events", root)
		terminal, events, err = w.await(hc, meta.ID)
		tr.end(sp)
		if err == nil && terminal != "done" {
			err = fmt.Errorf("run %s (%s) ended in %q", meta.ID, j.name, terminal)
		}
	}
	var table []byte
	t1 := time.Now()
	if err == nil {
		sp = tr.begin("serve.table", root)
		table, err = w.get(hc, "/v1/runs/"+meta.ID+"/table")
		tr.end(sp)
	}
	d1 := time.Since(t1)
	tr.end(root)
	rec.op(time.Since(t0), false, err)
	if err != nil {
		return
	}
	st.mu.Lock()
	st.tables[i] = table
	st.finished = append(st.finished, i)
	st.mu.Unlock()

	if tr.on {
		sp = tr.begin("serve.meta", -1)
		body, merr := w.get(hc, "/v1/runs/"+meta.ID)
		tr.end(sp)
		var done serve.RunMeta
		if merr == nil {
			merr = json.Unmarshal(body, &done)
		}
		w.mu.Lock()
		defer w.mu.Unlock()
		l := &w.layer
		l.posts++
		l.submitMs = append(l.submitMs, ms(d0))
		l.tableMs = append(l.tableMs, ms(d1))
		l.sseEvents += events
		if merr == nil {
			l.queueMs = append(l.queueMs, ms(done.StartedAt.Sub(done.SubmittedAt)))
			if l.execMs == nil {
				l.execMs = map[string][]float64{}
			}
			l.execMs[j.kind] = append(l.execMs[j.kind], ms(done.FinishedAt.Sub(done.StartedAt)))
		}
	}
}

// resubmit POSTs an already finished spec (200) and fetches its table,
// which must equal the first completion's bytes.
func (w *serveMix) resubmit(rec *recorder, hc *http.Client, i int, want []byte) {
	j := w.jobs[i]
	tr := w.tr
	t0 := time.Now()
	root := tr.begin("serve.hit", -1)
	sp := tr.begin("serve.submit", root)
	code, meta, err := w.submit(hc, j.body)
	tr.end(sp)
	d0 := time.Since(t0)
	if err == nil && (code != http.StatusOK || meta.Status != "done") {
		err = fmt.Errorf("resubmit %s: status %d (%s), want 200 (done)", j.name, code, meta.Status)
	}
	var table []byte
	t1 := time.Now()
	if err == nil {
		sp = tr.begin("serve.table", root)
		table, err = w.get(hc, "/v1/runs/"+meta.ID+"/table")
		tr.end(sp)
	}
	d1 := time.Since(t1)
	tr.end(root)
	if err == nil && !bytes.Equal(table, want) {
		err = fmt.Errorf("resubmit %s: table bytes differ from the first completion", j.name)
	}
	rec.op(time.Since(t0), true, err)
	if tr.on {
		w.mu.Lock()
		defer w.mu.Unlock()
		w.layer.posts++
		w.layer.submitMs = append(w.layer.submitMs, ms(d0))
		w.layer.tableMs = append(w.layer.tableMs, ms(d1))
	}
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// verify renders every experiment job in-process, as `rlnc run -quick`
// does, and requires the served table to equal it byte for byte, check
// verdicts included.
func (w *serveMix) verify(rec *recorder) {
	if w.first == nil {
		return
	}
	failing := 0
	for i, j := range w.jobs {
		if j.kind != "exp" || w.first[i] == nil {
			continue
		}
		e, ok := exp.ByID(j.spec.Experiment)
		var res *report.Result
		var err error
		if ok {
			res, err = e.Run(report.Config{Quick: true, Seed: j.spec.Seed})
		}
		same := ok && err == nil && bytes.Equal(report.RunText(e, res), w.first[i])
		rec.check(fmt.Sprintf("served %s table equals the CLI rendering", j.name), same)
		if same && !res.AllChecksPass() {
			failing++
			rec.note(fmt.Sprintf("%s quick at seed %d has a failing statistical check (served and CLI agree)", j.name, j.spec.Seed))
		}
	}
	rec.note(fmt.Sprintf("%d of the experiment tables carry a failing statistical check", failing))
}

func (w *serveMix) layers(rec *recorder, passes int, m metrics) {
	l := &w.layer
	pp := float64(max(passes, 1))
	m.set("serve.submit_ms_p50", percentile(l.submitMs, 50), "ms", len(l.submitMs))
	m.set("serve.queue_ms_p50", percentile(l.queueMs, 50), "ms", len(l.queueMs))
	for _, k := range []string{"exp", "algo", "algo_sharded"} {
		m.set("serve.exec_ms_p50."+k, percentile(l.execMs[k], 50), "ms", len(l.execMs[k]))
	}
	m.set("serve.table_ms_p50", percentile(l.tableMs, 50), "ms", len(l.tableMs))
	m.set("serve.sse_events", float64(l.sseEvents)/pp, "count", passes)
	m.set("serve.executed", float64(l.executed)/pp, "count", passes)
	m.set("serve.cache_hits", float64(l.cacheHits)/pp, "count", passes)
	m.set("serve.hit_ratio", 1-ratio(float64(l.executed), float64(l.posts)), "ratio", l.posts)
	m.set("trace.spans", float64(spanCount(w.tr.aggregate()))/pp, "count", passes)
}
