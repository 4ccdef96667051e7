// Package serve is the experiment control plane: a long-lived HTTP+JSON
// daemon (`rlnc serve`) that accepts experiment and algorithm jobs,
// validates them against the experiment and algorithm registries,
// executes them on the repository's Monte-Carlo machinery, and archives
// every finished table in a content-addressed run store.
//
// The design premise is the repository's determinism contract: a run's
// output is a pure function of its normalized configuration (algorithm,
// graph family, parameters, trial count, seed, fault plan). The daemon
// therefore names each run by the hash of that configuration's canonical
// encoding — resubmitting the same job, whatever the JSON spelling,
// resolves to the same run ID and is answered from the store without
// recomputing anything. `GET /v1/runs/{id}/events` streams each run's
// progress (queued → started → per-sweep trial-chunk counts → done) as
// Server-Sent Events.
//
// Endpoints (all under /v1; see docs/OPERATIONS.md for curl examples):
//
//	POST /v1/runs            submit a job (202 queued, 200 cached)
//	GET  /v1/runs            list runs, live and stored
//	GET  /v1/runs/{id}        one run's metadata
//	GET  /v1/runs/{id}/table  the rendered result table, verbatim bytes
//	GET  /v1/runs/{id}/events SSE progress stream
//	GET  /v1/experiments      the experiment registry (E1–E17)
//	GET  /v1/algorithms       the remote-algorithm registry
//	GET  /v1/families         the graph-family registry
//	GET  /v1/stats            executed/cache-hit counters
//	GET  /v1/healthz          liveness probe
package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"rlnc/internal/exp"
	"rlnc/internal/graph"
	"rlnc/internal/ids"
	"rlnc/internal/lang"
	"rlnc/internal/local"
	"rlnc/internal/localrand"
	"rlnc/internal/mc"
	"rlnc/internal/report"
)

// Run lifecycle states, as reported in RunMeta.Status.
const (
	statusQueued  = "queued"
	statusRunning = "running"
	statusDone    = "done"
	statusError   = "error"
)

// Options configures a Server. Store is required; everything else
// defaults sensibly.
type Options struct {
	// Store is the content-addressed run archive. Required.
	Store *Store
	// Limits bounds submitted jobs; zero fields take the documented
	// defaults.
	Limits Limits
	// MaxQueue caps the number of accepted-but-unexecuted runs; further
	// submissions get 503 until the queue drains. Default 64.
	MaxQueue int
	// NewSharded, when set, builds the sharded executors experiment and
	// algorithm trial loops use — this is how `rlnc serve -control` puts
	// a multi-host worker fleet behind the HTTP API (the same provider
	// `rlnc run -transport` injects).
	NewSharded local.ShardProvider
	// Runner, when set, replaces the default job runner. Tests inject a
	// counting runner here to pin the cache-hit contract (a repeated
	// submission must reach the runner zero times).
	Runner func(spec JobSpec, progress func(done, total int)) (table []byte, checksPass bool, err error)
	// Logf, when set, receives operational log lines.
	Logf func(format string, args ...any)
	// now overrides the clock in tests; nil means time.Now.
	now func() time.Time
}

// run is one live (queued, running, or recently finished) run.
type run struct {
	mu    sync.Mutex
	meta  RunMeta
	table []byte
	log   *eventLog
}

// snapshot returns a copy of the run's metadata.
func (r *run) snapshot() RunMeta {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.meta
}

// Server is the control-plane daemon: an http.Handler serving the /v1
// API plus one background worker executing queued runs in submission
// order. Runs execute one at a time — parallelism lives inside a run
// (the Monte-Carlo worker pool), not across runs, so concurrent
// submissions cannot perturb each other's float accumulation order.
type Server struct {
	opts  Options
	store *Store
	mux   *http.ServeMux

	mu   sync.Mutex
	live map[string]*run

	queue chan *run

	executed  atomic.Int64
	cacheHits atomic.Int64

	wg        sync.WaitGroup
	closed    chan struct{}
	closeOnce sync.Once
}

// NewServer builds a Server over the given store and starts its worker.
// Call Close to stop the worker; the handler itself has no shutdown of
// its own (wrap it in an http.Server for that).
func NewServer(opts Options) (*Server, error) {
	if opts.Store == nil {
		return nil, errors.New("serve: Options.Store is required")
	}
	if opts.MaxQueue <= 0 {
		opts.MaxQueue = 64
	}
	if opts.Logf == nil {
		opts.Logf = func(string, ...any) {}
	}
	if opts.now == nil {
		opts.now = time.Now
	}
	s := &Server{
		opts:   opts,
		store:  opts.Store,
		live:   make(map[string]*run),
		queue:  make(chan *run, opts.MaxQueue),
		closed: make(chan struct{}),
	}
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("POST /v1/runs", s.handleSubmit)
	s.mux.HandleFunc("GET /v1/runs", s.handleList)
	s.mux.HandleFunc("GET /v1/runs/{id}", s.handleGet)
	s.mux.HandleFunc("GET /v1/runs/{id}/table", s.handleTable)
	s.mux.HandleFunc("GET /v1/runs/{id}/events", s.handleEvents)
	s.mux.HandleFunc("GET /v1/experiments", s.handleExperiments)
	s.mux.HandleFunc("GET /v1/algorithms", s.handleAlgorithms)
	s.mux.HandleFunc("GET /v1/families", s.handleFamilies)
	s.mux.HandleFunc("GET /v1/stats", s.handleStats)
	s.mux.HandleFunc("GET /v1/healthz", s.handleHealthz)
	s.wg.Add(1)
	go s.worker()
	return s, nil
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// Close stops the worker. A run in flight finishes first; queued runs
// stay queued (the process is going away anyway, and nothing was
// promised beyond "accepted").
func (s *Server) Close() {
	s.closeOnce.Do(func() { close(s.closed) })
	s.wg.Wait()
}

// Executed returns how many runs the worker has actually executed (as
// opposed to answered from the store). The serve-e2e CI job asserts
// this stays at one across a resubmission.
func (s *Server) Executed() int64 { return s.executed.Load() }

// CacheHits returns how many submissions were answered from the run
// store without recompute.
func (s *Server) CacheHits() int64 { return s.cacheHits.Load() }

// writeJSON renders v as the response body with the given status.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v) //nolint:errcheck // the connection is gone; nothing to do
}

// writeError renders a JSON error body.
func writeError(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, map[string]string{"error": fmt.Sprintf(format, args...)})
}

// maxBodyBytes bounds a submission body; a job spec is a few hundred
// bytes, so a megabyte is generous.
const maxBodyBytes = 1 << 20

// handleSubmit is POST /v1/runs: validate, content-address, dedup
// against live runs and the store, and queue what remains.
func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var spec JobSpec
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		writeError(w, http.StatusBadRequest, "malformed job: %v", err)
		return
	}
	if err := spec.normalize(s.opts.Limits); err != nil {
		writeError(w, http.StatusUnprocessableEntity, "%v", err)
		return
	}
	id := spec.ID()

	s.mu.Lock()
	if rn, ok := s.live[id]; ok {
		s.mu.Unlock()
		meta := rn.snapshot()
		status := http.StatusAccepted
		if meta.Status == statusDone || meta.Status == statusError {
			status = http.StatusOK
		}
		writeJSON(w, status, meta)
		return
	}
	s.mu.Unlock()

	// Not live: a stored run answers without recompute — the cache hit
	// content addressing promises.
	if meta, table, ok, err := s.store.Get(id); err != nil {
		writeError(w, http.StatusInternalServerError, "run store: %v", err)
		return
	} else if ok {
		s.cacheHits.Add(1)
		meta.Cached = true
		s.registerCached(meta, table)
		writeJSON(w, http.StatusOK, meta)
		return
	}

	rn := &run{
		meta: RunMeta{
			ID:          id,
			Spec:        spec,
			Status:      statusQueued,
			SubmittedAt: s.opts.now().UTC(),
		},
		log: newEventLog(),
	}
	// Logged before the queue send: the worker may start the run the
	// instant it is enqueued, and "started" must not precede "queued".
	rn.log.emit("queued", map[string]any{"id": id, "job": spec.Describe()})
	// The response is the queued metadata, copied before the send: the
	// worker may finish the run before the response is written.
	queued := rn.meta
	s.mu.Lock()
	if prior, ok := s.live[id]; ok {
		// Lost a submit race to an identical spec; answer with the winner.
		s.mu.Unlock()
		writeJSON(w, http.StatusAccepted, prior.snapshot())
		return
	}
	select {
	case s.queue <- rn:
		s.live[id] = rn
	default:
		s.mu.Unlock()
		writeError(w, http.StatusServiceUnavailable, "run queue full (%d pending)", s.opts.MaxQueue)
		return
	}
	s.mu.Unlock()
	writeJSON(w, http.StatusAccepted, queued)
}

// registerCached installs a store-answered run in the live map so its
// table and a synthetic event stream ([cached, done]) are immediately
// servable, mirroring a freshly executed run's endpoints.
func (s *Server) registerCached(meta RunMeta, table []byte) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.live[meta.ID]; ok {
		return
	}
	rn := &run{meta: meta, table: table, log: newEventLog()}
	rn.log.emit("cached", map[string]any{"id": meta.ID, "job": meta.Spec.Describe()})
	rn.log.emit("done", doneEvent(meta))
	rn.log.close()
	s.live[meta.ID] = rn
}

// doneEvent is the terminal-event payload of a successful run.
func doneEvent(meta RunMeta) map[string]any {
	return map[string]any{
		"id":         meta.ID,
		"tableBytes": meta.TableBytes,
		"checksPass": meta.ChecksPass,
		"cached":     meta.Cached,
	}
}

// lookup finds a run by ID, live runs shadowing stored ones.
func (s *Server) lookup(id string) (meta RunMeta, table []byte, lg *eventLog, ok bool, err error) {
	if !validRunID(id) {
		return RunMeta{}, nil, nil, false, fmt.Errorf("malformed run id %q", id)
	}
	s.mu.Lock()
	rn, live := s.live[id]
	s.mu.Unlock()
	if live {
		rn.mu.Lock()
		defer rn.mu.Unlock()
		return rn.meta, rn.table, rn.log, true, nil
	}
	meta, table, ok, err = s.store.Get(id)
	return meta, table, nil, ok, err
}

// handleList is GET /v1/runs: stored runs plus live ones, live entries
// shadowing their stored counterparts.
func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	stored, err := s.store.List()
	if err != nil {
		writeError(w, http.StatusInternalServerError, "run store: %v", err)
		return
	}
	s.mu.Lock()
	liveMetas := make([]RunMeta, 0, len(s.live))
	seen := make(map[string]bool, len(s.live))
	for id, rn := range s.live {
		liveMetas = append(liveMetas, rn.snapshot())
		seen[id] = true
	}
	s.mu.Unlock()
	out := make([]RunMeta, 0, len(stored)+len(liveMetas))
	for _, m := range stored {
		if !seen[m.ID] {
			out = append(out, m)
		}
	}
	out = append(out, liveMetas...)
	writeJSON(w, http.StatusOK, map[string]any{"runs": out})
}

// handleGet is GET /v1/runs/{id}.
func (s *Server) handleGet(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	meta, _, _, ok, err := s.lookup(id)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	if !ok {
		writeError(w, http.StatusNotFound, "no run %s", id)
		return
	}
	writeJSON(w, http.StatusOK, meta)
}

// handleTable is GET /v1/runs/{id}/table: the stored table bytes,
// verbatim — these diff clean against the committed CLI goldens, which
// is what the serve-e2e CI job pins.
func (s *Server) handleTable(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	meta, table, _, ok, err := s.lookup(id)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	if !ok {
		writeError(w, http.StatusNotFound, "no run %s", id)
		return
	}
	if meta.Status != statusDone {
		writeError(w, http.StatusConflict, "run %s is %s, not done", id, meta.Status)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	w.WriteHeader(http.StatusOK)
	w.Write(table) //nolint:errcheck // nothing to do about a gone client
}

// handleEvents is GET /v1/runs/{id}/events: the run's SSE progress
// stream. Live runs stream until their terminal event; finished and
// stored runs replay their log (or a synthesized terminal event) and
// end. Last-Event-ID (or ?lastEventID=) resumes a dropped stream; one
// that is not a non-negative event number is a 400, not a full replay.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	after, err := lastEventID(r.Header.Get("Last-Event-ID"), r.URL.Query().Get("lastEventID"))
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	id := r.PathValue("id")
	meta, _, lg, ok, err := s.lookup(id)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	if !ok {
		writeError(w, http.StatusNotFound, "no run %s", id)
		return
	}
	if lg == nil {
		// A stored run from a previous daemon lifetime: synthesize its
		// terminal log so clients see the same framing either way.
		lg = newEventLog()
		lg.emit("done", doneEvent(meta))
		lg.close()
	}
	writeSSE(w, r, lg, after)
}

// handleExperiments is GET /v1/experiments.
func (s *Server) handleExperiments(w http.ResponseWriter, r *http.Request) {
	type entry struct {
		ID       string `json:"id"`
		Title    string `json:"title"`
		PaperRef string `json:"paperRef"`
	}
	var out []entry
	for _, e := range report.All() {
		out = append(out, entry{ID: e.ID(), Title: e.Title(), PaperRef: e.PaperRef()})
	}
	writeJSON(w, http.StatusOK, map[string]any{"experiments": out})
}

// handleAlgorithms is GET /v1/algorithms.
func (s *Server) handleAlgorithms(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{"algorithms": local.RegisteredRemoteAlgorithms()})
}

// handleFamilies is GET /v1/families.
func (s *Server) handleFamilies(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{"families": graph.Families()})
}

// handleStats is GET /v1/stats.
func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	live := len(s.live)
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, map[string]any{
		"executed":  s.executed.Load(),
		"cacheHits": s.cacheHits.Load(),
		"queued":    len(s.queue),
		"live":      live,
	})
}

// handleHealthz is GET /v1/healthz.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{"ok": true})
}

// worker drains the run queue, one run at a time.
func (s *Server) worker() {
	defer s.wg.Done()
	for {
		select {
		case <-s.closed:
			return
		case rn := <-s.queue:
			s.execute(rn)
		}
	}
}

// execute runs one queued job to its terminal state: progress events
// stream while it runs, and a successful table lands in the store
// before the done event fires, so a client that saw "done" can always
// fetch the table.
func (s *Server) execute(rn *run) {
	s.executed.Add(1)
	rn.mu.Lock()
	rn.meta.Status = statusRunning
	rn.meta.StartedAt = s.opts.now().UTC()
	spec := rn.meta.Spec
	rn.mu.Unlock()
	rn.log.emit("started", map[string]any{"id": rn.meta.ID, "job": spec.Describe()})

	// Sweeps run sequentially inside an experiment, so the sweep counter
	// only moves on the (0, total) calls; chunk completions within a
	// sweep arrive concurrently and share the counter's current value.
	var pmu sync.Mutex
	sweep := 0
	progress := func(done, total int) {
		pmu.Lock()
		defer pmu.Unlock()
		if done == 0 {
			sweep++
			rn.log.emit("sweep", map[string]any{"sweep": sweep, "chunks": total})
			return
		}
		rn.log.emit("chunks", map[string]any{"sweep": sweep, "done": done, "total": total})
	}

	runner := s.opts.Runner
	if runner == nil {
		runner = s.runJob
	}
	table, checksPass, err := runner(spec, progress)
	finished := s.opts.now().UTC()

	rn.mu.Lock()
	if err != nil {
		rn.meta.FinishedAt = finished
		rn.meta.Status = statusError
		rn.meta.Error = err.Error()
		meta := rn.meta
		rn.mu.Unlock()
		s.opts.Logf("run %s failed: %v", meta.ID, err)
		rn.log.emit("error", map[string]any{"id": meta.ID, "error": err.Error()})
		rn.log.close()
		return
	}
	meta := rn.meta
	rn.mu.Unlock()
	meta.FinishedAt = finished
	meta.Status = statusDone
	meta.ChecksPass = checksPass
	meta.TableBytes = len(table)

	// Persist before publishing done: a client that sees done may at once
	// ask another daemon on the same store for the run.
	if err := s.store.Put(meta, []byte(spec.canon().Encode()), table); err != nil {
		// The run still completed; the archive just missed it. Serve from
		// memory and say so rather than failing a finished run.
		s.opts.Logf("run %s finished but could not be stored: %v", meta.ID, err)
	}
	rn.mu.Lock()
	rn.meta = meta
	rn.table = table
	rn.mu.Unlock()
	s.opts.Logf("run %s done: %s (%d table bytes, checks pass: %v)",
		meta.ID, spec.Describe(), len(table), checksPass)
	rn.log.emit("done", doneEvent(meta))
	rn.log.close()
}

// runJob is the default runner: experiments go through the registry's
// Config plumbing, algorithm jobs through a Monte-Carlo trial sweep
// built right here. A panic anywhere below (a trial chunk failing
// permanently re-raises its panic) becomes the run's error, not the
// daemon's.
func (s *Server) runJob(spec JobSpec, progress func(done, total int)) (table []byte, checksPass bool, err error) {
	defer func() {
		if r := recover(); r != nil {
			table, checksPass, err = nil, false, fmt.Errorf("run panicked: %v", r)
		}
	}()
	if spec.Experiment != "" {
		e, ok := exp.ByID(spec.Experiment)
		if !ok {
			return nil, false, fmt.Errorf("unknown experiment %q", spec.Experiment)
		}
		res, err := e.Run(report.Config{
			Quick:      spec.Quick,
			Seed:       spec.Seed,
			Shards:     spec.Shards,
			Fault:      spec.Fault.plan(),
			NewSharded: s.opts.NewSharded,
			Progress:   progress,
		})
		if err != nil {
			return nil, false, err
		}
		return report.RunText(e, res), res.AllChecksPass(), nil
	}
	return s.runAlgorithm(spec, progress)
}

// algoBatchWidth is the lane count of an algorithm job's trial vectors:
// each Monte-Carlo chunk runs this many trials on one Batch execution
// (across its shards, when the job asked for some), so vectorized
// stepping, one cut exchange per round for all lanes, and the batch's
// reused result arena apply to serve jobs. Wider
// vectors buy little more speed and cost memory. The serve-mix benchmark
// on a shared 2-core host (15 s runs, alternating pairs) measured,
// relative to width 1:
//
//	width  wall_s        peak_rss_mb
//	1      0.95 s        19.2 MB
//	2      −19%          flat
//	4      −27% (0.69 s) +13%
//	8      −30%          +26%
//	32     −28%          +108%
const algoBatchWidth = 4

// algoState is one Monte-Carlo worker's execution scratch for an
// algorithm job: a batch of algoBatchWidth lanes from
// Plan.NewShardedBatch (sharded when the job asked for shards), the
// job's algorithm, and the lane draw slice. The embedded batch's
// SetFault and Close are the executor's fault-setter and closer hooks,
// so fault plans arm and transports release exactly as in the
// experiment trial loops.
type algoState struct {
	*local.Batch
	algo  local.WireAlgorithm
	draws []localrand.Draw
}

// runAlgorithm executes an algorithm job: Trials independent runs of
// the keyed algorithm on the family graph, per-trial randomness drawn
// from the job seed by trial index, aggregated into mean ± stderr
// rounds and messages. Per-trial values land in trial-indexed slices
// and fold in trial order, so the rendered digits are a fixed function
// of the spec — the same determinism contract the experiment tables
// have.
func (s *Server) runAlgorithm(spec JobSpec, progress func(done, total int)) ([]byte, bool, error) {
	a := spec.Algorithm
	g, err := buildFamily(a.Family, a.N)
	if err != nil {
		return nil, false, err
	}
	plan, err := local.NewPlan(g)
	if err != nil {
		return nil, false, err
	}
	in, err := lang.NewInstance(g, lang.EmptyInputs(g.N()), ids.Consecutive(g.N()))
	if err != nil {
		return nil, false, err
	}
	newState := func() *algoState {
		algo, err := local.BuildRemoteAlgorithm(a.Key, a.Params)
		if err != nil {
			mc.Fail(err) // validated at intake; only a registry change mid-flight gets here
		}
		return &algoState{
			Batch: plan.NewShardedBatch(algoBatchWidth, spec.Shards, s.opts.NewSharded),
			algo:  algo,
			draws: make([]localrand.Draw, algoBatchWidth),
		}
	}

	space := localrand.NewTapeSpace(spec.Seed)
	rounds := make([]float64, a.Trials)
	msgs := make([]float64, a.Trials)
	x := mc.Executor[*algoState]{
		Trials:   a.Trials,
		Batch:    algoBatchWidth,
		Shards:   min(spec.Shards, g.N()),
		Fault:    spec.Fault.plan(),
		NewState: newState,
		Progress: progress,
	}
	x.Mean(func(st *algoState, lo, hi int, out []float64) {
		draws := st.draws[:hi-lo]
		for i := range draws {
			draws[i] = space.Draw(uint64(lo + i))
		}
		rs, err := st.Run(in, st.algo, draws, local.RunOptions{})
		if err != nil {
			mc.Fail(err)
		}
		for i, res := range rs {
			rounds[lo+i] = float64(res.Stats.Rounds)
			msgs[lo+i] = float64(res.Stats.Messages)
			out[i] = rounds[lo+i]
		}
	})
	rMean, rSE := meanStderr(rounds)
	mMean, mSE := meanStderr(msgs)

	res := &report.Result{}
	t := res.NewTable(
		fmt.Sprintf("algorithm %s%v on %s n=%d", a.Key, a.Params, a.Family, a.N),
		"metric", "mean", "stderr", "trials")
	t.AddRow("rounds", fmt.Sprintf("%.4f", rMean), fmt.Sprintf("%.4f", rSE), a.Trials)
	t.AddRow("messages", fmt.Sprintf("%.1f", mMean), fmt.Sprintf("%.1f", mSE), a.Trials)
	t.AddNote("seed %d; %d nodes; randomness drawn per trial index", spec.Seed, g.N())
	if spec.Fault != nil {
		t.AddNote("faults armed: drop=%g delay=%g crash=%g", spec.Fault.Drop, spec.Fault.Delay, spec.Fault.Crash)
	}

	var b strings.Builder
	fmt.Fprintf(&b, "=== algorithm %s — %s n=%d, %d trials, seed %d\n\n",
		a.Key, a.Family, a.N, a.Trials, spec.Seed)
	res.Render(&b)
	b.WriteByte('\n')
	return []byte(b.String()), true, nil
}

// meanStderr folds per-trial values in index order into the sample mean
// and standard error (mirroring the Monte-Carlo package's fold, so the
// two metrics of an algorithm table agree digit-for-digit with what a
// one-metric sweep would print).
func meanStderr(vals []float64) (mean, stderr float64) {
	n := len(vals)
	if n == 0 {
		return 0, 0
	}
	var sum, sq float64
	for _, v := range vals {
		sum += v
		sq += v * v
	}
	mean = sum / float64(n)
	if n > 1 {
		variance := (sq - sum*sum/float64(n)) / float64(n-1)
		if variance < 0 {
			variance = 0
		}
		stderr = math.Sqrt(variance / float64(n))
	}
	return mean, stderr
}
