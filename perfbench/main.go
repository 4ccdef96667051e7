// Command perfbench is the repository benchmark. One invocation runs one
// named workload for a fixed measuring time, checks every answer the
// program gives, and prints its metrics; the last line of standard output
// is a JSON object with the keys correct, attempted, failed and metrics.
//
//	perfbench --workload mc-slack-sweep --seed 1 --seconds 30 --trace 0
//
// With --trace 0 it prints the end-to-end metrics; with --trace 1 it
// alternates untraced and traced passes, records in-memory spans around
// every call the workload makes into a layer, and prints the per-layer
// metrics plus the tracing overhead. README.md defines every metric.
package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"hash"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"sync"
	"time"
)

// workload is one named input set of the benchmark.
type workload interface {
	// setup prepares the timed part. It runs at least setupMinReps
	// times and until setupTime has passed; every set-up but the last
	// is torn down again.
	setup() error
	teardown()
	// pass runs one timed pass, recording samples and checks in rec.
	pass(rec *recorder) error
	// verify runs untimed checks after the last pass.
	verify(rec *recorder)
	// layers adds the workload's per-layer metrics, averaged over
	// tracedPasses traced passes.
	layers(rec *recorder, tracedPasses int, m metrics)
	// hostProbe returns the workload's host-speed probe (probe.go), or
	// nil when its times are reported as measured.
	hostProbe() *probe
}

const (
	// A serve-mix set-up takes about 1 ms and one of them varies by
	// half between runs, so short set-ups repeat until setupTime has
	// passed, up to setupMaxReps times.
	setupMinReps = 9
	setupMaxReps = 200
	setupTime    = time.Second
	minPasses    = 2
	// hardStop keeps a run inside the 180 s a run may take even when the
	// machine is much slower than expected.
	hardStop = 120 * time.Second
)

var workloadNames = []string{"mc-slack-sweep", "exact-coloring", "serve-mix"}

// endToEnd and perLayer name every metric each workload prints, with its
// unit; BENCHMARK.json lists the same names. A per-layer metric of a
// layer the workload bypasses reads 0.
var endToEnd = [][2]string{
	{"wall_s", "s"}, {"setup_s", "s"}, {"peak_rss_mb", "MB"},
	{"job_ms_p50", "ms"}, {"job_ms_p90", "ms"}, {"hit_ms_p50", "ms"}, {"hit_ms_p90", "ms"},
	{"jobs_per_s", "1/s"},
}

var perLayer = [][2]string{
	{"lang.count_bad_balls_s", "s"}, {"lang.balls", "count"}, {"lang.share", "ratio"},
	{"construct.run_s", "s"}, {"construct.lanes", "count"}, {"construct.share", "ratio"},
	{"graph.build_s", "s"}, {"local.plan_s", "s"}, {"local.new_batch_s", "s"},
	{"mc.mean_s", "s"}, {"mc.chunks", "count"}, {"mc.worker_s", "s"}, {"mc.idle_s", "s"},
	{"mc.busy_ratio", "ratio"}, {"mc.covered_ratio", "ratio"},
	{"linial.neighborhood_s", "s"}, {"linial.colorable_s.n7", "s"}, {"linial.colorable_s.n8", "s"},
	{"linial.budget_exhausted", "count"}, {"linial.nodes_per_s", "1/s"},
	{"serve.submit_ms_p50", "ms"}, {"serve.queue_ms_p50", "ms"}, {"serve.exec_ms_p50.exp", "ms"},
	{"serve.exec_ms_p50.algo", "ms"}, {"serve.exec_ms_p50.algo_sharded", "ms"}, {"serve.table_ms_p50", "ms"},
	{"serve.sse_events", "count"}, {"serve.executed", "count"}, {"serve.cache_hits", "count"},
	{"serve.hit_ratio", "ratio"},
	{"runtime.alloc_mb", "MB"}, {"runtime.gc_cycles", "count"},
	{"trace.overhead_s", "s"}, {"trace.spans", "count"}, {"host.probe_s", "s"},
}

func newWorkload(name string, seed uint64, tr *tracer, tmp string) (workload, error) {
	switch name {
	case "mc-slack-sweep":
		return &mcSweep{seed: seed, tr: tr}, nil
	case "exact-coloring":
		p, err := newProbe()
		if err != nil {
			return nil, err
		}
		return &exactColoring{tr: tr, probe: p}, nil
	case "serve-mix":
		return &serveMix{seed: seed, tr: tr, tmp: tmp}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(workloadNames, ", "))
}

// recorder collects one run's samples, checks and output digest. Its
// methods are safe for concurrent use.
type recorder struct {
	mu    sync.Mutex
	jobMs []float64
	hitMs []float64
	// byRequest holds a batch workload's latencies per request identity,
	// one per pass.
	byRequest map[string][]float64
	jobs      int
	attempted int
	failed    int
	failures  []string
	notes     []string
	passSum   hash.Hash
	digests   []string
}

func newRecorder() *recorder {
	return &recorder{byRequest: map[string][]float64{}, passSum: sha256.New()}
}

// count records one attempted operation and reports whether it succeeded;
// the caller holds r.mu.
func (r *recorder) count(err error) bool {
	r.attempted++
	if err != nil {
		r.failed++
		r.failures = append(r.failures, err.Error())
	}
	return err == nil
}

// op records one timed operation of the workload: a job, or a hit when
// hit is set. A non-nil err counts the operation as failed.
func (r *recorder) op(d time.Duration, hit bool, err error) {
	ms := float64(d.Nanoseconds()) / 1e6
	r.mu.Lock()
	defer r.mu.Unlock()
	if !r.count(err) {
		return
	}
	if hit {
		r.hitMs = append(r.hitMs, ms)
	} else {
		r.jobMs = append(r.jobMs, ms)
		r.jobs++
	}
}

// repeat records one timed request of a batch workload, which repeats
// the same requests every pass. Nothing on those paths caches, so a
// repeated request is recomputed like a fresh one and its samples count
// as both job and hit latency; see latencies.
func (r *recorder) repeat(request string, d time.Duration, err error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.count(err) {
		r.byRequest[request] = append(r.byRequest[request], float64(d.Nanoseconds())/1e6)
		r.jobs++
	}
}

// latencies returns the job and hit latency samples. A batch workload
// contributes one sample per request, its median over the passes, so a
// percentile ranks requests rather than the noise between repeats of
// one request.
func (r *recorder) latencies() (jobs, hits []float64) {
	if len(r.byRequest) == 0 {
		return r.jobMs, r.hitMs
	}
	for _, xs := range r.byRequest {
		jobs = append(jobs, median(xs))
	}
	return jobs, jobs
}

// attempt records one operation that is neither a job nor a check.
func (r *recorder) attempt(err error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.count(err)
}

// check records a correctness check as one attempted operation.
func (r *recorder) check(name string, ok bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	var err error
	if !ok {
		err = errors.New("check failed: " + name)
	}
	r.count(err)
}

// note records a line of information that is not a failure.
func (r *recorder) note(s string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.notes = append(r.notes, s)
}

// sum folds values into the current pass's output digest.
func (r *recorder) sum(vals ...any) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, v := range vals {
		switch x := v.(type) {
		case float64:
			binary.Write(r.passSum, binary.LittleEndian, math.Float64bits(x)) //nolint:errcheck // hash writes never fail
		case []byte:
			binary.Write(r.passSum, binary.LittleEndian, int64(len(x))) //nolint:errcheck // hash writes never fail
			r.passSum.Write(x)
		default:
			fmt.Fprintf(r.passSum, "%v|", x)
		}
	}
}

// closePass ends a pass's digest; every pass must digest identically.
func (r *recorder) closePass() {
	d := fmt.Sprintf("%x", r.passSum.Sum(nil))
	r.passSum = sha256.New()
	r.digests = append(r.digests, d)
	r.check("pass output identical to the first pass", d == r.digests[0])
}

// metric is one value of the final JSON line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	n     int
}

type metrics map[string]metric

func (m metrics) set(name string, v float64, unit string, samples int) {
	m[name] = metric{Value: v, Unit: unit, n: samples}
}

type result struct {
	Correct   bool    `json:"correct"`
	Attempted int     `json:"attempted"`
	Failed    int     `json:"failed"`
	Metrics   metrics `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload: "+strings.Join(workloadNames, ", "))
	seed := flag.Uint64("seed", 1, "workload seed")
	seconds := flag.Int("seconds", 30, "measuring time in seconds")
	trace := flag.Int("trace", 0, "1 prints per-layer metrics from traced passes")
	tmp := flag.String("tmp", filepath.Join(".bench_build", "tmp"), "scratch directory for run stores and traces")
	flag.Parse()
	if err := run(os.Stdout, *name, *seed, *seconds, *trace == 1, *tmp); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(out io.Writer, name string, seed uint64, seconds int, traced bool, tmp string) error {
	if err := os.MkdirAll(tmp, 0o755); err != nil {
		return err
	}
	tr := newTracer()
	w, err := newWorkload(name, seed, tr, tmp)
	if err != nil {
		return err
	}
	rec := newRecorder()
	pr := w.hostProbe()

	var setups []float64
	for setupStart := time.Now(); ; {
		t0 := time.Now()
		if err := w.setup(); err != nil {
			return fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
		if len(setups) >= setupMaxReps || (len(setups) >= setupMinReps && time.Since(setupStart) >= setupTime) {
			break
		}
		w.teardown()
	}
	defer w.teardown()

	var plain, withTrace, peaks []float64
	var allocMB, gcCycles float64
	budget := time.Duration(seconds) * time.Second
	start := time.Now()
	for p := 0; ; p++ {
		elapsed := time.Since(start)
		if p >= minPasses {
			// Only untraced passes set the pace; pass 0 always is one. A
			// pass starts while half of it fits, so a run measures
			// about --seconds on average rather than up to a pass less.
			last := time.Duration(plain[len(plain)-1] * float64(time.Second))
			if elapsed+last/2 > budget || elapsed+last > hardStop {
				break
			}
		}
		if pr != nil {
			pr.measure()
		}
		tr.on = traced && p%2 == 1
		tr.run = p
		// A full collection that also returns freed memory to the OS,
		// so a pass's peak does not start from what earlier passes left
		// resident.
		debug.FreeOSMemory()
		if err := resetPeakRSS(); err != nil {
			return err
		}
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		var probed float64
		if pr != nil {
			probed = pr.spent
		}
		t0 := time.Now()
		if err := w.pass(rec); err != nil {
			return fmt.Errorf("pass %d: %w", p, err)
		}
		wall := time.Since(t0).Seconds()
		if pr != nil {
			// A workload may probe inside its pass; that time is not
			// the program's.
			wall -= pr.spent - probed
		}
		runtime.ReadMemStats(&m1)
		rec.closePass()
		allocMB += float64(m1.TotalAlloc-m0.TotalAlloc) / (1 << 20)
		gcCycles += float64(m1.NumGC - m0.NumGC)
		if tr.on {
			withTrace = append(withTrace, wall)
		} else {
			plain = append(plain, wall)
			rss, err := peakRSSMB()
			if err != nil {
				return err
			}
			peaks = append(peaks, rss)
		}
	}
	tr.on = false
	passes := len(plain) + len(withTrace)
	scale := 1.0
	if pr != nil {
		pr.measure()
		scale = pr.scale()
	}
	w.verify(rec)

	jobMs, hitMs := rec.latencies()
	m := metrics{}
	if traced {
		w.layers(rec, len(withTrace), m)
		m.set("runtime.alloc_mb", allocMB/float64(passes), "MB", passes)
		m.set("runtime.gc_cycles", gcCycles/float64(passes), "count", passes)
		m.set("trace.overhead_s", median(withTrace)-median(plain), "s", passes)
		if pr != nil {
			m.set("host.probe_s", median(pr.times), "s", len(pr.times))
		}
		for _, nu := range perLayer {
			if _, ok := m[nu[0]]; !ok {
				m.set(nu[0], 0, nu[1], 0)
			}
		}
		if err := tr.write(filepath.Join(tmp, fmt.Sprintf("trace-%s-%d.jsonl", name, seed))); err != nil {
			return err
		}
	} else {
		wall := 0.0
		for _, s := range plain {
			wall += s
		}
		m.set("wall_s", median(plain)*scale, "s", len(plain))
		m.set("setup_s", median(setups)*scale, "s", len(setups))
		// The mean, not the median: on serve-mix a pass peaks either near
		// 24 MB or near 35 MB, as garbage collections fall, and the
		// median jumps between the two from one run to the next.
		m.set("peak_rss_mb", mean(peaks), "MB", len(peaks))
		m.set("job_ms_p50", percentile(jobMs, 50)*scale, "ms", len(jobMs))
		m.set("job_ms_p90", percentile(jobMs, 90)*scale, "ms", len(jobMs))
		m.set("hit_ms_p50", percentile(hitMs, 50)*scale, "ms", len(hitMs))
		m.set("hit_ms_p90", percentile(hitMs, 90)*scale, "ms", len(hitMs))
		m.set("jobs_per_s", float64(rec.jobs)/(wall*scale), "1/s", rec.jobs)
	}

	fmt.Fprintf(out, "perfbench: workload=%s seed=%d seconds=%d trace=%v pool=%d passes=%d\n",
		name, seed, seconds, traced, runtime.GOMAXPROCS(0), passes)
	if name == "exact-coloring" {
		fmt.Fprintln(out, "perfbench: exact-coloring has no random input; the seed is ignored")
	}
	names := make([]string, 0, len(m))
	for k := range m {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Fprintf(out, "  %-34s %14.6g %-6s n=%d\n", k, m[k].Value, m[k].Unit, m[k].n)
	}
	failRatio := float64(rec.failed) / float64(max(rec.attempted, 1))
	fmt.Fprintf(out, "  %-34s %14.6g %-6s n=%d (%d of %d operations failed)\n",
		"fail_ratio", failRatio, "ratio", rec.attempted, rec.failed, rec.attempted)
	for i, f := range rec.failures {
		if i == 10 {
			fmt.Fprintf(out, "  ... %d more failures\n", len(rec.failures)-i)
			break
		}
		fmt.Fprintln(out, "  FAIL:", f)
	}
	fmt.Fprintf(out, "  pass walls (s): %s\n", fmtList(plain, "%.3f"))
	fmt.Fprintf(out, "  pass peak RSS (MB): %s\n", fmtList(peaks, "%.1f"))
	if pr != nil {
		fmt.Fprintf(out, "  host probe (s): %s; times above are scaled by %.4f = %.3f s nominal / %.4f s median probe, pass walls and percentiles below are as measured\n",
			fmtList(pr.times, "%.3f"), scale, probeNominal, median(pr.times))
	}
	for _, l := range []struct {
		name string
		xs   []float64
	}{{"job_ms", jobMs}, {"hit_ms", hitMs}} {
		var qs []float64
		for _, p := range []float64{50, 75, 90, 95, 98, 99, 100} {
			qs = append(qs, percentile(l.xs, p))
		}
		fmt.Fprintf(out, "  %s n=%d p50/p75/p90/p95/p98/p99/max: %s\n", l.name, len(l.xs), fmtList(qs, "%.4g"))
	}
	for _, n := range rec.notes {
		fmt.Fprintln(out, "  note:", n)
	}
	fmt.Fprintf(out, "  output digest %s (identical over %d passes: %v)\n",
		rec.digests[0], len(rec.digests), allEqual(rec.digests))

	res := result{Correct: rec.failed == 0, Attempted: max(rec.attempted, 1), Failed: rec.failed, Metrics: m}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Fprintln(out, string(line))
	return nil
}

func fmtList(xs []float64, format string) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = fmt.Sprintf(format, x)
	}
	return strings.Join(parts, " ")
}

func allEqual(ss []string) bool {
	for _, s := range ss {
		if s != ss[0] {
			return false
		}
	}
	return true
}

// mean returns the arithmetic mean, and 0 for no values.
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// median returns the middle value, the mean of the two middle values for
// an even count, and 0 for no values.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// percentile interpolates linearly between the two samples closest to
// rank p/100·(n−1), so p50 is the median.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	r := p / 100 * float64(len(s)-1)
	lo := int(r)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (r-float64(lo))*(s[lo+1]-s[lo])
}

// resetPeakRSS starts a new peak-RSS window for the process (Linux
// clear_refs, value 5), so each pass's peak is its own rather than the
// largest of all earlier passes.
func resetPeakRSS() error {
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSSMB is the process's peak resident set size since the last
// resetPeakRSS (VmHWM).
func peakRSSMB() (float64, error) {
	status, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(status), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			var kb float64
			if _, err := fmt.Sscanf(strings.TrimSpace(rest), "%f kB", &kb); err != nil {
				return 0, fmt.Errorf("VmHWM: %w", err)
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("no VmHWM in /proc/self/status")
}
