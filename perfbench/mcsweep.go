package main

import (
	"fmt"
	"math"
	"runtime"
	"sync/atomic"
	"time"

	"rlnc/internal/construct"
	"rlnc/internal/graph"
	"rlnc/internal/ids"
	"rlnc/internal/lang"
	"rlnc/internal/local"
	"rlnc/internal/localrand"
	"rlnc/internal/mc"
)

// mc-slack-sweep replays full-size E2 (§1.1, ε-slack retry coloring on
// rings) through the same public calls as the experiment's trial body:
// graph.Cycle → local.NewPlan → mc.Executor.Mean, each worker holding a
// Plan.NewBatch(32) behind construct.Exec, each trial vector running
// construct.Exec.Run(RetryColoring) and then lang.CountBadBalls per lane.
// It is the path every Monte-Carlo experiment shares and bypasses the
// linial solver and the serve daemon.

const (
	mcTrials = 60
	mcWidth  = 32
)

// mcWorker is one Monte-Carlo worker's state, as in the experiment loops.
type mcWorker struct {
	bt    *local.Batch
	draws []localrand.Draw
}

type mcSweep struct {
	seed uint64
	tr   *tracer
	l    *lang.LCL

	// rows holds the last pass formatted like E2's three tables.
	rows [3][][]string

	chunks atomic.Int64
	lanes  atomic.Int64
	balls  atomic.Int64
}

// setup builds the LCL and runs one warm-up cell (E2a's C_2400), so the
// pool, allocator and page cache are settled before the first timed cell.
func (w *mcSweep) setup() error {
	w.l = lang.ProperColoring(3)
	_, _, err := w.cell(2400, 0, w.seed^0xE2A)
	return err
}

func (w *mcSweep) hostProbe() *probe { return nil }

func (w *mcSweep) teardown() {}

func (w *mcSweep) verify(*recorder) {}

// cell estimates the mean bad-ball fraction left by T retry rounds on
// C_n over mcTrials trials drawn from the tape space of seed — E2's
// meanBadFraction. A chunk that fails permanently surfaces as an error.
func (w *mcSweep) cell(n, T int, seed uint64) (mean, se float64, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("cell n=%d T=%d: %v", n, T, r)
		}
	}()
	tr := w.tr
	root := tr.begin("cell", -1)
	defer tr.end(root)

	sp := tr.begin("graph.build", root)
	in := &lang.Instance{G: graph.Cycle(n), X: lang.EmptyInputs(n), ID: ids.ConsecutiveFrom(n, 1)}
	tr.end(sp)
	space := localrand.NewTapeSpace(seed)
	sp = tr.begin("local.plan", root)
	plan, err := local.NewPlan(in.G)
	tr.end(sp)
	if err != nil {
		return 0, 0, err
	}

	meanSpan := tr.begin("mc.mean", root)
	x := mc.Executor[*mcWorker]{
		Trials: mcTrials,
		Batch:  mcWidth,
		NewState: func() *mcWorker {
			sp := tr.begin("local.new_batch", meanSpan)
			s := &mcWorker{bt: plan.NewBatch(mcWidth), draws: make([]localrand.Draw, mcWidth)}
			tr.end(sp)
			return s
		},
	}
	if tr.on {
		x.Progress = func(done, _ int) {
			if done > 0 {
				w.chunks.Add(1)
			}
		}
	}
	algo := construct.RetryColoring{Q: 3, T: T}
	mean, se = x.Mean(func(s *mcWorker, lo, hi int, out []float64) {
		body := tr.begin("mc.body", meanSpan)
		defer tr.end(body)
		draws := s.draws[:hi-lo]
		for i := range draws {
			draws[i] = space.Draw(uint64(lo + i))
		}
		sp := tr.begin("construct.run", body)
		ys, err := construct.Exec{Bt: s.bt}.Run(algo, in, draws)
		tr.end(sp)
		if err != nil {
			mc.Fail(err)
		}
		for i, y := range ys {
			sp := tr.begin("lang.count_bad_balls", body)
			bad := w.l.CountBadBalls(&lang.Config{G: in.G, X: in.X, Y: y})
			tr.end(sp)
			out[i] = float64(bad) / float64(n)
		}
		if tr.on {
			w.lanes.Add(int64(len(ys)))
			w.balls.Add(int64(len(ys) * n))
		}
	})
	tr.end(meanSpan)
	return mean, se, nil
}

// pass runs E2's sweep in E2's order: (a) n ∈ {600, …, 38400} at T=0,
// (b) C_2400 over T, (c) rounds-to-ε at n=600 and n=4800, which — like
// E2 — re-estimates cells it has already estimated. The whole sweep is
// one job, as `rlnc run E2` is one run: a single cell of about 0.15 s on
// two workers is too short to time steadily on a shared host.
func (w *mcSweep) pass(rec *recorder) error {
	var rows [3][][]string
	var failed error
	t0 := time.Now()
	estimate := func(n, T int, seed uint64) (float64, float64, bool) {
		mean, se, err := w.cell(n, T, seed)
		rec.attempt(err)
		if err != nil && failed == nil {
			failed = err
		}
		rec.sum(n, T, mean, se)
		return mean, se, err == nil
	}

	flat := true
	for _, n := range []int{600, 2400, 9600, 38400} {
		mean, se, ok := estimate(n, 0, w.seed^0xE2A)
		rows[0] = append(rows[0], []string{fmt.Sprint(n), fmt.Sprintf("%.4f", mean), fmt.Sprintf("%.4f", se), fmt.Sprintf("%.4f", 5.0/9)})
		if !ok || math.Abs(mean-5.0/9) > 0.03 {
			flat = false
		}
	}

	decays := true
	prev := math.Inf(1)
	for _, T := range []int{0, 1, 2, 3, 4, 6, 8} {
		mean, se, ok := estimate(2400, T, w.seed^0xE2B)
		rows[1] = append(rows[1], []string{fmt.Sprint(T), fmt.Sprintf("%.4f", mean), fmt.Sprintf("%.4f", se)})
		if !ok || mean >= prev {
			decays = false
		}
		prev = mean
	}

	roundsFor := func(eps float64, n int) int {
		for T := 0; T <= 16; T++ {
			if mean, _, ok := estimate(n, T, w.seed^0xE2C); ok && mean <= eps {
				return T
			}
		}
		return -1
	}
	independent := true
	for _, eps := range []float64{0.5, 0.3, 0.15, 0.08} {
		small, big := roundsFor(eps, 600), roundsFor(eps, 4800)
		rows[2] = append(rows[2], []string{fmt.Sprintf("%.2f", eps), fmt.Sprint(small), fmt.Sprint(big)})
		if small < 0 || big < 0 || max(small-big, big-small) > 1 {
			independent = false
		}
	}
	rec.repeat("E2", time.Since(t0), failed)
	w.rows = rows

	rec.check("zero-round bad fraction within ±0.03 of 5/9 at every n", flat)
	rec.check("bad fraction strictly decreasing over T", decays)
	rec.check("rounds-to-ε at n=600 and n=4800 differ by at most 1", independent)
	return nil
}

// layers reports the Monte-Carlo path's split. Worker time is the pool
// size times the wall time inside Executor.Mean; idle time is the part
// of it no body span or batch construction covers.
func (w *mcSweep) layers(rec *recorder, passes int, m metrics) {
	agg := w.tr.aggregate()
	per := func(name string) float64 {
		if st := agg[name]; st != nil {
			return st.self / float64(max(passes, 1))
		}
		return 0
	}
	total := func(name string) float64 {
		if st := agg[name]; st != nil {
			return st.total / float64(max(passes, 1))
		}
		return 0
	}
	pool := float64(mcPool())
	worker := pool * total("mc.mean")
	idle := worker - total("mc.body") - total("local.new_batch")
	lang := per("lang.count_bad_balls")
	cons := per("construct.run")
	newBatch := per("local.new_batch")
	pp := float64(max(passes, 1))

	m.set("lang.count_bad_balls_s", lang, "s", passes)
	m.set("lang.balls", float64(w.balls.Load())/pp, "count", passes)
	m.set("lang.share", ratio(lang, worker), "ratio", passes)
	m.set("construct.run_s", cons, "s", passes)
	m.set("construct.lanes", float64(w.lanes.Load())/pp, "count", passes)
	m.set("construct.share", ratio(cons, worker), "ratio", passes)
	m.set("graph.build_s", per("graph.build"), "s", passes)
	m.set("local.plan_s", per("local.plan"), "s", passes)
	m.set("local.new_batch_s", newBatch, "s", passes)
	m.set("mc.mean_s", total("mc.mean"), "s", passes)
	m.set("mc.chunks", float64(w.chunks.Load())/pp, "count", passes)
	m.set("mc.worker_s", worker, "s", passes)
	m.set("mc.idle_s", idle, "s", passes)
	m.set("mc.busy_ratio", ratio(total("mc.body"), worker), "ratio", passes)
	m.set("mc.covered_ratio", ratio(lang+cons+newBatch+idle, worker), "ratio", passes)
	m.set("trace.spans", float64(spanCount(agg))/pp, "count", passes)
	rec.note(fmt.Sprintf("worker time %.3f s per pass = pool %.0f × mc.mean_s %.3f s; shares of it: "+
		"lang %.1f%%, construct+local kernel %.1f%%, local.new_batch %.2f%%, mc idle %.1f%%, uncovered %.2f%%",
		worker, pool, total("mc.mean"), 100*ratio(lang, worker), 100*ratio(cons, worker),
		100*ratio(newBatch, worker), 100*ratio(idle, worker), 100*(1-ratio(lang+cons+newBatch+idle, worker))))
}

// mcPool is the Monte-Carlo pool size: one worker per GOMAXPROCS slot,
// as mc.Executor schedules unsharded trials.
func mcPool() int { return runtime.GOMAXPROCS(0) }

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func spanCount(agg map[string]*layerStats) int {
	n := 0
	for _, st := range agg {
		n += st.count
	}
	return n
}
