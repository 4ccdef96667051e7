package main

import (
	"errors"
	"fmt"
	"time"

	"rlnc/internal/graph"
	"rlnc/internal/linial"
)

// exact-coloring replays E7b's solver loop (§1.3, Linial's bound): for
// n = 4…8, build the identity neighborhood graph B(n,1) and decide its
// 3-colorability exactly with linial.Colorable under E7's quick budget.
// The input has no randomness. It loads only the linial package.

const (
	exactBudget = 5_000_000
	exactMinN   = 4
	exactMaxN   = 8
)

type exactColoring struct {
	tr *tracer
	// probe tracks the host's speed for single-threaded search; nil
	// leaves the times as measured.
	probe *probe
	// answers holds the last pass's result per n, for the drift test.
	answers map[int]exactAnswer

	exhausted int
}

type exactAnswer struct {
	vertices, edges int
	colorable       bool
	budget          bool // the search budget ran out
}

// setup builds every B(n,1) once, the graph construction E7b starts from.
func (w *exactColoring) setup() error {
	for n := exactMinN; n <= exactMaxN; n++ {
		if _, err := linial.NeighborhoodGraph(n, 1); err != nil {
			return err
		}
	}
	return nil
}

func (w *exactColoring) hostProbe() *probe { return w.probe }

func (w *exactColoring) teardown() {}

func (w *exactColoring) verify(*recorder) {}

// pass runs the loop once. The whole loop is one job, as `rlnc run E7`
// asks for the whole table; its per-n split is in the per-layer metrics.
func (w *exactColoring) pass(rec *recorder) error {
	tr := w.tr
	w.answers = map[int]exactAnswer{}
	var loop time.Duration
	var failed error
	for n := exactMinN; n <= exactMaxN; n++ {
		if n == exactMaxN && w.probe != nil {
			// Between the n=7 refutation and the n=8 search, the two
			// solves that take time.
			w.probe.measure()
		}
		t0 := time.Now()
		root := tr.begin(fmt.Sprintf("solve.n%d", n), -1)
		sp := tr.begin("linial.neighborhood", root)
		g, err := linial.NeighborhoodGraph(n, 1)
		tr.end(sp)
		var ok bool
		var colors []int
		if err == nil {
			sp = tr.begin(fmt.Sprintf("linial.colorable.n%d", n), root)
			ok, colors, err = linial.Colorable(g, 3, exactBudget)
			tr.end(sp)
		}
		tr.end(root)
		loop += time.Since(t0)
		outOfBudget := errors.Is(err, linial.ErrBudget)
		if outOfBudget {
			err = nil
			if tr.on {
				w.exhausted++
			}
		}
		if err != nil {
			failed = fmt.Errorf("B(%d,1): %w", n, err)
			continue
		}
		w.answers[n] = exactAnswer{g.N(), g.M(), ok, outOfBudget}
		rec.sum(n, g.N(), g.M(), ok, outOfBudget, fmt.Sprint(colors))
		switch {
		case n <= 6:
			rec.check(fmt.Sprintf("B(%d,1) is 3-colorable with a proper coloring", n), ok && proper(g, colors, 3))
		case n == 7:
			rec.check("B(7,1) is refuted within the budget", !ok && !outOfBudget)
		default:
			rec.check(fmt.Sprintf("B(%d,1) is never reported 3-colorable", n), !ok)
		}
	}
	rec.repeat("E7b loop", loop, failed)
	return nil
}

// proper reports whether colors is a proper k-coloring of g.
func proper(g *graph.Graph, colors []int, k int) bool {
	if len(colors) != g.N() {
		return false
	}
	for v, c := range colors {
		if c < 0 || c >= k {
			return false
		}
		for _, u := range g.Neighbors(v) {
			if colors[u] == c {
				return false
			}
		}
	}
	return true
}

// layers reports the solver's split, per traced pass.
func (w *exactColoring) layers(rec *recorder, passes int, m metrics) {
	agg := w.tr.aggregate()
	pp := float64(max(passes, 1))
	per := func(name string) float64 {
		if st := agg[name]; st != nil {
			return st.total / pp
		}
		return 0
	}
	m.set("linial.neighborhood_s", per("linial.neighborhood"), "s", passes)
	m.set("linial.colorable_s.n7", per("linial.colorable.n7"), "s", passes)
	n8 := per("linial.colorable.n8")
	m.set("linial.colorable_s.n8", n8, "s", passes)
	m.set("linial.budget_exhausted", float64(w.exhausted)/pp, "count", passes)
	if a, ok := w.answers[8]; ok && a.budget && n8 > 0 {
		m.set("linial.nodes_per_s", (exactBudget+1)/n8, "1/s", passes)
	}
	m.set("trace.spans", float64(spanCount(agg))/pp, "count", passes)
	var loop float64
	for n := exactMinN; n <= exactMaxN; n++ {
		loop += per(fmt.Sprintf("solve.n%d", n))
	}
	rec.note(fmt.Sprintf("solver loop %.3f s per pass on one core; shares of it: colorable n=7 %.1f%%, n=8 %.1f%%, n≤6 %.2f%%, neighborhood %.2f%%",
		loop, 100*ratio(per("linial.colorable.n7"), loop), 100*ratio(n8, loop),
		100*ratio(per("linial.colorable.n4")+per("linial.colorable.n5")+per("linial.colorable.n6"), loop),
		100*ratio(per("linial.neighborhood"), loop)))
}
