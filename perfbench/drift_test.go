package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"slices"
	"testing"

	"rlnc/internal/exp"
	"rlnc/internal/lang"
	"rlnc/internal/report"
)

// The drift guards pin each workload to the experiment it
// reproduces: if the experiment's calls change and the workload's do not,
// these fail.

func TestMCSweepMatchesE2(t *testing.T) {
	if testing.Short() {
		t.Skip("full-size E2 twice takes about 30 s")
	}
	const seed = 3
	w := &mcSweep{seed: seed, tr: newTracer()}
	if err := w.setup(); err != nil {
		t.Fatal(err)
	}
	rec := newRecorder()
	if err := w.pass(rec); err != nil {
		t.Fatal(err)
	}
	if rec.failed != 0 {
		t.Fatalf("workload checks failed: %v", rec.failures)
	}
	res, err := exp.Run("E2", report.Config{Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	for i, got := range w.rows {
		want := res.Tables[i].Rows
		if !slices.EqualFunc(got, want, slices.Equal[[]string]) {
			t.Errorf("%s:\n got %v\nwant %v", res.Tables[i].Title, got, want)
		}
	}
}

func TestExactMatchesE7b(t *testing.T) {
	w := &exactColoring{tr: newTracer()}
	rec := newRecorder()
	if err := w.pass(rec); err != nil {
		t.Fatal(err)
	}
	if rec.failed != 0 {
		t.Fatalf("workload checks failed: %v", rec.failures)
	}
	// Quick E7 runs B(n,1) for n ≤ 6 under the same budget.
	res, err := exp.Run("E7", report.Config{Quick: true, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	rows := res.Tables[1].Rows
	if len(rows) != 3 {
		t.Fatalf("E7b has %d rows, want n = 4…6", len(rows))
	}
	for _, row := range rows {
		var n int
		fmt.Sscan(row[0], &n)
		a := w.answers[n]
		got := []string{row[0], fmt.Sprint(a.vertices), fmt.Sprint(a.edges), fmt.Sprint(a.colorable)}
		if !slices.Equal(got, row) {
			t.Errorf("B(%d,1): got %v, E7b has %v", n, got, row)
		}
	}
}

// TestBenchmarkJSONNamesMetrics keeps BENCHMARK.json and the metrics the
// program prints in step.
func TestBenchmarkJSONNamesMetrics(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	if !slices.Equal(names, workloadNames) {
		t.Errorf("workloads %v, program has %v", names, workloadNames)
	}
	same := func(kind string, listed []struct{ Name, Unit string }, have [][2]string) {
		var got [][2]string
		for _, m := range listed {
			got = append(got, [2]string{m.Name, m.Unit})
		}
		if !slices.Equal(got, have) {
			t.Errorf("%s metrics %v, program prints %v", kind, got, have)
		}
	}
	same("end_to_end", spec.EndToEnd, endToEnd)
	same("per_layer", spec.PerLayer, perLayer)
}

func TestPercentileInterpolates(t *testing.T) {
	xs := []float64{40, 1, 3, 2}
	for _, c := range []struct{ p, want float64 }{{0, 1}, {50, 2.5}, {90, 28.9}, {100, 40}} {
		if got := percentile(xs, c.p); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("p%v = %v, want %v", c.p, got, c.want)
		}
	}
}

func TestCoveredMergesOverlappingChildren(t *testing.T) {
	spans := []span{
		{Start: 0, End: 100, Parent: -1},
		{Start: 10, End: 50, Parent: 0},
		{Start: 30, End: 70, Parent: 0},  // overlaps the first child
		{Start: 90, End: 120, Parent: 0}, // runs past the parent
	}
	if got := covered(spans, []int{1, 2, 3}, 0, 100); got != 70 {
		t.Errorf("covered = %d, want 70", got)
	}
}

func TestTracedCellMatchesUntraced(t *testing.T) {
	w := &mcSweep{seed: 7, tr: newTracer(), l: lang.ProperColoring(3)}
	mean, se, err := w.cell(600, 2, 7)
	if err != nil {
		t.Fatal(err)
	}
	w.tr.on = true
	tmean, tse, err := w.cell(600, 2, 7)
	if err != nil {
		t.Fatal(err)
	}
	if mean != tmean || se != tse {
		t.Errorf("traced cell %v±%v, untraced %v±%v", tmean, tse, mean, se)
	}
	agg := w.tr.aggregate()
	if st := agg["lang.count_bad_balls"]; st == nil || st.count != mcTrials {
		t.Errorf("CountBadBalls spans: %+v, want %d", st, mcTrials)
	}
	if got := w.chunks.Load(); got != 2 {
		t.Errorf("mc.chunks = %d, want 2 (60 trials in vectors of 32)", got)
	}
}

func TestServeMixRound(t *testing.T) {
	w := &serveMix{seed: 2, tr: newTracer(), tmp: t.TempDir()}
	if err := w.setup(); err != nil {
		t.Fatal(err)
	}
	defer w.teardown()
	rec := newRecorder()
	w.tr.on = true
	if err := w.pass(rec); err != nil {
		t.Fatal(err)
	}
	w.tr.on = false
	w.verify(rec)
	if rec.failed != 0 {
		t.Fatalf("%d of %d operations failed: %v", rec.failed, rec.attempted, rec.failures)
	}
	m := metrics{}
	w.layers(rec, 1, m)
	if got := m["serve.executed"].Value; got != float64(len(w.jobs)) {
		t.Errorf("serve.executed = %v, want %d", got, len(w.jobs))
	}
	if got := m["serve.cache_hits"].Value; got != float64(len(w.jobs)) {
		t.Errorf("serve.cache_hits = %v, want %d (one per spec after the restart)", got, len(w.jobs))
	}
	if len(rec.hitMs) != hitsPerJob*len(w.jobs) {
		t.Errorf("%d hits, want %d", len(rec.hitMs), hitsPerJob*len(w.jobs))
	}
}
