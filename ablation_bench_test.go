package rlnc

import (
	"runtime"
	"testing"

	"rlnc/internal/construct"
	"rlnc/internal/graph"
	"rlnc/internal/ids"
	"rlnc/internal/lang"
	"rlnc/internal/local"
	"rlnc/internal/localrand"
	"rlnc/internal/mc"
)

// Ablation benchmarks: quantify the design choices docs/ARCHITECTURE.md
// describes.

// --- Engine parallelism ----------------------------------------------------
// The round engine runs nodes on a GOMAXPROCS worker pool; the ablation
// pins the pool to one worker to measure the speedup the pool buys.

func benchEngineWithProcs(b *testing.B, procs int) {
	prev := runtime.GOMAXPROCS(procs)
	defer runtime.GOMAXPROCS(prev)
	n := 2048
	in, err := lang.NewInstance(graph.Cycle(n), lang.EmptyInputs(n), ids.RandomPerm(n, 3))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := local.RunMessage(in, construct.ColeVishkin{MaxIDBits: 63}, nil, local.RunOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationEngineSerial(b *testing.B)   { benchEngineWithProcs(b, 1) }
func BenchmarkAblationEngineParallel(b *testing.B) { benchEngineWithProcs(b, runtime.NumCPU()) }

// --- Monte-Carlo pool -------------------------------------------------------

func benchMCWithProcs(b *testing.B, procs int) {
	prev := runtime.GOMAXPROCS(procs)
	defer runtime.GOMAXPROCS(prev)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mc.Run(20000, func(trial int) bool {
			return localrand.NewSource(uint64(trial)).Float64() < 0.5
		})
	}
}

func BenchmarkAblationMCSerial(b *testing.B)   { benchMCWithProcs(b, 1) }
func BenchmarkAblationMCParallel(b *testing.B) { benchMCWithProcs(b, runtime.NumCPU()) }

// --- Per-worker engines in the Monte-Carlo harness ---------------------------
// The Plan/Engine design choice: each trial-pool worker holds one
// reusable engine (mc.RunWith) vs rebuilding execution state every trial
// (mc.Run), on the kind of construction trial every experiment runs.

func benchMCTrialLoop(b *testing.B, pooled bool) {
	n := 256
	in, err := lang.NewInstance(graph.Cycle(n), lang.EmptyInputs(n), ids.Consecutive(n))
	if err != nil {
		b.Fatal(err)
	}
	algo := local.ViewFunc{AlgoName: "random-3-color", R: 1, F: func(v *local.View) []byte {
		return lang.EncodeColor(v.Tape().Intn(3))
	}}
	space := localrand.NewTapeSpace(23)
	plan := local.MustPlan(in.G)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if pooled {
			mc.RunWith(500, plan.NewEngine, func(eng *local.Engine, trial int) bool {
				draw := space.Draw(uint64(trial))
				return eng.RunView(in, algo, &draw)[0][0] == 0
			})
		} else {
			mc.Run(500, func(trial int) bool {
				draw := space.Draw(uint64(trial))
				return local.RunView(in, algo, &draw)[0][0] == 0
			})
		}
	}
}

func BenchmarkAblationMCPerTrialState(b *testing.B)   { benchMCTrialLoop(b, false) }
func BenchmarkAblationMCPerWorkerEngine(b *testing.B) { benchMCTrialLoop(b, true) }

// --- View vs message interface ----------------------------------------------
// The same radius-2 computation through the direct ball-view runner vs
// the full-information gossip adapter: the cost of faithful message
// simulation over omniscient extraction.

var summaryView = local.ViewFunc{
	AlgoName: "sum",
	R:        2,
	F: func(v *local.View) []byte {
		var s int64
		for _, id := range v.IDs {
			s += id
		}
		return []byte{byte(s)}
	},
}

func BenchmarkAblationViewDirect(b *testing.B) {
	n := 512
	in, err := lang.NewInstance(graph.Cycle(n), lang.EmptyInputs(n), ids.Consecutive(n))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		local.RunView(in, summaryView, nil)
	}
}

func BenchmarkAblationViewViaGossip(b *testing.B) {
	n := 512
	in, err := lang.NewInstance(graph.Cycle(n), lang.EmptyInputs(n), ids.Consecutive(n))
	if err != nil {
		b.Fatal(err)
	}
	algo := local.FullInfo(summaryView)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := local.RunMessage(in, algo, nil, local.RunOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Retry rounds vs violations ---------------------------------------------
// The ε-slack design knob: each extra retry round buys a constant-factor
// violation reduction (E2b); the bench reports violations/op as a metric.

func benchRetry(b *testing.B, retries int) {
	n := 1200
	l := lang.ProperColoring(3)
	in, err := lang.NewInstance(graph.Cycle(n), lang.EmptyInputs(n), ids.Consecutive(n))
	if err != nil {
		b.Fatal(err)
	}
	space := localrand.NewTapeSpace(11)
	total := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		draw := space.Draw(uint64(i))
		y, err := (construct.RetryColoring{Q: 3, T: retries}).Run(in, &draw)
		if err != nil {
			b.Fatal(err)
		}
		total += l.CountBadBalls(&lang.Config{G: in.G, X: in.X, Y: y})
	}
	b.ReportMetric(float64(total)/float64(b.N), "violations/op")
}

func BenchmarkAblationRetry0(b *testing.B) { benchRetry(b, 0) }
func BenchmarkAblationRetry2(b *testing.B) { benchRetry(b, 2) }
func BenchmarkAblationRetry6(b *testing.B) { benchRetry(b, 6) }

// --- Scattered-set selection --------------------------------------------------
// Greedy BFS-order selection vs the naive quadratic rejection sampler.

func naiveScattered(g *graph.Graph, sep, want int) []int {
	var chosen []int
	for v := 0; v < g.N(); v++ {
		ok := true
		for _, u := range chosen {
			if d := g.Dist(u, v); d != -1 && d < sep {
				ok = false
				break
			}
		}
		if ok {
			chosen = append(chosen, v)
			if want > 0 && len(chosen) >= want {
				break
			}
		}
	}
	return chosen
}

func BenchmarkAblationScatteredGreedy(b *testing.B) {
	g := graph.Cycle(2048)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if s := g.ScatteredSet(16, 8); len(s) < 8 {
			b.Fatal("too few scattered nodes")
		}
	}
}

func BenchmarkAblationScatteredNaive(b *testing.B) {
	g := graph.Cycle(2048)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if s := naiveScattered(g, 16, 8); len(s) < 8 {
			b.Fatal("too few scattered nodes")
		}
	}
}

// --- Linial reduction targets -------------------------------------------------
// Stopping the palette walk early (reduction only) vs walking greedily
// all the way to Δ+1: the greedy tail dominates the round count but not
// the wall-clock on bounded-degree graphs.

func benchLinial(b *testing.B, target int) {
	g := graph.Torus(8, 8)
	id := ids.RandomPerm(g.N(), 5)
	in, err := lang.NewInstance(g, lang.EmptyInputs(g.N()), id)
	if err != nil {
		b.Fatal(err)
	}
	algo := construct.LinialReduction{MaxDegree: 4, MaxIDBits: 32, TargetColors: target}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := local.RunMessage(in, algo, nil, local.RunOptions{MaxRounds: 4 * algo.Rounds()}); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(algo.Rounds()), "rounds")
}

func BenchmarkAblationLinialToDelta1(b *testing.B) { benchLinial(b, 5) }
func BenchmarkAblationLinialFixedPointOnly(b *testing.B) {
	algo := construct.LinialReduction{MaxDegree: 4, MaxIDBits: 32}
	benchLinial(b, algo.FixedPointPalette())
}
