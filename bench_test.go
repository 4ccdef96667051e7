package rlnc

import (
	"fmt"
	"testing"

	"rlnc/internal/construct"
	"rlnc/internal/decide"
	"rlnc/internal/exp"
	"rlnc/internal/glue"
	"rlnc/internal/graph"
	"rlnc/internal/ids"
	"rlnc/internal/lang"
	"rlnc/internal/linial"
	"rlnc/internal/local"
	"rlnc/internal/localrand"
	"rlnc/internal/mc"
	"rlnc/internal/report"
)

// One benchmark per experiment: the harness that regenerates every table
// of the suite README.md indexes (quick mode; run `rlnc run all` for the
// full tables).
func benchExperiment(b *testing.B, id string) {
	e, ok := report.ByID(id)
	if !ok {
		b.Fatalf("experiment %s not registered", id)
	}
	for i := 0; i < b.N; i++ {
		res, err := e.Run(report.Config{Quick: true, Seed: uint64(i) + 1})
		if err != nil {
			b.Fatal(err)
		}
		if !res.AllChecksPass() {
			for _, c := range res.Checks {
				if !c.OK {
					b.Fatalf("%s check failed: %s — %s", id, c.Name, c.Detail)
				}
			}
		}
	}
}

func BenchmarkExpE1(b *testing.B)  { benchExperiment(b, "E1") }
func BenchmarkExpE2(b *testing.B)  { benchExperiment(b, "E2") }
func BenchmarkExpE3(b *testing.B)  { benchExperiment(b, "E3") }
func BenchmarkExpE4(b *testing.B)  { benchExperiment(b, "E4") }
func BenchmarkExpE5(b *testing.B)  { benchExperiment(b, "E5") }
func BenchmarkExpE6(b *testing.B)  { benchExperiment(b, "E6") }
func BenchmarkExpE7(b *testing.B)  { benchExperiment(b, "E7") }
func BenchmarkExpE8(b *testing.B)  { benchExperiment(b, "E8") }
func BenchmarkExpE9(b *testing.B)  { benchExperiment(b, "E9") }
func BenchmarkExpE10(b *testing.B) { benchExperiment(b, "E10") }
func BenchmarkExpE11(b *testing.B) { benchExperiment(b, "E11") }
func BenchmarkExpE12(b *testing.B) { benchExperiment(b, "E12") }
func BenchmarkExpE13(b *testing.B) { benchExperiment(b, "E13") }
func BenchmarkExpE14(b *testing.B) { benchExperiment(b, "E14") }
func BenchmarkExpE15(b *testing.B) { benchExperiment(b, "E15") }
func BenchmarkExpE16(b *testing.B) { benchExperiment(b, "E16") }
func BenchmarkExpE17(b *testing.B) { benchExperiment(b, "E17") }

// Substrate micro-benchmarks.

// BenchmarkRoundEngine measures the synchronous round engine: nodes ×
// rounds throughput of Cole–Vishkin's word messages on a ring,
// single-shot.
func BenchmarkRoundEngine(b *testing.B) {
	n := 1024
	in, err := lang.NewInstance(graph.Cycle(n), lang.EmptyInputs(n), ids.Consecutive(n))
	if err != nil {
		b.Fatal(err)
	}
	algo := construct.ColeVishkin{MaxIDBits: 63}
	rounds := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := local.RunMessage(in, algo, nil, local.RunOptions{})
		if err != nil {
			b.Fatal(err)
		}
		rounds = res.Stats.Rounds
	}
	b.ReportMetric(float64(n*rounds), "node-rounds/op")
}

// benchTrialFixture builds the fixed Monte-Carlo trial setup shared by
// the engine-reuse benchmarks: a ring instance, a radius-1 randomized
// coloring in ball-view form, and the canonical LCL decider.
func benchTrialFixture(b *testing.B) (*lang.Instance, local.ViewAlgorithm, *decide.LCLDecider) {
	n := 512
	in, err := lang.NewInstance(graph.Cycle(n), lang.EmptyInputs(n), ids.Consecutive(n))
	if err != nil {
		b.Fatal(err)
	}
	algo := local.ViewFunc{AlgoName: "random-3-color", R: 1, F: func(v *local.View) []byte {
		return lang.EncodeColor(v.Tape().Intn(3))
	}}
	return in, algo, &decide.LCLDecider{L: lang.ProperColoring(3)}
}

// benchTrial runs one construction+decision Monte-Carlo trial, pooled on
// a reusable width-1 batch or single-shot (one == nil).
func benchTrial(in *lang.Instance, algo local.ViewAlgorithm, d *decide.LCLDecider, one *local.Batch, draw localrand.Draw) (lang.Column, bool) {
	var y lang.Column
	if one != nil {
		ys, err := one.RunView(in, algo, []localrand.Draw{draw})
		if err != nil {
			panic(err)
		}
		y = ys[0]
	} else {
		y = local.RunView(in, algo, &draw)
	}
	dis := []*lang.DecisionInstance{{G: in.G, X: in.X, Y: y, ID: in.ID}}
	return y, decide.Exec{}.Accepts(dis, d, nil)[0]
}

// BenchmarkTrialSingleShot measures the per-trial cost of the
// single-shot path: every iteration re-extracts balls and reassembles
// views, as all trial loops did before the Plan/Batch layer.
func BenchmarkTrialSingleShot(b *testing.B) {
	in, algo, d := benchTrialFixture(b)
	space := localrand.NewTapeSpace(17)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchTrial(in, algo, d, nil, space.Draw(uint64(i)))
	}
}

// BenchmarkTrialPooledEngine is the identical trial on one reusable
// width-1 Batch (the shape the retired Engine type had) — the
// acceptance benchmark of the pooled plan layer: repeated
// executions on a fixed graph must show ≥ 40% fewer allocs/op than
// BenchmarkTrialSingleShot, with identical outputs (verified below and
// pinned exhaustively by internal/local/plan_test.go).
func BenchmarkTrialPooledEngine(b *testing.B) {
	in, algo, d := benchTrialFixture(b)
	space := localrand.NewTapeSpace(17)
	plan := local.MustPlan(in.G)
	one := plan.NewBatch(1)
	// Verify pooled and single-shot trials agree before timing.
	yp, ap := benchTrial(in, algo, d, one, space.Draw(0))
	ys, as := benchTrial(in, algo, d, nil, space.Draw(0))
	if ap != as {
		b.Fatal("pooled and single-shot verdicts differ")
	}
	for v := range ys.Len() {
		if string(yp.At(v)) != string(ys.At(v)) {
			b.Fatalf("node %d: pooled output differs from single-shot", v)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchTrial(in, algo, d, one, space.Draw(uint64(i)))
	}
}

// benchTrialBatched is the identical construction+decision trial run in
// vectors of `width` lanes through one Batch — the acceptance benchmark
// of the batched-execution PR: at width ≥ 32 it must show ≥ 2× trials/sec
// over BenchmarkTrialPooledEngine, with outputs byte-identical to the
// pooled width-1 batch at equal seeds (verified below before timing and pinned
// exhaustively by internal/local/batch_test.go). Reported time/op is per
// trial, so the ratio against the pooled benchmark is the throughput gain.
func benchTrialBatched(b *testing.B, width int) {
	in, algo, d := benchTrialFixture(b)
	space := localrand.NewTapeSpace(17)
	plan := local.MustPlan(in.G)
	bt := plan.NewBatch(width)
	one := plan.NewBatch(1)
	dx := decide.Exec{Bt: bt, Mem: &decide.Mem{}}
	draws := make([]localrand.Draw, width)
	// The lane decision instances are reused across passes — only the
	// candidate-output column varies per trial — so the steady-state
	// loop allocates nothing at all.
	dis := make([]*lang.DecisionInstance, width)
	for i := range dis {
		dis[i] = &lang.DecisionInstance{G: in.G, X: in.X, ID: in.ID}
	}

	// Verify batched and pooled trials agree before timing.
	for i := range draws {
		draws[i] = space.Draw(uint64(i))
	}
	ys, err := bt.RunView(in, algo, draws)
	if err != nil {
		b.Fatal(err)
	}
	for i := range draws {
		dis[i].Y = ys[i]
	}
	accs := dx.Accepts(dis, d, nil)
	for i := range draws {
		yp, ap := benchTrial(in, algo, d, one, space.Draw(uint64(i)))
		if ap != accs[i] {
			b.Fatalf("lane %d: batched and pooled verdicts differ", i)
		}
		for v := range yp.Len() {
			if string(yp.At(v)) != string(ys[i].At(v)) {
				b.Fatalf("lane %d node %d: batched output differs from pooled", i, v)
			}
		}
	}

	b.ReportAllocs()
	b.ResetTimer()
	for done := 0; done < b.N; done += width {
		k := width
		if left := b.N - done; left < k {
			k = left
		}
		for j := 0; j < k; j++ {
			draws[j] = space.Draw(uint64(done + j))
		}
		ys, err := bt.RunView(in, algo, draws[:k])
		if err != nil {
			b.Fatal(err)
		}
		for j := 0; j < k; j++ {
			dis[j].Y = ys[j]
		}
		dx.Accepts(dis[:k], d, nil)
	}
}

func BenchmarkTrialBatched8(b *testing.B)   { benchTrialBatched(b, 8) }
func BenchmarkTrialBatched32(b *testing.B)  { benchTrialBatched(b, 32) }
func BenchmarkTrialBatched128(b *testing.B) { benchTrialBatched(b, 128) }

// BenchmarkTrialBatchedMessage runs the message-path trial (retry
// coloring) in vectors of 32, against BenchmarkTrialPooledMessage below —
// the round-loop amortization, separate from the view-path one.
func BenchmarkTrialBatchedMessage(b *testing.B) {
	const width = 32
	in, _, _ := benchTrialFixture(b)
	algo := construct.RetryColoring{Q: 3, T: 2}
	space := localrand.NewTapeSpace(19)
	plan := local.MustPlan(in.G)
	bt := plan.NewBatch(width)
	draws := make([]localrand.Draw, width)
	// One warm-up vector before the timer, so the first iteration's
	// one-time slab and process-table growth does not smear the
	// steady-state profile the benchcmp gate compares.
	for j := 0; j < width; j++ {
		draws[j] = space.Draw(uint64(j))
	}
	if _, err := (construct.Exec{Bt: bt}).Run(algo, in, draws); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for done := 0; done < b.N; done += width {
		k := width
		if left := b.N - done; left < k {
			k = left
		}
		for j := 0; j < k; j++ {
			draws[j] = space.Draw(uint64(done + j))
		}
		if _, err := (construct.Exec{Bt: bt}).Run(algo, in, draws[:k]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTrialColdE2Cell is one cold Monte-Carlo cell of E2c (§1.1,
// rounds-to-ε on C_4800): each iteration builds a fresh plan and a
// width-32 batch, as an E2 worker does per cell, and runs
// RetryColoring{Q: 3, T: 5} once over 32 draws. At n = 4800 the slab
// budget splits the vector into multi-lane blocks, so the time per
// iteration tracks how those blocks are stepped.
func BenchmarkTrialColdE2Cell(b *testing.B) {
	const n, width = 4800, 32
	in := &lang.Instance{G: graph.Cycle(n), X: lang.EmptyInputs(n), ID: ids.ConsecutiveFrom(n, 1)}
	algo := construct.RetryColoring{Q: 3, T: 5}
	space := localrand.NewTapeSpace(0xE2C)
	draws := make([]localrand.Draw, width)
	for j := range draws {
		draws[j] = space.Draw(uint64(j))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		plan, err := local.NewPlan(in.G)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := (construct.Exec{Bt: plan.NewBatch(width)}).Run(algo, in, draws); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLaneStep measures the warm per-(node, lane, round) cost of
// retry coloring's kernel (T = 5) on C_n through a width-k batch,
// reported as ns/lane-step: elapsed time over the lanes' summed
// n × Stats.Rounds. Passes hold at most the slab budget's block of
// lanes, so a cell whose k exceeds the block runs successive blocks.
func BenchmarkLaneStep(b *testing.B) {
	algo := construct.RetryMessage(3, 5)
	for _, n := range []int{600, 4800, 38400} {
		in := &lang.Instance{G: graph.Cycle(n), X: lang.EmptyInputs(n), ID: ids.ConsecutiveFrom(n, 1)}
		plan := local.MustPlan(in.G)
		for _, k := range []int{1, 2, 4, 8, 32} {
			b.Run(fmt.Sprintf("n=%d/k=%d", n, k), func(b *testing.B) {
				bt := plan.NewBatch(k)
				space := localrand.NewTapeSpace(0xE2C)
				draws := make([]localrand.Draw, k)
				steps := 0
				run := func(i int) {
					for j := range draws {
						draws[j] = space.Draw(uint64(i*k + j))
					}
					rs, err := bt.Run(in, algo, draws, local.RunOptions{})
					if err != nil {
						b.Fatal(err)
					}
					for _, r := range rs {
						steps += n * r.Stats.Rounds
					}
				}
				run(0) // size the slabs
				steps = 0
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					run(i + 1)
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(steps), "ns/lane-step")
			})
		}
	}
}

// benchStepPath measures one algorithm's per-trial stepping cost at
// width 32 through its one stepping path: the kernel of retry coloring
// and Cole–Vishkin, the processes of Luby's MIS. Each Benchmark{Step*}
// isolates one algorithm, so a regression in a single kernel shows up in
// its own benchmark instead of being averaged into the trial benchmarks;
// the kernels' byte identity with their scalar oracle is
// internal/shardtest's to pin.
func benchStepPath(b *testing.B, algo local.WireAlgorithm, in *lang.Instance, random bool) {
	const width = 32
	plan := local.MustPlan(in.G)
	bt := plan.NewBatch(width)
	space := localrand.NewTapeSpace(29)
	ins := make([]*lang.Instance, width)
	for i := range ins {
		ins[i] = in
	}
	draws := make([]localrand.Draw, width)
	run := func(k int) {
		var err error
		if random {
			_, err = bt.Run(in, algo, draws[:k], local.RunOptions{})
		} else {
			_, err = bt.RunInstances(ins[:k], algo, nil, local.RunOptions{})
		}
		if err != nil {
			b.Fatal(err)
		}
	}
	for i := range draws {
		draws[i] = space.Draw(uint64(i))
	}
	run(width) // size the slabs and the process table
	b.ReportAllocs()
	b.ResetTimer()
	for done := 0; done < b.N; done += width {
		k := width
		if left := b.N - done; left < k {
			k = left
		}
		for j := 0; j < k; j++ {
			draws[j] = space.Draw(uint64(done + j))
		}
		run(k)
	}
}

// stepLubyIn/stepRetryIn/stepCVIn build the fixed per-algorithm
// stepping fixtures: Luby on the 4-regular workhorse graph, retry
// coloring on the ring, Cole–Vishkin on the oriented ring.
func stepLubyIn(b *testing.B) *lang.Instance {
	in, _, _ := benchMessageFixture(b)
	return in
}

func stepRingIn(b *testing.B) *lang.Instance {
	n := 512
	in, err := lang.NewInstance(graph.Cycle(n), lang.EmptyInputs(n), ids.Consecutive(n))
	if err != nil {
		b.Fatal(err)
	}
	return in
}

// BenchmarkStepLubyScalar keeps its name from when Luby's MIS had a
// kernel twin: it steps Luby's processes.
func BenchmarkStepLubyScalar(b *testing.B) {
	benchStepPath(b, construct.LubyMIS{}, stepLubyIn(b), true)
}
func BenchmarkStepRetryVec(b *testing.B) {
	benchStepPath(b, construct.RetryMessage(3, 2), stepRingIn(b), true)
}
func BenchmarkStepCVVec(b *testing.B) {
	benchStepPath(b, construct.ColeVishkin{MaxIDBits: 63}, stepRingIn(b), false)
}

// benchTrialFaulty is BenchmarkTrialBatchedMessage with a FaultPlan
// armed on the batch: the 0.05-drop plan measures the cost of the fault
// round path (per-slot tape draws plus suppressed deliveries), and the
// zero plan pins the disarm contract — an armed-but-empty plan must
// stay within noise of the fault-free benchmark, because the round loop
// never enters the fault path.
func benchTrialFaulty(b *testing.B, fp *local.FaultPlan) {
	const width = 32
	in, _, _ := benchTrialFixture(b)
	algo := construct.RetryColoring{Q: 3, T: 2}
	space := localrand.NewTapeSpace(19)
	plan := local.MustPlan(in.G)
	bt := plan.NewBatch(width)
	bt.SetFault(fp)
	draws := make([]localrand.Draw, width)
	b.ReportAllocs()
	b.ResetTimer()
	for done := 0; done < b.N; done += width {
		k := width
		if left := b.N - done; left < k {
			k = left
		}
		for j := 0; j < k; j++ {
			draws[j] = space.Draw(uint64(done + j))
		}
		if _, err := (construct.Exec{Bt: bt}).Run(algo, in, draws[:k]); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTrialFaulty32(b *testing.B) {
	benchTrialFaulty(b, &local.FaultPlan{Seed: 23, Drop: 0.05})
}

func BenchmarkTrialFaultyZeroPlan32(b *testing.B) {
	benchTrialFaulty(b, &local.FaultPlan{Seed: 23})
}

// benchTrialSharded runs the message-path trial of
// BenchmarkTrialBatchedMessage through a sharded executor: the same
// retry-coloring vectors, cut into `shards` node ranges with per-round
// cut exchange over in-process links. Outputs are byte-identical to the
// batched run (asserted before timing; pinned exhaustively by
// internal/shardtest), so the sharded/batched time ratio is the
// orchestration + exchange overhead a single machine pays to exercise
// the multi-machine execution path.
func benchTrialSharded(b *testing.B, shards int) {
	const width = 32
	in, _, _ := benchTrialFixture(b)
	algo := construct.RetryColoring{Q: 3, T: 2}
	space := localrand.NewTapeSpace(19)
	plan := local.MustPlan(in.G)
	sh := plan.NewShardedBatch(width, shards, nil)
	bt := plan.NewBatch(width)
	draws := make([]localrand.Draw, width)
	for i := range draws {
		draws[i] = space.Draw(uint64(i))
	}
	want, err := construct.Exec{Bt: bt}.Run(algo, in, draws)
	if err != nil {
		b.Fatal(err)
	}
	got, err := construct.Exec{Bt: sh}.Run(algo, in, draws)
	if err != nil {
		b.Fatal(err)
	}
	for i := range draws {
		for v := range want[i].Len() {
			if string(want[i].At(v)) != string(got[i].At(v)) {
				b.Fatalf("lane %d node %d: sharded output differs from batched", i, v)
			}
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for done := 0; done < b.N; done += width {
		k := width
		if left := b.N - done; left < k {
			k = left
		}
		for j := 0; j < k; j++ {
			draws[j] = space.Draw(uint64(done + j))
		}
		if _, err := (construct.Exec{Bt: sh}).Run(algo, in, draws[:k]); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTrialSharded2(b *testing.B) { benchTrialSharded(b, 2) }
func BenchmarkTrialSharded4(b *testing.B) { benchTrialSharded(b, 4) }

// BenchmarkTrialPooledMessage is the pooled-engine baseline of
// BenchmarkTrialBatchedMessage.
func BenchmarkTrialPooledMessage(b *testing.B) {
	in, _, _ := benchTrialFixture(b)
	algo := construct.RetryMessage(3, 2)
	space := localrand.NewTapeSpace(19)
	plan := local.MustPlan(in.G)
	one := plan.NewBatch(1)
	lane := make([]localrand.Draw, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lane[0] = space.Draw(uint64(i))
		if _, err := one.Run(in, algo, lane, local.RunOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

// benchMessageFixture builds the message-path fixture of the wire-format
// benchmarks: Luby's MIS (two-word value messages, zero-word join
// signals) on a 4-regular graph — the §4 construction workhorse shape.
func benchMessageFixture(b *testing.B) (*lang.Instance, construct.LubyMIS, *localrand.TapeSpace) {
	g, err := graph.RandomRegular(512, 4, 7)
	if err != nil {
		b.Fatal(err)
	}
	in, err := lang.NewInstance(g, lang.EmptyInputs(g.N()), ids.Consecutive(g.N()))
	if err != nil {
		b.Fatal(err)
	}
	return in, construct.LubyMIS{}, localrand.NewTapeSpace(23)
}

// benchMessagePath measures one trial of a message algorithm per draw,
// run `width` lanes at a time through a Batch (width 1 = the pooled
// single-trial shape). Reported time/op is per trial.
func benchMessagePath(b *testing.B, width int) {
	in, algo, space := benchMessageFixture(b)
	bt := local.MustPlan(in.G).NewBatch(width)
	draws := make([]localrand.Draw, width)
	b.ReportAllocs()
	b.ResetTimer()
	for done := 0; done < b.N; done += width {
		k := width
		if left := b.N - done; left < k {
			k = left
		}
		for j := 0; j < k; j++ {
			draws[j] = space.Draw(uint64(done + j))
		}
		if _, err := bt.Run(in, algo, draws[:k], local.RunOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMessageWire{1,32}: Luby's MIS trials through the wire message
// core at the single-trial shape (width 1) and a full lane vector (width
// 32).
func BenchmarkMessageWire1(b *testing.B)  { benchMessagePath(b, 1) }
func BenchmarkMessageWire32(b *testing.B) { benchMessagePath(b, 32) }

// BenchmarkMessageEngineReuse measures the message-passing engine with
// slab reuse (compare BenchmarkRoundEngine, which is single-shot).
func BenchmarkMessageEngineReuse(b *testing.B) {
	n := 1024
	in, err := lang.NewInstance(graph.Cycle(n), lang.EmptyInputs(n), ids.Consecutive(n))
	if err != nil {
		b.Fatal(err)
	}
	algo := construct.ColeVishkin{MaxIDBits: 63}
	plan := local.MustPlan(in.G)
	one := plan.NewBatch(1)
	lane := []*lang.Instance{in}
	rounds := 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rs, err := one.RunInstances(lane, algo, nil, local.RunOptions{})
		if err != nil {
			b.Fatal(err)
		}
		rounds = rs[0].Stats.Rounds
	}
	b.ReportMetric(float64(n*rounds), "node-rounds/op")
}

// BenchmarkBallExtraction measures B_G(v,t) extraction on a torus.
func BenchmarkBallExtraction(b *testing.B) {
	g := graph.Torus(32, 32)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = g.BallAround(i%g.N(), 3)
	}
}

// BenchmarkColeVishkin measures the full log*-round 3-coloring.
func BenchmarkColeVishkin(b *testing.B) {
	n := 4096
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

// BenchmarkLubyMIS measures randomized MIS on a 4-regular graph.
func BenchmarkLubyMIS(b *testing.B) {
	g, err := graph.RandomRegular(512, 4, 7)
	if err != nil {
		b.Fatal(err)
	}
	in, err := lang.NewInstance(g, lang.EmptyInputs(g.N()), ids.Consecutive(g.N()))
	if err != nil {
		b.Fatal(err)
	}
	space := localrand.NewTapeSpace(9)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		draw := space.Draw(uint64(i))
		if _, err := construct.LubyMISAlgorithm().Run(in, &draw); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLCLDecide measures the canonical decider on a planted ring.
func BenchmarkLCLDecide(b *testing.B) {
	n := 4096 // even: the alternating 2-coloring is proper around the wrap
	l := lang.ProperColoring(3)
	y := make([][]byte, n)
	for v := 0; v < n; v++ {
		y[v] = lang.EncodeColor(v % 2)
	}
	dis := []*lang.DecisionInstance{{G: graph.Cycle(n), X: lang.EmptyInputs(n), Y: lang.ColumnOf(y), ID: ids.Consecutive(n)}}
	d := &decide.LCLDecider{L: l}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !(decide.Exec{}).Accepts(dis, d, nil)[0] {
			b.Fatal("proper coloring rejected")
		}
	}
}

// BenchmarkGluing measures the Theorem 1 surgery on 8 blocks.
func BenchmarkGluing(b *testing.B) {
	parts := make([]*lang.Instance, 8)
	start := int64(1)
	for i := range parts {
		in, err := lang.NewInstance(graph.Cycle(64), lang.EmptyInputs(64), ids.ConsecutiveFrom(64, start))
		if err != nil {
			b.Fatal(err)
		}
		parts[i] = in
		start += 64
	}
	anchors := make([]glue.Anchor, len(parts))
	for i := range anchors {
		anchors[i] = glue.Anchor{Node: i * 7, Port: 0}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := glue.BuildGlued(parts, anchors); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMonteCarlo measures the trial harness itself.
func BenchmarkMonteCarlo(b *testing.B) {
	for i := 0; i < b.N; i++ {
		est := mc.Executor[struct{}]{Trials: 10000}.Run(mc.Scalar(func(_ struct{}, trial int) bool {
			return localrand.NewSource(uint64(trial)).Float64() < 0.618
		}))
		if est.Trials != 10000 {
			b.Fatal("trial miscount")
		}
	}
}

// BenchmarkPatternGraph measures the order-pattern graph construction
// (radius 2: 120 patterns).
func BenchmarkPatternGraph(b *testing.B) {
	for i := 0; i < b.N; i++ {
		pg := linial.BuildPatternGraph(2)
		if !pg.HasSelfLoopAtMonotone() {
			b.Fatal("self-loop missing")
		}
	}
}

// BenchmarkColorability measures the exact solver on the Petersen graph.
func BenchmarkColorability(b *testing.B) {
	g := graph.Petersen()
	for i := 0; i < b.N; i++ {
		ok, _, err := linial.Colorable(g, 3, 0)
		if err != nil || !ok {
			b.Fatal("Petersen should be 3-colorable")
		}
	}
}

// BenchmarkColorableB8 measures E7b's longest solve: refuting
// 3-colorability of Linial's neighborhood graph B(8,1) under the quick
// budget.
func BenchmarkColorableB8(b *testing.B) {
	g, err := linial.NeighborhoodGraph(8, 1)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ok, _, err := linial.Colorable(g, 3, 5_000_000)
		if err != nil || ok {
			b.Fatalf("B(8,1) should be refuted, got %v, %v", ok, err)
		}
	}
}

// BenchmarkCanonicalKey measures exact ball canonicalization.
func BenchmarkCanonicalKey(b *testing.B) {
	ball := graph.Cycle(16).BallAround(0, 3)
	for i := 0; i < b.N; i++ {
		if _, err := ball.CanonicalKey(nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFullInfoAdapter measures the §2.1.1 gossip simulation.
func BenchmarkFullInfoAdapter(b *testing.B) {
	n := 256
	in, err := lang.NewInstance(graph.Cycle(n), lang.EmptyInputs(n), ids.Consecutive(n))
	if err != nil {
		b.Fatal(err)
	}
	view := local.ViewFunc{AlgoName: "size", R: 3, F: func(v *local.View) []byte { return []byte{byte(v.Ball.Size())} }}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		local.RunFullInfo(in, view, nil)
	}
}

// TestFacadeSmoke exercises the re-exported API end to end.
func TestFacadeSmoke(t *testing.T) {
	g := Cycle(12)
	in, err := NewInstance(g, make([][]byte, 12), ConsecutiveIDs(12))
	if err != nil {
		t.Fatal(err)
	}
	y := RunView(in, local.ViewFunc{AlgoName: "zero", R: 0, F: func(v *View) []byte {
		return lang.EncodeColor(0)
	}}, nil)
	if y.Len() != 12 {
		t.Fatal("facade RunView broken")
	}
	var plan *Plan = MustPlan(g)
	var bt *Batch = plan.NewShardedBatch(2, 3, nil)
	if rs, err := bt.RunInstances([]*Instance{in, in}, construct.ColeVishkin{MaxIDBits: 8}, nil, RunOptions{}); err != nil || len(rs) != 2 || rs[1].Y.Len() != 12 {
		t.Fatalf("facade Plan/Batch broken: %v", err)
	}
	if err := bt.Close(); err != nil {
		t.Fatal(err)
	}
	if res := RunFullInfo(in, local.ViewFunc{AlgoName: "zero", R: 1, F: func(v *View) []byte {
		return lang.EncodeColor(0)
	}}, nil); res.Y.Len() != 12 || res.Stats.Rounds != 1 {
		t.Fatalf("facade RunFullInfo broken: %+v", res.Stats)
	}
	if len(Experiments()) != 17 {
		t.Fatalf("facade lists %d experiments", len(Experiments()))
	}
	if _, ok := ExperimentByID("E7"); !ok {
		t.Fatal("facade lookup broken")
	}
	if p := GoldenP; p < 0.61 || p > 0.62 {
		t.Fatalf("GoldenP = %v", p)
	}
	_ = fmt.Sprintf("%v", exp.All())
}
