//go:build !race

package local

import (
	"fmt"
	"testing"

	"rlnc/internal/graph"
	"rlnc/internal/localrand"
)

// TestEngineReuseCutsAllocs enforces the PR's performance contract in
// CI. testing.AllocsPerRun pins GOMAXPROCS to 1, so both paths take the
// deterministic serial branch of parallelFor and the comparison is
// exact. Skipped under -race, whose instrumentation changes allocation
// counts.
//
// The contract is path-specific. The ball-view path — the Monte-Carlo
// trial hot path — must show ≥ 40% fewer allocs/op on a pooled width-1
// batch,
// because ball extraction and view assembly amortize away. The
// message path's single-shot form is already slab-based after this
// refactor (no per-round receive allocation), so reuse only trims the
// per-run slab setup; there the pooled path must simply never allocate
// more than single-shot.
func TestEngineReuseCutsAllocs(t *testing.T) {
	in := mustInstance(t, graph.Cycle(256))
	plan, err := NewPlan(in.G)
	if err != nil {
		t.Fatal(err)
	}
	space := localrand.NewTapeSpace(3)

	// Ball-view path: ≥ 40% fewer allocs/op.
	trial := 0
	singleV := testing.AllocsPerRun(50, func() {
		draw := space.Draw(uint64(trial))
		RunView(in, tapeSumView{t: 2}, &draw)
		trial++
	})
	vone := plan.NewBatch(1)
	vd := []localrand.Draw{space.Draw(0)}
	if _, err := vone.RunView(in, tapeSumView{t: 2}, vd); err != nil {
		t.Fatal(err) // warm the view cache
	}
	reuseV := testing.AllocsPerRun(50, func() {
		vd[0] = space.Draw(uint64(trial))
		if _, err := vone.RunView(in, tapeSumView{t: 2}, vd); err != nil {
			t.Fatal(err)
		}
		trial++
	})
	t.Logf("view allocs/op: single-shot %.1f, pooled %.1f", singleV, reuseV)
	if reuseV > 0.6*singleV {
		t.Errorf("pooled view path allocates %.1f/op vs %.1f/op single-shot; want ≥ 40%% fewer", reuseV, singleV)
	}

	// Message path: pooled must not allocate more than single-shot.
	md := make([]localrand.Draw, 1)
	run := func(one *Batch, trial int) {
		md[0] = space.Draw(uint64(trial))
		if _, err := one.Run(in, tapeXOR{rounds: 4}, md, RunOptions{}); err != nil {
			t.Fatal(err)
		}
	}
	single := testing.AllocsPerRun(50, func() {
		run(plan.NewBatch(1), trial)
		trial++
	})
	one := plan.NewBatch(1)
	run(one, 0) // warm the slabs before measuring the steady state
	reuse := testing.AllocsPerRun(50, func() {
		run(one, trial)
		trial++
	})
	t.Logf("message allocs/op: single-shot %.1f, pooled %.1f", single, reuse)
	if reuse > single {
		t.Errorf("pooled message path allocates %.1f/op vs %.1f/op single-shot", reuse, single)
	}

	// Batched paths: a lane must never allocate more than a pooled trial.
	// The batched view path shares one output slab per pass, so its
	// per-trial allocations sit strictly below the pooled path's; the
	// batched message path matches the pooled path lane for lane (one
	// Result and output column per lane) plus the vector bookkeeping,
	// amortized below one pooled trial across the width.
	const width = 8
	bt := plan.NewBatch(width)
	draws := make([]localrand.Draw, width)
	fill := func() {
		for i := range draws {
			draws[i] = space.Draw(uint64(trial))
			trial++
		}
	}
	fill()
	if _, err := bt.RunView(in, tapeSumView{t: 2}, draws); err != nil {
		t.Fatal(err) // warm the view cache
	}
	batchedV := testing.AllocsPerRun(20, func() {
		fill()
		if _, err := bt.RunView(in, tapeSumView{t: 2}, draws); err != nil {
			t.Fatal(err)
		}
	}) / width
	t.Logf("batched view allocs per trial: %.2f (pooled %.1f)", batchedV, reuseV)
	if batchedV > reuseV {
		t.Errorf("batched view path allocates %.2f per trial vs %.1f pooled", batchedV, reuseV)
	}

	runBatch := func() {
		fill()
		if _, err := bt.Run(in, tapeXOR{rounds: 4}, draws, RunOptions{}); err != nil {
			t.Fatal(err)
		}
	}
	runBatch() // warm the slabs
	batchedM := testing.AllocsPerRun(20, runBatch) / width
	t.Logf("batched message allocs per trial: %.2f (pooled %.1f)", batchedM, reuse)
	if batchedM > reuse {
		t.Errorf("batched message path allocates %.2f per trial vs %.1f pooled", batchedM, reuse)
	}
}

// staticOutMix is wireMix with an allocation-free Output: verdata comes
// from a fixed table of immutable rows instead of a fresh encoding per
// call. This mirrors how the real algorithms hit the zero-alloc floor —
// construct's processes return lang.Encode* table entries — so the
// floors below measure the round kernel, not the fixture's encoder.
type staticOutMix struct{ rounds int }

func (a staticOutMix) Name() string       { return fmt.Sprintf("static-out-mix(%d)", a.rounds) }
func (a staticOutMix) MsgWords(d int) int { return wireMix{}.MsgWords(d) }
func (a staticOutMix) NewWireProcess() WireProcess {
	return &staticOutProc{wireMixProc{rounds: a.rounds}}
}

type staticOutProc struct{ wireMixProc }

var staticOutTable = func() [][]byte {
	t := make([][]byte, 16)
	for i := range t {
		t[i] = []byte{byte(i)}
	}
	return t
}()

func (p *staticOutProc) Output() []byte { return staticOutTable[p.state&15] }

// TestSteadyStateAllocFloors pins the absolute allocation contract of
// the round kernel, not just the relative gates above. A warm batch
// running one ResetProcess wire algorithm back to back allocates
// NOTHING per run: outputs land in the double-buffered arena, processes
// reset in place, tapes reseed in place, and the round loop itself has
// been allocation-free since the wire core landed, at width 1 as at any
// other. The fixture's Output must itself be allocation-free
// (immutable table rows, like construct's lang.Encode* outputs), hence
// staticOutMix rather than wireMix. Skipped under -race, whose
// instrumentation changes allocation counts.
func TestSteadyStateAllocFloors(t *testing.T) {
	in := mustInstance(t, graph.Cycle(256))
	plan, err := NewPlan(in.G)
	if err != nil {
		t.Fatal(err)
	}
	space := localrand.NewTapeSpace(13)
	trial := 0

	const width = 8
	bt := plan.NewBatch(width)
	draws := make([]localrand.Draw, width)
	runBatch := func() {
		for i := range draws {
			draws[i] = space.Draw(uint64(trial))
			trial++
		}
		if _, err := bt.Run(in, staticOutMix{rounds: 6}, draws, RunOptions{}); err != nil {
			t.Fatal(err)
		}
	}
	runBatch()
	runBatch() // warm both arena buffers and the pooled process table
	if got := testing.AllocsPerRun(50, runBatch); got != 0 {
		t.Errorf("warm batched message run allocates %.1f/op; want exactly 0", got)
	}

	one := plan.NewBatch(1)
	d := make([]localrand.Draw, 1)
	runOne := func() {
		d[0] = space.Draw(uint64(trial))
		trial++
		if _, err := one.Run(in, staticOutMix{rounds: 6}, d, RunOptions{}); err != nil {
			t.Fatal(err)
		}
	}
	runOne()
	runOne()
	if got := testing.AllocsPerRun(50, runOne); got != 0 {
		t.Errorf("warm width-1 batch run allocates %.1f/op; want exactly 0", got)
	}
}

// staticVecMix is vecMix with allocation-free outputs — the kernel
// analogue of staticOutMix, so the floor below measures the kernel
// round loop rather than the fixture's encoder.
type staticVecMix struct{ vecMix }

func (a staticVecMix) Name() string { return fmt.Sprintf("static-vec-mix(%d)", a.rounds) }
func (a staticVecMix) OutputVec(r *VecRange, v, b int) []byte {
	return staticOutTable[r.State(v, 0)[b]&15]
}

// TestVecAllocFloors pins the absolute allocation contract of the
// lane-vectorized round kernel, exactly as TestSteadyStateAllocFloors
// does for the scalar one: a warm batch stepping a VecAlgorithm back to
// back allocates NOTHING per run — the kernel's state is the batch's
// reused word slab, the row staging writes straight into the reused
// slabs, and outputs land in the double-buffered arena. The fault-armed
// shape must hold the same floor: the crash masks are a batch-owned
// per-node row, not per-run allocations. Width 1 holds it too: a
// one-lane pass steps the same kernel. Skipped under -race, whose
// instrumentation changes allocation counts.
func TestVecAllocFloors(t *testing.T) {
	in := mustInstance(t, graph.Cycle(256))
	plan, err := NewPlan(in.G)
	if err != nil {
		t.Fatal(err)
	}
	space := localrand.NewTapeSpace(29)
	trial := 0

	shapes := []struct {
		name  string
		width int
		fp    *FaultPlan
	}{
		{"fault-free", 8, nil},
		{"faulty", 8, &FaultPlan{Seed: 31, Drop: 0.1, CrashP: 0.05, CrashFrom: 2}},
		{"width-1", 1, nil},
		{"width-1 faulty", 1, &FaultPlan{Seed: 31, Drop: 0.1, CrashP: 0.05, CrashFrom: 2}},
	}
	for _, shape := range shapes {
		width := shape.width
		bt := plan.NewBatch(width)
		draws := make([]localrand.Draw, width)
		runBatch := func() {
			for i := range draws {
				draws[i] = space.Draw(uint64(trial))
				trial++
			}
			if _, err := bt.Run(in, staticVecMix{vecMix{rounds: 6}}, draws, RunOptions{Fault: shape.fp}); err != nil {
				t.Fatal(err)
			}
		}
		runBatch()
		runBatch() // warm both arena buffers and the state slab
		if got := testing.AllocsPerRun(50, runBatch); got != 0 {
			t.Errorf("%s: warm vectorized batched run allocates %.1f/op; want exactly 0", shape.name, got)
		}
	}
}

// stripReset wraps a process algorithm so its processes lose the
// ResetProcess extension: the pooling gate's control group.
type stripReset struct{ inner ProcessAlgorithm }

func (a stripReset) Name() string       { return a.inner.Name() }
func (a stripReset) MsgWords(d int) int { return a.inner.MsgWords(d) }
func (a stripReset) NewWireProcess() WireProcess {
	return plainProc{a.inner.NewWireProcess()}
}

// plainProc hides the concrete process behind the bare WireProcess
// method set, so the ResetProcess type assertion fails.
type plainProc struct{ WireProcess }

// TestProcessPoolingCutsAllocs enforces the ResetProcess contract: on an
// algorithm whose processes implement it, back-to-back runs of one batch
// reset and reuse the per-(node, lane) process table, so the per-trial
// allocation count must drop measurably against the identical algorithm
// with the extension stripped — at byte-identical outputs and Stats.
// Skipped under -race, whose instrumentation changes allocation counts.
func TestProcessPoolingCutsAllocs(t *testing.T) {
	in := mustInstance(t, graph.Cycle(256))
	plan, err := NewPlan(in.G)
	if err != nil {
		t.Fatal(err)
	}
	space := localrand.NewTapeSpace(11)
	const width = 4
	algo := wireMix{rounds: 4}

	// Equivalence first: pooled reuse must not change a byte.
	pooledBt := plan.NewBatch(width)
	plainBt := plan.NewBatch(width)
	for rep := 0; rep < 3; rep++ {
		draws := drawRange(space, rep*width, width)
		pooled, err := pooledBt.Run(in, algo, draws, RunOptions{})
		if err != nil {
			t.Fatal(err)
		}
		plain, err := plainBt.Run(in, stripReset{inner: algo}, draws, RunOptions{})
		if err != nil {
			t.Fatal(err)
		}
		for b := range draws {
			expectSameResult(t, fmt.Sprintf("rep %d lane %d pooled vs plain", rep, b), plain[b], pooled[b])
		}
	}

	trial := 0
	measure := func(bt *Batch, a WireAlgorithm) float64 {
		draws := make([]localrand.Draw, width)
		run := func() {
			for i := range draws {
				draws[i] = space.Draw(uint64(1000 + trial))
				trial++
			}
			if _, err := bt.Run(in, a, draws, RunOptions{}); err != nil {
				t.Fatal(err)
			}
		}
		run() // warm slabs and the process table
		return testing.AllocsPerRun(20, run) / width
	}
	pooledAllocs := measure(pooledBt, algo)
	plainAllocs := measure(plainBt, stripReset{inner: algo})
	t.Logf("message allocs per trial: pooled %.1f, unpooled %.1f", pooledAllocs, plainAllocs)
	if pooledAllocs > 0.75*plainAllocs {
		t.Errorf("process pooling allocates %.1f per trial vs %.1f unpooled; want ≥ 25%% fewer", pooledAllocs, plainAllocs)
	}
}

// TestWireMessageZeroAllocsPerRound enforces the wire-format acceptance
// contract: the message round loop on the wire core allocates nothing
// per round. Per-run costs are unavoidable (process table, result
// slices), so the gate compares trials whose only difference is the
// round count — 4 versus 36 rounds — on reusable width-1 and width-8
// batches: if any allocation happened per round, the longer trial would
// show 32 rounds' worth more. Skipped under -race, whose instrumentation changes
// allocation counts.
func TestWireMessageZeroAllocsPerRound(t *testing.T) {
	in := mustInstance(t, graph.Cycle(256))
	plan, err := NewPlan(in.G)
	if err != nil {
		t.Fatal(err)
	}
	space := localrand.NewTapeSpace(7)
	plans := []struct {
		name  string
		trial func(rounds, trial int)
	}{
		{"pooled", func() func(rounds, trial int) {
			one := plan.NewBatch(1)
			d := make([]localrand.Draw, 1)
			return func(rounds, trial int) {
				d[0] = space.Draw(uint64(trial))
				if _, err := one.Run(in, wireMix{rounds: rounds}, d, RunOptions{}); err != nil {
					t.Fatal(err)
				}
			}
		}()},
		{"batched", func() func(rounds, trial int) {
			bt := plan.NewBatch(8)
			draws := make([]localrand.Draw, 8)
			return func(rounds, trial int) {
				for i := range draws {
					draws[i] = space.Draw(uint64(trial*8 + i))
				}
				if _, err := bt.Run(in, wireMix{rounds: rounds}, draws, RunOptions{}); err != nil {
					t.Fatal(err)
				}
			}
		}()},
	}
	for _, p := range plans {
		trial := 0
		p.trial(36, trial) // warm slabs at the larger layout
		measure := func(rounds int) float64 {
			return testing.AllocsPerRun(30, func() {
				p.trial(rounds, trial)
				trial++
			})
		}
		short := measure(4)
		long := measure(36)
		t.Logf("%s wire message allocs/op: %.1f at 4 rounds, %.1f at 36 rounds", p.name, short, long)
		if long != short {
			t.Errorf("%s wire message path allocates per round: %.1f allocs/op at 4 rounds vs %.1f at 36 (want equal)",
				p.name, short, long)
		}
	}
}

// TestChanLinkWaitsAllocFlat pins the in-process link's deadline timers:
// each direction of a chanLink keeps one timer and re-arms it, so a warm
// two-shard run over channel links allocates the same whether it runs 4
// rounds or 64. A timer made per wait would add an allocation for every
// Send or Recv that blocks — at GOMAXPROCS 1, where testing.AllocsPerRun
// runs, the shard goroutines alternate and most Recvs do. Skipped under
// -race.
func TestChanLinkWaitsAllocFlat(t *testing.T) {
	in := mustInstance(t, graph.Cycle(64))
	s, err := MustPlan(in.G).NewSharded(2, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	space := localrand.NewTapeSpace(5)
	draws := []localrand.Draw{space.Draw(0), space.Draw(1)}
	allocs := func(rounds int) float64 {
		run := func() {
			if _, err := s.Run(in, tapeXOR{rounds: rounds}, draws, RunOptions{}); err != nil {
				t.Fatal(err)
			}
		}
		run()
		run() // warm both output arena buffers
		return testing.AllocsPerRun(20, run)
	}
	few, many := allocs(4), allocs(64)
	t.Logf("warm 2-shard chan run: %.1f allocs at 4 rounds, %.1f at 64", few, many)
	if many > few+2 {
		t.Errorf("a 64-round run allocates %.1f, a 4-round run %.1f: link waits allocate per round", many, few)
	}
}
