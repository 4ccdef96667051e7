package local

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"rlnc/internal/graph"
	"rlnc/internal/lang"
	"rlnc/internal/localrand"
)

// drawRange returns draws lo..lo+k-1 of the space, the addressing the
// Monte-Carlo harness uses for a contiguous trial chunk.
func drawRange(space *localrand.TapeSpace, lo, k int) []localrand.Draw {
	out := make([]localrand.Draw, k)
	for i := range out {
		out[i] = space.Draw(uint64(lo + i))
	}
	return out
}

// runLane runs one execution on a width-1 batch, the per-lane reference
// the batched and sharded shapes are checked against; a nil draw runs
// deterministically. The result lives in one's output arena, valid
// through its next run.
func runLane(one *Batch, in *lang.Instance, algo WireAlgorithm, draw *localrand.Draw, opts RunOptions) (*Result, error) {
	rs, err := one.RunInstances([]*lang.Instance{in}, algo, oneDraw(draw), opts)
	if err != nil {
		return nil, err
	}
	return rs[0], nil
}

// viewLane is runLane for a ball-view algorithm; it panics on a foreign
// instance, which no caller passes.
func viewLane(one *Batch, in *lang.Instance, algo ViewAlgorithm, draw *localrand.Draw) lang.Column {
	ys, err := one.RunViewInstances([]*lang.Instance{in}, algo, oneDraw(draw))
	if err != nil {
		panic(err)
	}
	return ys[0]
}

// TestBatchMatchesPooledMessage pins the tentpole equivalence contract
// for the message path: every lane of a Batch.Run — full batches, ragged
// tails, and back-to-back reuse of one Batch — produces byte-identical
// outputs and identical Stats to a pooled width-1 batch run and a single-shot
// run at the same draw, on every graph family.
func TestBatchMatchesPooledMessage(t *testing.T) {
	const width = 4
	space := localrand.NewTapeSpace(71)
	for name, g := range testFamilies(t) {
		t.Run(name, func(t *testing.T) {
			in := mustInstance(t, g)
			plan, err := NewPlan(g)
			if err != nil {
				t.Fatal(err)
			}
			bt := plan.NewBatch(width)
			one := plan.NewBatch(1)
			algo := tapeXOR{rounds: 3}

			// Back-to-back runs on one Batch: a full batch, then a ragged
			// tail (trials % width != 0), then a full batch again.
			lo := 0
			for rep, k := range []int{width, width - 1, width} {
				draws := drawRange(space, lo, k)
				results, err := bt.Run(in, algo, draws, RunOptions{})
				if err != nil {
					t.Fatal(err)
				}
				if len(results) != k {
					t.Fatalf("rep %d: %d results for %d lanes", rep, len(results), k)
				}
				for b := 0; b < k; b++ {
					want, err := runLane(one, in, algo, &draws[b], RunOptions{})
					if err != nil {
						t.Fatal(err)
					}
					expectSameResult(t, fmt.Sprintf("rep %d lane %d vs pooled", rep, b), want, results[b])
					single, err := RunMessage(in, algo, &draws[b], RunOptions{})
					if err != nil {
						t.Fatal(err)
					}
					expectSameResult(t, fmt.Sprintf("rep %d lane %d vs single-shot", rep, b), single, results[b])
				}
				lo += k
			}

			// Deterministic lanes (nil draws) through RunInstances.
			ins := []*lang.Instance{in, in, in}
			results, err := bt.RunInstances(ins, floodMin{t: 2}, nil, RunOptions{})
			if err != nil {
				t.Fatal(err)
			}
			want, err := RunMessage(in, floodMin{t: 2}, nil, RunOptions{})
			if err != nil {
				t.Fatal(err)
			}
			for b := range results {
				expectSameResult(t, fmt.Sprintf("deterministic lane %d", b), want, results[b])
			}
		})
	}
}

// TestBatchPartialWidthMatrix sweeps the slot-major kernel's ragged
// widths: k ∈ {1, 3, B-1, B} lanes on a width-B batch, across every
// graph family and two message shapes (one-word tapeXOR, mixed
// two-word/signal wireMix), every lane byte-identical to a pooled width-1 batch
// run at the same draw. Partial widths are where a slot-major kernel can first go
// wrong — the contiguous lens clears and dense cut copies span all B
// lanes of a slot while only k are live — so the matrix pins that dead
// lanes neither leak into live ones nor shift their bytes.
func TestBatchPartialWidthMatrix(t *testing.T) {
	const width = 8
	space := localrand.NewTapeSpace(73)
	for name, g := range testFamilies(t) {
		t.Run(name, func(t *testing.T) {
			in := mustInstance(t, g)
			plan, err := NewPlan(g)
			if err != nil {
				t.Fatal(err)
			}
			bt := plan.NewBatch(width)
			one := plan.NewBatch(1)
			lo := 0
			for _, algo := range []WireAlgorithm{tapeXOR{rounds: 3}, wireMix{rounds: 4}} {
				for _, k := range []int{1, 3, width - 1, width} {
					draws := drawRange(space, lo, k)
					lo += k
					results, err := bt.Run(in, algo, draws, RunOptions{})
					if err != nil {
						t.Fatal(err)
					}
					if len(results) != k {
						t.Fatalf("%s k=%d: %d results", algo.Name(), k, len(results))
					}
					for b := 0; b < k; b++ {
						want, err := runLane(one, in, algo, &draws[b], RunOptions{})
						if err != nil {
							t.Fatal(err)
						}
						expectSameResult(t, fmt.Sprintf("%s k=%d lane %d", algo.Name(), k, b), want, results[b])
					}
				}
			}
		})
	}
}

// TestBatchMatchesPooledView pins the same contract for the ball-view
// path, including a radius switch mid-stream and a deterministic batch.
func TestBatchMatchesPooledView(t *testing.T) {
	const width = 4
	space := localrand.NewTapeSpace(72)
	for name, g := range testFamilies(t) {
		t.Run(name, func(t *testing.T) {
			in := mustInstance(t, g)
			plan, err := NewPlan(g)
			if err != nil {
				t.Fatal(err)
			}
			bt := plan.NewBatch(width)
			one := plan.NewBatch(1)

			lo := 0
			for rep, k := range []int{width, 2, width} {
				draws := drawRange(space, lo, k)
				ys, err := bt.RunView(in, tapeSumView{t: 2}, draws)
				if err != nil {
					t.Fatal(err)
				}
				for b := 0; b < k; b++ {
					want := viewLane(one, in, tapeSumView{t: 2}, &draws[b])
					single := RunView(in, tapeSumView{t: 2}, &draws[b])
					for v := range want.Len() {
						if !bytes.Equal(want.At(v), ys[b].At(v)) {
							t.Fatalf("rep %d lane %d node %d: %x, want %x (pooled)", rep, b, v, ys[b].At(v), want.At(v))
						}
						if !bytes.Equal(single.At(v), ys[b].At(v)) {
							t.Fatalf("rep %d lane %d node %d: %x, want %x (single-shot)", rep, b, v, ys[b].At(v), single.At(v))
						}
					}
				}
				lo += k
			}

			// Radius switch on the same batch, deterministic lanes.
			ys, err := bt.RunViewInstances([]*lang.Instance{in, in}, minIDView{t: 3}, nil)
			if err != nil {
				t.Fatal(err)
			}
			want := RunView(in, minIDView{t: 3}, nil)
			for b := range ys {
				for v := range want.Len() {
					if !bytes.Equal(want.At(v), ys[b].At(v)) {
						t.Fatalf("radius switch lane %d node %d: %x, want %x", b, v, ys[b].At(v), want.At(v))
					}
				}
			}
		})
	}
}

// TestBatchPerLaneInstances pins the pipeline shape: lanes carrying
// different input columns over one graph must match per-lane pooled runs
// on both the message and the ball-view paths.
func TestBatchPerLaneInstances(t *testing.T) {
	g := graph.Cycle(20)
	plan, err := NewPlan(g)
	if err != nil {
		t.Fatal(err)
	}
	base := mustInstance(t, g)
	ins := make([]*lang.Instance, 3)
	for b := range ins {
		x := make([][]byte, g.N())
		for v := range x {
			x[v] = []byte{byte(b*31 + v)}
		}
		ins[b] = &lang.Instance{G: g, X: x, ID: base.ID}
	}
	space := localrand.NewTapeSpace(5)
	draws := drawRange(space, 0, len(ins))

	bt := plan.NewBatch(4)
	one := plan.NewBatch(1)

	// Message path: xorInput reads the lane's input column.
	results, err := bt.RunInstances(ins, tapeXOR{rounds: 2}, draws, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for b := range ins {
		want, err := runLane(one, ins[b], tapeXOR{rounds: 2}, &draws[b], RunOptions{})
		if err != nil {
			t.Fatal(err)
		}
		expectSameResult(t, fmt.Sprintf("message lane %d", b), want, results[b])
	}

	// View path: a view algorithm reading inputs.
	sumX := ViewFunc{AlgoName: "sum-x", R: 1, F: func(v *View) []byte {
		var s byte
		for i := range v.X {
			if len(v.X[i]) > 0 {
				s += v.X[i][0]
			}
		}
		return []byte{s}
	}}
	ys, err := bt.RunViewInstances(ins, sumX, draws)
	if err != nil {
		t.Fatal(err)
	}
	for b := range ins {
		want := viewLane(one, ins[b], sumX, &draws[b])
		for v := range want.Len() {
			if !bytes.Equal(want.At(v), ys[b].At(v)) {
				t.Fatalf("view lane %d node %d: %x, want %x", b, v, ys[b].At(v), want.At(v))
			}
		}
	}
}

// TestBatchValidation pins the batch's argument contract: width >= 1,
// lane counts within capacity, draw/lane agreement, and the plan/instance
// pairing.
func TestBatchValidation(t *testing.T) {
	g := graph.Cycle(6)
	plan, err := NewPlan(g)
	if err != nil {
		t.Fatal(err)
	}
	in := mustInstance(t, g)
	foreign := mustInstance(t, graph.Cycle(6))
	space := localrand.NewTapeSpace(1)

	func() {
		defer func() {
			if recover() == nil {
				t.Error("NewBatch(0) did not panic")
			}
		}()
		plan.NewBatch(0)
	}()

	bt := plan.NewBatch(2)
	if _, err := bt.Run(in, floodMin{t: 1}, drawRange(space, 0, 3), RunOptions{}); err == nil {
		t.Error("batch accepted more lanes than its width")
	}
	if _, err := bt.Run(in, floodMin{t: 1}, nil, RunOptions{}); err == nil {
		t.Error("batch accepted zero lanes")
	}
	if _, err := bt.Run(foreign, floodMin{t: 1}, drawRange(space, 0, 1), RunOptions{}); err == nil {
		t.Error("batch accepted an instance over a foreign graph")
	}
	if _, err := bt.RunInstances([]*lang.Instance{in, in}, floodMin{t: 1}, drawRange(space, 0, 1), RunOptions{}); err == nil {
		t.Error("batch accepted mismatched draw/lane counts")
	}
	if _, err := bt.RunView(foreign, minIDView{t: 1}, drawRange(space, 0, 1)); err == nil {
		t.Error("batched view run accepted a foreign instance")
	}
}

// TestBatchErrorPaths pins ErrNoHalt and StopAfter behavior on batches,
// including reuse after a failed run — the engine's error contract, lane
// by lane.
func TestBatchErrorPaths(t *testing.T) {
	in := mustInstance(t, graph.Cycle(5))
	plan, err := NewPlan(in.G)
	if err != nil {
		t.Fatal(err)
	}
	space := localrand.NewTapeSpace(9)
	bt := plan.NewBatch(3)
	if _, err := bt.Run(in, neverHalt{}, drawRange(space, 0, 3), RunOptions{MaxRounds: 20}); !errors.Is(err, ErrNoHalt) {
		t.Fatalf("expected ErrNoHalt, got %v", err)
	}
	// The batch must be reusable after an aborted run.
	results, err := bt.Run(in, neverHalt{}, drawRange(space, 0, 2), RunOptions{StopAfter: 7})
	if err != nil {
		t.Fatal(err)
	}
	for b, r := range results {
		if r.Stats.Rounds != 7 {
			t.Errorf("lane %d rounds = %d, want 7", b, r.Stats.Rounds)
		}
	}
	draws := drawRange(space, 10, 2)
	results, err = bt.Run(in, tapeXOR{rounds: 2}, draws, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for b := range results {
		want, err := RunMessage(in, tapeXOR{rounds: 2}, &draws[b], RunOptions{})
		if err != nil {
			t.Fatal(err)
		}
		expectSameResult(t, fmt.Sprintf("after aborted run lane %d", b), want, results[b])
	}
}

// TestPlanDistFromCached pins that the distance columns are cached on the
// plan (the point of moving BFS out of the far-from trial loops) and
// match graph.BFSFrom.
func TestPlanDistFromCached(t *testing.T) {
	g := graph.Grid(4, 5)
	plan, err := NewPlan(g)
	if err != nil {
		t.Fatal(err)
	}
	want := g.BFSFrom(3)
	got := plan.DistFrom(3)
	for v := range want {
		if want[v] != got[v] {
			t.Fatalf("DistFrom(3)[%d] = %d, want %d", v, got[v], want[v])
		}
	}
	again := plan.DistFrom(3)
	if &again[0] != &got[0] {
		t.Error("DistFrom rebuilt the column on the second call")
	}
}

// TestBatchMessageBlocking pins lane-vector splitting: on a graph large
// enough that the slab budget caps a pass below the requested lane count,
// results must still be per-lane identical to pooled runs (the blocks are
// stitched in lane order).
func TestBatchMessageBlocking(t *testing.T) {
	g := graph.Cycle(8000) // 16000 one-word slots: a 4-lane vector needs 2 passes
	in := mustInstance(t, g)
	plan, err := NewPlan(g)
	if err != nil {
		t.Fatal(err)
	}
	bt := plan.NewBatch(4)
	if lanes := bt.msgLanesFor(tapeXOR{rounds: 3}); lanes >= 4 {
		t.Fatalf("fixture too small: block %d does not split 4 lanes", lanes)
	}
	one := plan.NewBatch(1)
	space := localrand.NewTapeSpace(44)
	draws := drawRange(space, 0, 4)
	results, err := bt.Run(in, tapeXOR{rounds: 3}, draws, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 4 {
		t.Fatalf("%d results, want 4", len(results))
	}
	for b := range draws {
		want, err := runLane(one, in, tapeXOR{rounds: 3}, &draws[b], RunOptions{})
		if err != nil {
			t.Fatal(err)
		}
		expectSameResult(t, fmt.Sprintf("blocked lane %d", b), want, results[b])
	}
}
