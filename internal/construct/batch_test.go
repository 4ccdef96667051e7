package construct

import (
	"bytes"
	"testing"

	"rlnc/internal/graph"
	"rlnc/internal/ids"
	"rlnc/internal/lang"
	"rlnc/internal/local"
	"rlnc/internal/localrand"
)

// plainAlgorithm hides an algorithm's engine fast path, forcing every
// Exec shape through the single-shot fallback.
type plainAlgorithm struct{ a Algorithm }

func (p plainAlgorithm) Name() string { return p.a.Name() }
func (p plainAlgorithm) Run(in *lang.Instance, draw *localrand.Draw) (lang.Column, error) {
	return p.a.Run(in, draw)
}

// TestRunBatchMatchesRunOn pins the construction-side equivalence
// contract: for every catalogue constructor — ball-view, message-passing,
// retry, and pipeline paths, the mixed message-then-view pipeline of
// WeakColoringViaMIS, plus the single-shot fallback — every lane of
// Exec{Bt} on a plain width-5 batch and on a 2-shard batch
// (Plan.NewShardedBatch) is byte-identical to Exec{} and to
// Algorithm.Run at the same draw, including ragged lane counts and
// back-to-back reuse of one batch and one sharded batch.
func TestRunBatchMatchesRunOn(t *testing.T) {
	in := instanceOn(t, graph.Cycle(24), ids.Consecutive(24))
	plan := local.MustPlan(in.G)
	space := localrand.NewTapeSpace(91)

	algos := []Algorithm{
		RandomColoring(3),
		RetryColoring{Q: 3, T: 2},
		MessageConstruction{Algo: retryAlgo{q: 3, t: 1}},
		Pipeline{Stages: []Algorithm{RandomColoring(3), RetryColoring{Q: 3, T: 1}}},
		plainAlgorithm{a: RandomColoring(3)},
		ColeVishkinColoring(8),
		LinialColoring(2, 8),
		LinialColoringFor(in),
		LubyMISAlgorithm(),
		MaximalMatchingAlgorithm(),
		MoserTardosAlgorithm(3),
		WeakColoringViaMIS(),
		DeterministicRingMIS(8),
		DeterministicRingWeakColoring(8),
	}
	for _, oi := range OrderInvariantCorpus(3, 1) {
		algos = append(algos, ViewConstruction{Algo: oi})
	}
	const width = 5
	bt := plan.NewBatch(width)
	sh := plan.NewShardedBatch(width, 2, nil)
	defer sh.Close()
	for _, a := range algos {
		t.Run(a.Name(), func(t *testing.T) {
			lo := 0
			for rep, k := range []int{width, width - 1} {
				draws := make([]localrand.Draw, k)
				for b := range draws {
					draws[b] = space.Draw(uint64(lo + b))
				}
				want, err := Exec{}.Run(a, in, draws)
				if err != nil {
					t.Fatal(err)
				}
				for _, shape := range []struct {
					name string
					x    Exec
				}{{"batched", Exec{Bt: bt}}, {"sharded", Exec{Bt: sh}}} {
					ys, err := shape.x.Run(a, in, draws)
					if err != nil {
						t.Fatalf("%s: %v", shape.name, err)
					}
					if len(ys) != k {
						t.Fatalf("%s rep %d: %d lanes, want %d", shape.name, rep, len(ys), k)
					}
					for b := range ys {
						for v := range want[b].Len() {
							if !bytes.Equal(want[b].At(v), ys[b].At(v)) {
								t.Fatalf("%s rep %d lane %d node %d: %x, Exec{} %x", shape.name, rep, b, v, ys[b].At(v), want[b].At(v))
							}
						}
					}
				}
				for b := range draws {
					single, err := a.Run(in, &draws[b])
					if err != nil {
						t.Fatal(err)
					}
					for v := range single.Len() {
						if !bytes.Equal(single.At(v), want[b].At(v)) {
							t.Fatalf("rep %d lane %d node %d: Exec{} %x, single-shot %x", rep, b, v, want[b].At(v), single.At(v))
						}
					}
				}
				lo += k
			}
		})
	}
}
