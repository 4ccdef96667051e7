package construct

import (
	"testing"

	"rlnc/internal/graph"
	"rlnc/internal/ids"
	"rlnc/internal/lang"
	"rlnc/internal/local"
	"rlnc/internal/localrand"
)

// TestResetProcessReuseByteIdentical pins the ResetProcess contract for
// every process algorithm: back-to-back trials on ONE batch — which
// reset and reuse the pooled per-(node, lane) process table — must
// produce byte-identical outputs and identical Stats to fresh
// single-shot runs at the same draws. Any state a ResetProcess fails to
// drop shows up here as a second-trial divergence. The kernel-only
// algorithms (retry coloring, Cole–Vishkin) have no process to pool:
// they must not be ProcessAlgorithms at all, and their kernels' reused
// state slab must match fresh runs the same way.
func TestResetProcessReuseByteIdentical(t *testing.T) {
	ring := func(n int) *lang.Instance {
		in, err := lang.NewInstance(graph.Cycle(n), lang.EmptyInputs(n), ids.RandomPerm(n, 17))
		if err != nil {
			t.Fatal(err)
		}
		return in
	}
	regular := func(n, d int) *lang.Instance {
		g, err := graph.RandomRegular(n, d, 9)
		if err != nil {
			t.Fatal(err)
		}
		in, err := lang.NewInstance(g, lang.EmptyInputs(n), ids.RandomPerm(n, 17))
		if err != nil {
			t.Fatal(err)
		}
		return in
	}
	colored := func(n, q int) *lang.Instance {
		x := make([][]byte, n)
		for v := range x {
			x[v] = lang.EncodeColor(v % q)
		}
		in, err := lang.NewInstance(graph.Cycle(n), x, ids.RandomPerm(n, 17))
		if err != nil {
			t.Fatal(err)
		}
		return in
	}

	cases := []struct {
		algo   local.WireAlgorithm
		in     *lang.Instance
		random bool
		kernel bool
	}{
		{retryAlgo{q: 3, t: 4}, ring(30), true, true},
		{ColeVishkin{MaxIDBits: 8}, ring(30), false, true},
		{LinialReduction{MaxDegree: 2, MaxIDBits: 8, TargetColors: 3}, ring(30), false, false},
		{GreedyMISFromColoring{Q: 3}, colored(9, 3), false, false},
		{LubyMIS{}, regular(32, 4), true, false},
		{EdgeLubyMatching{}, regular(32, 4), true, false},
		{MoserTardosLLL{Phases: 3}, regular(32, 4), true, false},
	}
	space := localrand.NewTapeSpace(57)
	for _, tc := range cases {
		t.Run(tc.algo.Name(), func(t *testing.T) {
			// An algorithm steps one way: a kernel, or processes that
			// opt into pooling.
			_, vec := tc.algo.(local.VecAlgorithm)
			pa, proc := tc.algo.(local.ProcessAlgorithm)
			if vec != tc.kernel || proc == tc.kernel {
				t.Fatalf("%s: VecAlgorithm %v, ProcessAlgorithm %v; want kernel-only %v", tc.algo.Name(), vec, proc, tc.kernel)
			}
			if proc {
				if _, ok := pa.NewWireProcess().(local.ResetProcess); !ok {
					t.Fatalf("%s processes do not implement ResetProcess", tc.algo.Name())
				}
			}

			plan := local.MustPlan(tc.in.G)
			bt := plan.NewBatch(2)
			for trial := 0; trial < 4; trial++ {
				var draws []localrand.Draw
				var draw *localrand.Draw
				if tc.random {
					draws = []localrand.Draw{space.Draw(uint64(trial)), space.Draw(uint64(100 + trial))}
					draw = &draws[0]
				} else {
					draws = nil
					draw = nil
				}
				var got []*local.Result
				var err error
				if draws != nil {
					got, err = bt.Run(tc.in, tc.algo, draws, local.RunOptions{})
				} else {
					got, err = bt.RunInstances([]*lang.Instance{tc.in, tc.in}, tc.algo, nil, local.RunOptions{})
				}
				if err != nil {
					t.Fatal(err)
				}
				for b := range got {
					var sub *localrand.Draw
					if draws != nil {
						sub = &draws[b]
					} else {
						sub = draw
					}
					// Fresh single-shot run: a transient engine with no pooled
					// state to inherit, the reference the reset path must match.
					want, err := local.RunMessage(tc.in, tc.algo, sub, local.RunOptions{})
					if err != nil {
						t.Fatal(err)
					}
					if want.Stats != got[b].Stats {
						t.Fatalf("trial %d lane %d: pooled Stats %+v, want %+v", trial, b, got[b].Stats, want.Stats)
					}
					for v := range want.Y.Len() {
						if string(want.Y.At(v)) != string(got[b].Y.At(v)) {
							t.Fatalf("trial %d lane %d node %d: pooled output %x, want %x",
								trial, b, v, got[b].Y.At(v), want.Y.At(v))
						}
					}
				}
			}
		})
	}
}
