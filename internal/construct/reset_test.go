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
// every migrated algorithm: back-to-back trials on ONE batch — which
// reset and reuse the pooled per-(node, lane) process table — must
// produce byte-identical outputs and identical Stats to fresh
// single-shot runs at the same draws. Any state a ResetProcess fails to
// drop shows up here as a second-trial divergence.
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
	}{
		{retryAlgo{q: 3, t: 4}, ring(30), true},
		{ColeVishkin{MaxIDBits: 8}, ring(30), false},
		{LinialReduction{MaxDegree: 2, MaxIDBits: 8, TargetColors: 3}, ring(30), false},
		{GreedyMISFromColoring{Q: 3}, colored(9, 3), false},
		{LubyMIS{}, regular(32, 4), true},
		{EdgeLubyMatching{}, regular(32, 4), true},
		{MoserTardosLLL{Phases: 3}, regular(32, 4), true},
	}
	space := localrand.NewTapeSpace(57)
	for _, tc := range cases {
		t.Run(tc.algo.Name(), func(t *testing.T) {
			// The processes of every migrated algorithm must opt into
			// pooling.
			wa, ok := tc.algo.(local.WireAlgorithm)
			if !ok {
				t.Fatalf("%s is not a WireAlgorithm", tc.algo.Name())
			}
			if _, ok := wa.NewWireProcess().(local.ResetProcess); !ok {
				t.Fatalf("%s processes do not implement ResetProcess", tc.algo.Name())
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
