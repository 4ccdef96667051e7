package shardtest

import (
	"fmt"
	"testing"

	"rlnc/internal/construct"
	"rlnc/internal/graph"
	"rlnc/internal/lang"
	"rlnc/internal/local"
	"rlnc/internal/localrand"
)

// This file is the vec-vs-scalar differential matrix of the
// lane-vectorized stepping seam on the real construction algorithms:
// every migrated VecAlgorithm (retry coloring, Cole–Vishkin) run
// through its SoA vector path must reproduce the ScalarOnly reference —
// the same algorithm stripped of the vector extension — byte for byte,
// outputs and Stats, across the six graph families, batch widths from
// one ragged lane to the full vector, the channel and loopback-TCP
// sharded transports, and zero and lossy fault plans. Luby's MIS has no
// vector path; its rows are the control: a wire algorithm without the
// extension must run identically whether or not ScalarOnly wraps it.

// vecCase is one (algorithm, plans) row of the matrix. CV is determin-
// istic (nil draws) and protocol-synchronous, so it runs only on the
// cycle under delivery-preserving plans; the randomized algorithms run
// everywhere, and retry coloring — the fault-tolerant one — also under
// the lossy faultPlanFor plan.
type vecCase struct {
	algo   local.MessageAlgorithm
	random bool
	plans  []string // subset of "none", "zero", "faulty"
}

func vecPlans(t testing.TB, g *graph.Graph) map[string]*local.FaultPlan {
	return map[string]*local.FaultPlan{
		"none":   nil,
		"zero":   {Seed: 123},
		"faulty": faultPlanFor(t, g),
	}
}

// runVecPair runs k lanes of the algorithm on both sides of the
// differential and asserts lane-byte-identical Results.
func runVecPair(t *testing.T, label string, c vecCase, in *lang.Instance, fp *local.FaultPlan,
	run func(algo local.MessageAlgorithm, draws []localrand.Draw, opts local.RunOptions) ([]*local.Result, error),
	ref *local.Batch, draws []localrand.Draw, k int) {
	t.Helper()
	opts := local.RunOptions{Fault: fp}
	var want, got []*local.Result
	var wantErr, gotErr error
	if c.random {
		want, wantErr = ref.Run(in, local.ScalarOnly(c.algo), draws[:k], opts)
		got, gotErr = run(c.algo, draws[:k], opts)
	} else {
		ins := make([]*lang.Instance, k)
		for i := range ins {
			ins[i] = in
		}
		want, wantErr = ref.RunInstances(ins, local.ScalarOnly(c.algo), nil, opts)
		got, gotErr = run(c.algo, nil, opts)
	}
	if (wantErr == nil) != (gotErr == nil) ||
		(wantErr != nil && wantErr.Error() != gotErr.Error()) {
		t.Fatalf("%s: vec error %v, scalar %v", label, gotErr, wantErr)
	}
	if wantErr != nil {
		return
	}
	for b := 0; b < k; b++ {
		expectSame(t, fmt.Sprintf("%s lane %d", label, b), want[b], got[b])
	}
}

// TestVecMatchesScalarMatrix is the batched half of the matrix: one
// width-5 batch stepping the vector path against a ScalarOnly batch of
// the same width, at lane counts {1, 3, 4, 5} (ragged tails included)
// under every plan the algorithm tolerates, back to back on reused
// executors.
func TestVecMatchesScalarMatrix(t *testing.T) {
	const B = 5
	seed := uint64(7001)
	for name, g := range Families(t) {
		in := Instance(t, g)
		plans := vecPlans(t, g)
		cases := []vecCase{
			{construct.RetryMessage(3, 4), true, []string{"none", "zero", "faulty"}},
			{construct.LubyMIS{}, true, []string{"none", "zero"}},
		}
		for _, c := range cases {
			c := c
			t.Run(fmt.Sprintf("%s/%s", name, c.algo.Name()), func(t *testing.T) {
				plan := local.MustPlan(g)
				vecBt := plan.NewBatch(B)
				sclBt := plan.NewBatch(B)
				space := localrand.NewTapeSpace(seed)
				lo := 0
				for _, k := range []int{1, 3, B - 1, B} {
					draws := make([]localrand.Draw, k)
					for i := range draws {
						draws[i] = space.Draw(uint64(lo + i))
					}
					lo += k
					for _, pname := range c.plans {
						runVecPair(t, fmt.Sprintf("k %d plan %s", k, pname), c, in, plans[pname],
							func(algo local.MessageAlgorithm, draws []localrand.Draw, opts local.RunOptions) ([]*local.Result, error) {
								return vecBt.Run(in, algo, draws, opts)
							}, sclBt, draws, k)
					}
				}
			})
			seed++
		}
	}

	// Cole–Vishkin: deterministic, cycle-only, delivery-preserving plans.
	ring := Instance(t, graph.Cycle(24))
	cv := vecCase{construct.ColeVishkin{MaxIDBits: 8}, false, []string{"none", "zero"}}
	t.Run("cycle/"+cv.algo.Name(), func(t *testing.T) {
		plan := local.MustPlan(ring.G)
		vecBt := plan.NewBatch(B)
		sclBt := plan.NewBatch(B)
		plans := vecPlans(t, ring.G)
		for _, k := range []int{1, 3, B - 1, B} {
			for _, pname := range cv.plans {
				runVecPair(t, fmt.Sprintf("k %d plan %s", k, pname), cv, ring, plans[pname],
					func(algo local.MessageAlgorithm, draws []localrand.Draw, opts local.RunOptions) ([]*local.Result, error) {
						ins := make([]*lang.Instance, k)
						for i := range ins {
							ins[i] = ring
						}
						return vecBt.RunInstances(ins, algo, nil, opts)
					}, sclBt, nil, k)
			}
		}
	})
}

// TestVecMatchesScalarSharded is the sharded half: the vector path
// under the shard orchestrator — windowed rev tables, cut exchange,
// per-shard collection — against the unsharded ScalarOnly batch, on the
// in-process channel links everywhere and on loopback-TCP sockets for
// the cycle and connected-gnp families (the byte-stream codec path).
func TestVecMatchesScalarSharded(t *testing.T) {
	const B = 5
	seed := uint64(8001)
	tcpFamilies := map[string]bool{"cycle": true, "connected-gnp": true}
	for name, g := range Families(t) {
		in := Instance(t, g)
		plans := vecPlans(t, g)
		cases := []vecCase{
			{construct.RetryMessage(3, 4), true, []string{"none", "faulty"}},
			{construct.LubyMIS{}, true, []string{"none"}},
		}
		for _, c := range cases {
			c := c
			t.Run(fmt.Sprintf("%s/%s", name, c.algo.Name()), func(t *testing.T) {
				plan := local.MustPlan(g)
				sclBt := plan.NewBatch(B)
				space := localrand.NewTapeSpace(seed)
				draws := make([]localrand.Draw, B)
				for i := range draws {
					draws[i] = space.Draw(uint64(i))
				}
				transports := []struct {
					name string
					tr   Transport
				}{{"chan", nil}}
				if tcpFamilies[name] {
					transports = append(transports, struct {
						name string
						tr   Transport
					}{"tcp", TCPTransport})
				}
				for _, tp := range transports {
					for _, shards := range []int{2, 3} {
						sh, err := plan.NewSharded(B, shards)
						if err != nil {
							t.Fatal(err)
						}
						if tp.tr != nil {
							if cleanup := tp.tr(sh); cleanup != nil {
								defer cleanup()
							}
						}
						for _, k := range []int{B, B - 2} {
							for _, pname := range c.plans {
								runVecPair(t, fmt.Sprintf("%s shards %d k %d plan %s", tp.name, shards, k, pname),
									c, in, plans[pname],
									func(algo local.MessageAlgorithm, draws []localrand.Draw, opts local.RunOptions) ([]*local.Result, error) {
										return sh.Run(in, algo, draws, opts)
									}, sclBt, draws, k)
							}
						}
					}
				}
			})
			seed++
		}
	}
}
