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

// This file is the kernel-vs-scalar differential matrix of the range
// kernels on the real construction algorithms: each kernel-only
// algorithm (retry coloring, Cole–Vishkin) must reproduce its frozen
// scalar oracle (oracle_test.go) byte for byte, outputs and Stats,
// across the six graph families, batch widths from one ragged lane to
// the full vector, the channel and loopback-TCP sharded transports, and
// zero and lossy fault plans. Luby's MIS is a process algorithm; its
// rows are the control, run against itself on the reference batch.

// vecCase is one (algorithm, reference, plans) row of the matrix. CV is
// deterministic (nil draws) and protocol-synchronous, so it runs only on
// the cycle under delivery-preserving plans; the randomized algorithms
// run everywhere, and retry coloring — the fault-tolerant one — also
// under the lossy faultPlanFor plan.
type vecCase struct {
	algo   local.WireAlgorithm
	ref    local.WireAlgorithm // the oracle the reference batch runs
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
	run func(algo local.WireAlgorithm, draws []localrand.Draw, opts local.RunOptions) ([]*local.Result, error),
	ref *local.Batch, draws []localrand.Draw, k int) {
	t.Helper()
	opts := local.RunOptions{Fault: fp}
	var want, got []*local.Result
	var wantErr, gotErr error
	if c.random {
		want, wantErr = ref.Run(in, c.ref, draws[:k], opts)
		got, gotErr = run(c.algo, draws[:k], opts)
	} else {
		ins := make([]*lang.Instance, k)
		for i := range ins {
			ins[i] = in
		}
		want, wantErr = ref.RunInstances(ins, c.ref, nil, opts)
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
// width-5 batch stepping the kernel against an oracle batch of the same
// width, at lane counts {1, 3, 4, 5} (ragged tails included) under every
// plan the algorithm tolerates, back to back on reused executors.
func TestVecMatchesScalarMatrix(t *testing.T) {
	const B = 5
	seed := uint64(7001)
	for name, g := range Families(t) {
		in := Instance(t, g)
		plans := vecPlans(t, g)
		cases := []vecCase{
			{construct.RetryMessage(3, 4), retryRef{3, 4}, true, []string{"none", "zero", "faulty"}},
			{construct.LubyMIS{}, construct.LubyMIS{}, true, []string{"none", "zero"}},
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
							func(algo local.WireAlgorithm, draws []localrand.Draw, opts local.RunOptions) ([]*local.Result, error) {
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
	cv := vecCase{construct.ColeVishkin{MaxIDBits: 8}, cvRef{8}, false, []string{"none", "zero"}}
	t.Run("cycle/"+cv.algo.Name(), func(t *testing.T) {
		plan := local.MustPlan(ring.G)
		vecBt := plan.NewBatch(B)
		sclBt := plan.NewBatch(B)
		plans := vecPlans(t, ring.G)
		for _, k := range []int{1, 3, B - 1, B} {
			for _, pname := range cv.plans {
				runVecPair(t, fmt.Sprintf("k %d plan %s", k, pname), cv, ring, plans[pname],
					func(algo local.WireAlgorithm, draws []localrand.Draw, opts local.RunOptions) ([]*local.Result, error) {
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

// TestVecMatchesScalarSharded is the sharded half: the kernel under the
// shard orchestrator — windowed rev tables, cut exchange, per-shard
// collection — against the unsharded oracle batch, on the in-process
// channel links everywhere and on loopback-TCP sockets for the cycle and
// connected-gnp families (the byte-stream codec path).
func TestVecMatchesScalarSharded(t *testing.T) {
	const B = 5
	seed := uint64(8001)
	tcpFamilies := map[string]bool{"cycle": true, "connected-gnp": true}
	for name, g := range Families(t) {
		in := Instance(t, g)
		plans := vecPlans(t, g)
		cases := []vecCase{
			{construct.RetryMessage(3, 4), retryRef{3, 4}, true, []string{"none", "faulty"}},
			{construct.LubyMIS{}, construct.LubyMIS{}, true, []string{"none"}},
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
									func(algo local.WireAlgorithm, draws []localrand.Draw, opts local.RunOptions) ([]*local.Result, error) {
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

// laneBlock derives the lane block of one message pass from the
// exported slab accounting: a pass of width w streams perLane·block
// bytes, and a width-1 executor's block is 1.
func laneBlock(width1, widthK int) int { return widthK / width1 }

// TestVecBlockSplitting pins the block split on the real kernels: on
// C_4800 the 1 MB slab budget splits a 22-lane vector of one-word
// messages into blocks of 9 + 9 + 4, every block — the ragged tail
// included — stepping the kernel. A fault-free batch lays the kernel out
// on node slots (24 bytes per node and lane); an armed plan keeps edge
// slots (48 bytes), and 4 lanes per block. Every lane — outputs and
// Stats — must match a per-lane width-1 oracle run, and the oracle
// batch. The sharded half cuts the ring unevenly, so the shards' own
// budgets disagree and the orchestrator imposes the big shard's smaller
// block (6 + 6 + 6 + 4) on both; shard windows keep edge slots.
func TestVecBlockSplitting(t *testing.T) {
	const K = 22
	in := Instance(t, graph.Cycle(4800))
	plan := local.MustPlan(in.G)
	part := graph.Partition{Bounds: []int32{0, 3600, 4800}}
	sh, err := plan.NewShardedPartition(K, part)
	if err != nil {
		t.Fatal(err)
	}
	sh1, err := plan.NewShardedPartition(1, part)
	if err != nil {
		t.Fatal(err)
	}
	space := localrand.NewTapeSpace(9001)
	draws := make([]localrand.Draw, K)
	for i := range draws {
		draws[i] = space.Draw(uint64(i))
	}
	ins := make([]*lang.Instance, K)
	for i := range ins {
		ins[i] = in
	}
	for _, c := range []vecCase{
		{construct.RetryMessage(3, 5), retryRef{3, 5}, true, nil},
		{construct.ColeVishkin{MaxIDBits: 13}, cvRef{13}, false, nil},
	} {
		t.Run(c.algo.Name(), func(t *testing.T) {
			vecBt, sclBt := plan.NewBatch(K), plan.NewBatch(K)
			if b := laneBlock(plan.NewBatch(1).SlabBytesFor(c.algo), vecBt.SlabBytesFor(c.algo)); b != 9 {
				t.Fatalf("fixture: batch block %d, want 9", b)
			}
			faulty1, faultyK := plan.NewBatch(1), plan.NewBatch(K)
			faulty1.SetFault(&local.FaultPlan{Drop: 0.1})
			faultyK.SetFault(&local.FaultPlan{Drop: 0.1})
			if b := laneBlock(faulty1.SlabBytesFor(c.algo), faultyK.SlabBytesFor(c.algo)); b != 4 {
				t.Fatalf("fixture: batch block %d under an armed plan, want 4", b)
			}
			one, all := sh1.ShardSlabBytes(c.algo), sh.ShardSlabBytes(c.algo)
			if b0, b1 := laneBlock(one[0], all[0]), laneBlock(one[1], all[1]); b0 != 6 || b1 <= b0 {
				t.Fatalf("fixture: shard blocks %d and %d, want 6 and more", b0, b1)
			}
			run := func(x interface {
				Run(*lang.Instance, local.WireAlgorithm, []localrand.Draw, local.RunOptions) ([]*local.Result, error)
				RunInstances([]*lang.Instance, local.WireAlgorithm, []localrand.Draw, local.RunOptions) ([]*local.Result, error)
			}, algo local.WireAlgorithm) []*local.Result {
				var rs []*local.Result
				var err error
				if c.random {
					rs, err = x.Run(in, algo, draws, local.RunOptions{})
				} else {
					rs, err = x.RunInstances(ins, algo, nil, local.RunOptions{})
				}
				if err != nil {
					t.Fatal(err)
				}
				return rs
			}
			scalar := run(sclBt, c.ref)
			vec := run(vecBt, c.algo)
			sharded := run(sh, c.algo)
			for b := 0; b < K; b++ {
				var draw *localrand.Draw
				if c.random {
					draw = &draws[b]
				}
				want, err := plan.Run(in, c.ref, draw, local.RunOptions{})
				if err != nil {
					t.Fatal(err)
				}
				one, err := plan.Run(in, c.algo, draw, local.RunOptions{})
				if err != nil {
					t.Fatal(err)
				}
				expectSame(t, fmt.Sprintf("scalar lane %d", b), want, scalar[b])
				expectSame(t, fmt.Sprintf("width-1 kernel lane %d", b), want, one)
				expectSame(t, fmt.Sprintf("batch lane %d", b), want, vec[b])
				expectSame(t, fmt.Sprintf("sharded lane %d", b), want, sharded[b])
			}
		})
	}
}

// kernelPlans are the fault shapes the range kernels must step exactly
// like their scalar processes: lossy links (drop), one-round holds
// (delay), permanent crashes, and crashes that recover (CrashUntil), the
// shape whose crash masks freeze lanes mid-range and thaw them later.
var kernelPlans = []struct {
	name string
	fp   *local.FaultPlan
}{
	{"none", nil},
	{"drop", &local.FaultPlan{Seed: 301, Drop: 0.2}},
	{"delay", &local.FaultPlan{Seed: 302, Delay: 0.25}},
	{"crash", &local.FaultPlan{Seed: 303, CrashP: 0.2, CrashFrom: 2}},
	{"crash-recover", &local.FaultPlan{Seed: 304, Drop: 0.05, CrashP: 0.3, CrashFrom: 1, CrashUntil: 4}},
}

// laneOutcome is one lane's Result, or the panic or error its run ended
// in: Cole–Vishkin panics on the first missing neighbor color, and the
// kernel must fail exactly where the scalar process fails.
type laneOutcome struct {
	res  *local.Result
	fail string
}

// runOutcomes runs one execution and returns its per-lane outcomes; a
// panic or error fails every lane alike.
func runOutcomes(k int, run func() ([]*local.Result, error)) (out []laneOutcome) {
	out = make([]laneOutcome, k)
	failAll := func(msg string) {
		for b := range out {
			out[b] = laneOutcome{fail: msg}
		}
	}
	defer func() {
		if r := recover(); r != nil {
			failAll(fmt.Sprint("panic: ", r))
		}
	}()
	rs, err := run()
	if err != nil {
		failAll("error: " + err.Error())
		return out
	}
	for b, r := range rs {
		out[b] = laneOutcome{res: r}
	}
	return out
}

// expectSameOutcome asserts lane-identical outcomes: equal results, or
// the same failure.
func expectSameOutcome(t *testing.T, label string, want, got laneOutcome) {
	t.Helper()
	if want.fail != "" || got.fail != "" {
		if want.fail != got.fail {
			t.Fatalf("%s: outcome %q, want %q", label, got.fail, want.fail)
		}
		return
	}
	expectSame(t, label, want.res, got.res)
}

// TestVecKernelMatchesScalar pins both range kernels (retry coloring and
// Cole–Vishkin) against the frozen scalar oracle — one width-1 Plan.Run
// per lane, which no block split or lane mask can reach — byte for
// byte, outputs and Stats (or the identical panic), under every
// kernelPlans shape. The unsharded half runs widths {2, 3, 63, 64, 65,
// 100} on rings small enough that the slab budget never binds, so the
// 64-lane block cap splits 65 and 100 into a full mask plus a ragged
// tail; the sharded half runs windows on the channel and loopback-TCP
// transports. Fault-free retry coloring also runs at widths {1, 5, 64}
// on a torus, a star and a graph with isolated nodes, the node-slot
// layout's shapes beyond rings.
func TestVecKernelMatchesScalar(t *testing.T) {
	ring := Instance(t, graph.Cycle(48))
	plan := local.MustPlan(ring.G)
	space := localrand.NewTapeSpace(9101)
	const maxK = 100
	draws := make([]localrand.Draw, maxK)
	ins := make([]*lang.Instance, maxK)
	for i := range draws {
		draws[i] = space.Draw(uint64(i))
		ins[i] = ring
	}
	cases := []vecCase{
		{construct.RetryMessage(3, 4), retryRef{3, 4}, true, nil},
		{construct.ColeVishkin{MaxIDBits: 8}, cvRef{8}, false, nil},
	}
	// run executes k lanes of algo on x: random lanes under draws,
	// deterministic ones over per-lane copies of the ring.
	type executor interface {
		Run(*lang.Instance, local.WireAlgorithm, []localrand.Draw, local.RunOptions) ([]*local.Result, error)
		RunInstances([]*lang.Instance, local.WireAlgorithm, []localrand.Draw, local.RunOptions) ([]*local.Result, error)
	}
	run := func(x executor, c vecCase, algo local.WireAlgorithm, k int, fp *local.FaultPlan) []laneOutcome {
		opts := local.RunOptions{Fault: fp}
		return runOutcomes(k, func() ([]*local.Result, error) {
			if c.random {
				return x.Run(ring, algo, draws[:k], opts)
			}
			return x.RunInstances(ins[:k], algo, nil, opts)
		})
	}
	for _, c := range cases {
		c := c
		t.Run(c.algo.Name(), func(t *testing.T) {
			ref := make(map[string][]laneOutcome)
			for _, pl := range kernelPlans {
				want := make([]laneOutcome, maxK)
				for b := range want {
					want[b] = runOutcomes(1, func() ([]*local.Result, error) {
						var d *localrand.Draw
						if c.random {
							d = &draws[b]
						}
						r, err := plan.Run(ring, c.ref, d, local.RunOptions{Fault: pl.fp})
						return []*local.Result{r}, err
					})[0]
				}
				ref[pl.name] = want
			}
			check := func(label string, want, got []laneOutcome) {
				t.Helper()
				for b := range got {
					expectSameOutcome(t, fmt.Sprintf("%s lane %d", label, b), want[b], got[b])
				}
			}
			for _, width := range []int{2, 3, 63, 64, 65, 100} {
				bt := plan.NewBatch(width)
				for _, pl := range kernelPlans {
					check(fmt.Sprintf("width %d plan %s", width, pl.name), ref[pl.name], run(bt, c, c.algo, width, pl.fp))
				}
			}
			for _, tp := range []struct {
				name string
				tr   Transport
			}{{"chan", nil}, {"tcp", TCPTransport}} {
				for _, width := range []int{3, 65} {
					sh, err := plan.NewSharded(width, 3)
					if err != nil {
						t.Fatal(err)
					}
					if tp.tr != nil {
						if cleanup := tp.tr(sh); cleanup != nil {
							defer cleanup()
						}
					}
					for _, pl := range kernelPlans {
						check(fmt.Sprintf("%s shards 3 width %d plan %s", tp.name, width, pl.name), ref[pl.name], run(sh, c, c.algo, width, pl.fp))
					}
				}
			}
		})
	}
	// A fault-free batch steps the kernel on node slots: one send slot
	// per node, read by every neighbor. Beyond rings, that layout meets
	// degree 4, a hub every leaf reads, and isolated nodes (0 and 3
	// here), which own a slot nothing stages into or reads.
	isolated, err := graph.FromEdges(8, [][2]int{{1, 2}, {2, 4}, {4, 1}, {4, 5}, {5, 6}, {6, 7}, {7, 4}})
	if err != nil {
		t.Fatal(err)
	}
	algo, ref := construct.RetryMessage(3, 4), retryRef{3, 4}
	for name, g := range map[string]*graph.Graph{"torus": graph.Torus(6, 6), "star": graph.Star(9), "isolated": isolated} {
		t.Run("node-slots/"+name, func(t *testing.T) {
			in := Instance(t, g)
			plan := local.MustPlan(g)
			for _, width := range []int{1, 5, 64} {
				got := runOutcomes(width, func() ([]*local.Result, error) {
					return plan.NewBatch(width).Run(in, algo, draws[:width], local.RunOptions{})
				})
				for b := range got {
					want := runOutcomes(1, func() ([]*local.Result, error) {
						r, err := plan.Run(in, ref, &draws[b], local.RunOptions{})
						return []*local.Result{r}, err
					})[0]
					expectSameOutcome(t, fmt.Sprintf("width %d lane %d", width, b), want, got[b])
				}
			}
		})
	}
}
