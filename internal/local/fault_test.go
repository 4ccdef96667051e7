package local

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"testing"

	"rlnc/internal/graph"
	"rlnc/internal/lang"
	"rlnc/internal/localrand"
)

// resultsEqual asserts two results are byte-identical (outputs and stats).
func resultsEqual(t *testing.T, label string, a, b *Result) {
	t.Helper()
	if a.Stats != b.Stats {
		t.Errorf("%s: stats %+v vs %+v", label, a.Stats, b.Stats)
	}
	for v := range a.Y.Len() {
		if !bytes.Equal(a.Y.At(v), b.Y.At(v)) {
			t.Errorf("%s: node %d outputs differ: %x vs %x", label, v, a.Y.At(v), b.Y.At(v))
		}
	}
}

// TestFaultZeroPlanFree pins the "zero plan is provably free" contract: a
// nil Fault, an all-zero FaultPlan through RunOptions, and an all-zero
// default through SetFault must all reproduce the unperturbed run
// byte-for-byte.
func TestFaultZeroPlanFree(t *testing.T) {
	g := graph.Petersen()
	in := mustInstance(t, g)
	plan := MustPlan(g)
	algo := floodMin{t: 4}

	base, err := plan.Run(in, algo, nil, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	viaOpts, err := plan.Run(in, algo, nil, RunOptions{Fault: &FaultPlan{Seed: 99}})
	if err != nil {
		t.Fatal(err)
	}
	resultsEqual(t, "zero plan via RunOptions", base, viaOpts)

	e := plan.NewBatch(1)
	e.SetFault(&FaultPlan{Seed: 7})
	viaDefault, err := runLane(e, in, algo, nil, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	resultsEqual(t, "zero plan via SetFault", base, viaDefault)
}

// TestFaultDropAllSilencesNetwork checks Drop = 1: every delivery is lost,
// so no message is ever counted and flood-min outputs degenerate to each
// node's own identity.
func TestFaultDropAllSilencesNetwork(t *testing.T) {
	g := graph.Path(10)
	in := mustInstance(t, g)
	res, err := MustPlan(g).Run(in, floodMin{t: 3}, nil, RunOptions{
		Fault: &FaultPlan{Seed: 1, Drop: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Messages != 0 {
		t.Errorf("messages = %d, want 0 under full drop", res.Stats.Messages)
	}
	for v := range res.Y.Len() {
		if !bytes.Equal(res.Y.At(v), encode64(in.ID[v])) {
			t.Errorf("node %d: output %x, want own id", v, res.Y.At(v))
		}
	}
}

// TestFaultDropDeterministic pins the fault tape: equal seeds reproduce the
// faulty run exactly, distinct seeds give an independent loss pattern.
func TestFaultDropDeterministic(t *testing.T) {
	g, err := graph.ConnectedGNP(40, 0.15, 4)
	if err != nil {
		t.Fatal(err)
	}
	in := mustInstance(t, g)
	plan := MustPlan(g)
	run := func(seed uint64) *Result {
		r, err := plan.Run(in, floodMin{t: 5}, nil, RunOptions{
			Fault: &FaultPlan{Seed: seed, Drop: 0.3},
		})
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	a, b := run(11), run(11)
	resultsEqual(t, "same fault seed", a, b)
	base := run(0)
	other := run(12345)
	if other.Stats.Messages == a.Stats.Messages && base.Stats.Messages == a.Stats.Messages {
		t.Error("distinct fault seeds produced identical delivery counts; tape looks constant")
	}
}

// TestFaultEngineBatchIdentical runs one faulty plan through a width-1
// Batch and a width-3 Batch (distinct draws per lane) and demands
// lane-byte-identical outputs: fault decisions are keyed by draw seed, not
// lane position, so batch width cannot perturb them.
func TestFaultEngineBatchIdentical(t *testing.T) {
	g := graph.Cycle(16)
	in := mustInstance(t, g)
	plan := MustPlan(g)
	algo := floodMin{t: 4}
	fp := &FaultPlan{Seed: 21, Drop: 0.25, Delay: 0.2}
	space := localrand.NewTapeSpace(77)
	const k = 3
	draws := make([]localrand.Draw, k)
	for i := range draws {
		draws[i] = space.Draw(uint64(i))
	}

	bt := plan.NewBatch(k)
	batched, err := bt.Run(in, algo, draws, RunOptions{Fault: fp})
	if err != nil {
		t.Fatal(err)
	}
	one := plan.NewBatch(1)
	for b := 0; b < k; b++ {
		d := draws[b]
		single, err := runLane(one, in, algo, &d, RunOptions{Fault: fp})
		if err != nil {
			t.Fatal(err)
		}
		resultsEqual(t, fmt.Sprintf("lane %d", b), single, batched[b])
	}
}

// TestFaultCrashPermanentFinalizes crashes every node at round 1 with no
// recovery: the engine must finalize the crashed nodes with their frozen
// outputs instead of spinning to ErrNoHalt, even though the algorithm's
// own halting round is far beyond the budget.
func TestFaultCrashPermanentFinalizes(t *testing.T) {
	g := graph.Cycle(8)
	in := mustInstance(t, g)
	res, err := MustPlan(g).Run(in, floodMin{t: 100}, nil, RunOptions{
		MaxRounds: 50,
		Fault:     &FaultPlan{Seed: 3, CrashP: 1, CrashFrom: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Rounds != 1 {
		t.Errorf("rounds = %d, want 1 when every node crashes at round 1", res.Stats.Rounds)
	}
	for v := range res.Y.Len() {
		if !bytes.Equal(res.Y.At(v), encode64(in.ID[v])) {
			t.Errorf("node %d: frozen output %x, want own id", v, res.Y.At(v))
		}
	}
}

// TestFaultCrashRecovery pins the crash window arithmetic. All nodes are
// down exactly at round 2 (CrashFrom 2, CrashUntil 3) of a 4-round
// flood-min: messages staged into the dead round are lost and the down
// round stages nothing, so information makes exactly 2 hops (rounds 1 and
// 4) instead of 4 — the run must equal the radius-2 view computation.
func TestFaultCrashRecovery(t *testing.T) {
	g := graph.Path(10)
	in := mustInstance(t, g)
	res, err := MustPlan(g).Run(in, floodMin{t: 4}, nil, RunOptions{
		Fault: &FaultPlan{Seed: 5, CrashP: 1, CrashFrom: 2, CrashUntil: 3},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Rounds != 4 {
		t.Errorf("rounds = %d, want 4 (recovered nodes must resume)", res.Stats.Rounds)
	}
	want := RunView(in, minIDView{t: 2}, nil)
	for v := range res.Y.Len() {
		if !bytes.Equal(res.Y.At(v), want.At(v)) {
			t.Errorf("node %d: output %x, want radius-2 min %x", v, res.Y.At(v), want.At(v))
		}
	}
}

// TestFaultDelayHoldsOneRound uses a one-shot sender under Delay = 1: the
// round-1 message is held, and on every later round the restored message is
// re-delayed (the delay draw applies to restored deliveries too), so a
// permanent full delay silences the network exactly like a full drop.
func TestFaultDelayHoldsOneRound(t *testing.T) {
	g := graph.Path(6)
	in := mustInstance(t, g)
	res, err := MustPlan(g).Run(in, floodMin{t: 3}, nil, RunOptions{
		Fault: &FaultPlan{Seed: 9, Delay: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Messages != 0 {
		t.Errorf("messages = %d, want 0 under permanent delay", res.Stats.Messages)
	}
	for v := range res.Y.Len() {
		if !bytes.Equal(res.Y.At(v), encode64(in.ID[v])) {
			t.Errorf("node %d: output %x, want own id", v, res.Y.At(v))
		}
	}
}

// TestFaultDelayPartial checks that a partial delay plan is deterministic
// and actually perturbs delivery timing relative to the fault-free run
// without losing the run's determinism across repeats.
func TestFaultDelayPartial(t *testing.T) {
	g, err := graph.ConnectedGNP(30, 0.2, 8)
	if err != nil {
		t.Fatal(err)
	}
	in := mustInstance(t, g)
	plan := MustPlan(g)
	run := func() *Result {
		r, err := plan.Run(in, floodMin{t: 5}, nil, RunOptions{
			Fault: &FaultPlan{Seed: 13, Delay: 0.5},
		})
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	a, b := run(), run()
	resultsEqual(t, "delayed run repeat", a, b)
	base, err := plan.Run(in, floodMin{t: 5}, nil, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if base.Stats.Messages == a.Stats.Messages {
		t.Error("delay plan left the delivery count untouched; holds look inert")
	}
}

// TestFaultSurgeryCutsEdge severs the middle edge of a 3-path. Cut from
// round 1, the two sides never exchange anything; cut from round 2, exactly
// one exchange happens first.
func TestFaultSurgeryCutsEdge(t *testing.T) {
	g := graph.Path(3)
	in := mustInstance(t, g)
	plan := MustPlan(g)
	id := func(v int) int64 { return in.ID[v] }
	min2 := func(a, b int64) int64 {
		if a < b {
			return a
		}
		return b
	}

	res, err := plan.Run(in, floodMin{t: 5}, nil, RunOptions{
		Fault: &FaultPlan{Surgery: []EdgeCut{{Round: 1, U: 1, Z: 2}}},
	})
	if err != nil {
		t.Fatal(err)
	}
	wantEarly := []int64{min2(id(0), id(1)), min2(id(0), id(1)), id(2)}
	for v, w := range wantEarly {
		if !bytes.Equal(res.Y.At(v), encode64(w)) {
			t.Errorf("round-1 cut, node %d: got %x want %x", v, res.Y.At(v), encode64(w))
		}
	}

	res, err = plan.Run(in, floodMin{t: 5}, nil, RunOptions{
		Fault: &FaultPlan{Surgery: []EdgeCut{{Round: 2, U: 2, Z: 1}}},
	})
	if err != nil {
		t.Fatal(err)
	}
	all := min2(min2(id(0), id(1)), id(2))
	wantLate := []int64{all, all, min2(id(1), id(2))}
	for v, w := range wantLate {
		if !bytes.Equal(res.Y.At(v), encode64(w)) {
			t.Errorf("round-2 cut, node %d: got %x want %x", v, res.Y.At(v), encode64(w))
		}
	}
}

// TestCutForSubdivision pins the surgery helper as the first real consumer
// of graph.SubdivideTwice: it must return both the engine-side EdgeCut and
// the structurally subdivided graph (two fresh degree-2 relays replacing
// the direct edge), and reject non-edges.
func TestCutForSubdivision(t *testing.T) {
	g := graph.Cycle(6)
	cut, res, err := CutForSubdivision(g, 1, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if cut != (EdgeCut{Round: 1, U: 0, Z: 1}) {
		t.Errorf("cut = %+v", cut)
	}
	if res.G.N() != g.N()+2 {
		t.Errorf("subdivided graph has %d nodes, want %d", res.G.N(), g.N()+2)
	}
	if res.G.Degree(res.VNode) != 2 || res.G.Degree(res.WNode) != 2 {
		t.Errorf("relay degrees %d/%d, want 2/2", res.G.Degree(res.VNode), res.G.Degree(res.WNode))
	}
	if _, _, err := CutForSubdivision(g, 1, 0, 3); err == nil {
		t.Error("subdividing a non-edge succeeded")
	}

	// The engine-side cut and the offline subdivision must agree: running
	// flood-min on the cycle with the cut severed from round 1 equals
	// computing connectivity without that edge (a 6-path's propagation).
	in := mustInstance(t, g)
	withCut, err := MustPlan(g).Run(in, floodMin{t: 2}, nil, RunOptions{
		Fault: &FaultPlan{Surgery: []EdgeCut{cut}},
	})
	if err != nil {
		t.Fatal(err)
	}
	for v := range withCut.Y.Len() {
		want := in.ID[v]
		nodes, _ := g.NodesWithin(v, 2)
		for _, u := range nodes {
			// Distance through the severed edge no longer counts: recompute
			// radius-2 reachability on the path 1-2-3-4-5-0.
			if pathDist(v, u) <= 2 && in.ID[u] < want {
				want = in.ID[u]
			}
		}
		if got := int64(binary.LittleEndian.Uint64(withCut.Y.At(v))); got != want {
			t.Errorf("node %d: min %d, want %d", v, got, want)
		}
	}
}

// pathDist is the hop distance on the 6-cycle with edge {0,1} removed,
// i.e. the path 1-2-3-4-5-0.
func pathDist(a, b int) int {
	pos := map[int]int{1: 0, 2: 1, 3: 2, 4: 3, 5: 4, 0: 5}
	d := pos[a] - pos[b]
	if d < 0 {
		d = -d
	}
	return d
}

// TestFaultRemoteShardedMatchesBatch drives one faulty plan through the
// shard-worker protocol: the plan crosses the process boundary as flat
// runSpec fields, the workers rebuild identical fault state from the
// shipped draw seeds, and every lane must reproduce the faulty unsharded
// batch byte for byte — with and without randomness.
func TestFaultRemoteShardedMatchesBatch(t *testing.T) {
	const width = 3
	g := graph.Grid(5, 5)
	in := mustInstance(t, g)
	plan := MustPlan(g)
	algo := floodMin{t: 4}
	fp := &FaultPlan{
		Seed: 61, Drop: 0.2, Delay: 0.1, CrashP: 0.1, CrashFrom: 2, CrashUntil: 3,
		Surgery: []EdgeCut{{Round: 2, U: 0, Z: 1}},
	}
	pool := startWorkerPool(t, 3)
	bt := plan.NewBatch(width)
	sh, err := plan.NewShardedRemote(width, pool)
	if err != nil {
		t.Fatal(err)
	}
	defer sh.Close()
	space := localrand.NewTapeSpace(303)
	for rep, draws := range [][]localrand.Draw{
		{space.Draw(0), space.Draw(1), space.Draw(2)},
		nil, // deterministic lanes: fault identities fall back to 0
	} {
		k := width
		var want, got []*Result
		var wantErr, gotErr error
		if draws != nil {
			want, wantErr = bt.Run(in, algo, draws, RunOptions{Fault: fp})
			got, gotErr = sh.Run(in, algo, draws, RunOptions{Fault: fp})
		} else {
			ins := []*lang.Instance{in, in, in}
			want, wantErr = bt.RunInstances(ins, algo, nil, RunOptions{Fault: fp})
			got, gotErr = sh.RunInstances(ins, algo, nil, RunOptions{Fault: fp})
		}
		if wantErr != nil || gotErr != nil {
			t.Fatalf("rep %d: errors %v / %v", rep, wantErr, gotErr)
		}
		for b := 0; b < k; b++ {
			resultsEqual(t, fmt.Sprintf("remote rep %d lane %d", rep, b), want[b], got[b])
		}
	}
}

// TestFaultShardedMatchesBatch runs one faulty plan unsharded and across
// every in-process shard count, demanding lane-byte-identical results —
// the tentpole contract that fault decisions are shape-invariant.
func TestFaultShardedMatchesBatch(t *testing.T) {
	g, err := graph.ConnectedGNP(36, 0.18, 2)
	if err != nil {
		t.Fatal(err)
	}
	in := mustInstance(t, g)
	plan := MustPlan(g)
	fp := &FaultPlan{Seed: 31, Drop: 0.2, Delay: 0.15, CrashP: 0.1, CrashFrom: 2}
	space := localrand.NewTapeSpace(5)
	const k = 3
	draws := make([]localrand.Draw, k)
	for i := range draws {
		draws[i] = space.Draw(uint64(i))
	}
	algo := floodMin{t: 5}
	want, err := plan.NewBatch(k).Run(in, algo, draws, RunOptions{Fault: fp})
	if err != nil {
		t.Fatal(err)
	}
	for _, shards := range []int{2, 3, 4} {
		s, err := plan.NewSharded(k, shards)
		if err != nil {
			t.Fatal(err)
		}
		got, err := s.Run(in, algo, draws, RunOptions{Fault: fp})
		if err != nil {
			t.Fatalf("%s shards=%d: %v", algo.Name(), shards, err)
		}
		for b := 0; b < k; b++ {
			resultsEqual(t, fmt.Sprintf("%s shards=%d lane=%d", algo.Name(), shards, b), want[b], got[b])
		}
		s.Close()
	}
}
