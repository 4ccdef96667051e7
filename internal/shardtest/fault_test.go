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

// faultPlanFor builds the standard adversarial plan of the faulty
// differential: lossy links, one-round holds, a sprinkling of permanent
// crashes, and a round-2 surgery cut on the graph's first edge — every
// fault kind armed at once, so the sharded/unsharded comparison covers
// their interactions, not just each kind alone.
func faultPlanFor(t testing.TB, g *graph.Graph) *local.FaultPlan {
	t.Helper()
	topo, err := g.Topology()
	if err != nil {
		t.Fatal(err)
	}
	lo, hi := topo.Slots(0)
	if hi <= lo {
		t.Fatal("node 0 has no edges")
	}
	return &local.FaultPlan{
		Seed:      41,
		Drop:      0.15,
		Delay:     0.1,
		CrashP:    0.05,
		CrashFrom: 2,
		Surgery:   []local.EdgeCut{{Round: 2, U: 0, Z: int(topo.Nbrs[lo])}},
	}
}

// floodMin is the fault-tolerant companion of the faulty matrix: absent
// messages simply contribute nothing to the min, and a stale (delayed)
// min is still a valid min — the algorithm has no phase structure faults
// can break, unlike the synchronous-reliable construct algorithms, whose
// protocol invariants assume the LOCAL model's perfect delivery.
type floodMin struct{ t int }

func (f floodMin) Name() string                      { return fmt.Sprintf("flood-min(%d)", f.t) }
func (f floodMin) MsgWords(int) int                  { return 1 }
func (f floodMin) NewWireProcess() local.WireProcess { return &floodMinProc{t: f.t} }

type floodMinProc struct {
	t   int
	min int64
}

func (p *floodMinProc) Start(info local.NodeInfo, out *local.Outbox) {
	p.min = info.ID
	out.Broadcast(uint64(p.min))
}

func (p *floodMinProc) Step(round int, in *local.Inbox, out *local.Outbox) bool {
	for port := 0; port < in.Degree(); port++ {
		if w, ok := in.Word(port); ok && int64(w) < p.min {
			p.min = int64(w)
		}
	}
	if round >= p.t {
		return true
	}
	out.Broadcast(uint64(p.min))
	return false
}

func (p *floodMinProc) Output() []byte {
	out := make([]byte, 8)
	for i := 0; i < 8; i++ {
		out[i] = byte(p.min >> (8 * i))
	}
	return out
}

// TestShardEquivalenceFaulty is the faulty half of the headline
// differential: the equivalence matrix with an armed FaultPlan in the run
// options, on the two fault-tolerant algorithms — randomized retry
// coloring and deterministic flood-min. Fault decisions are
// keyed by global slot and draw seed, so every shard count and cut
// placement must reproduce the faulty unsharded batch
// lane-byte-identically.
func TestShardEquivalenceFaulty(t *testing.T) {
	seed := uint64(3001)
	for name, g := range Families(t) {
		in := Instance(t, g)
		fp := faultPlanFor(t, g)
		cases := []Case{
			{Name: name, Algo: construct.RetryMessage(3, 4), In: in, Random: true, Opts: local.RunOptions{Fault: fp}},
			{Name: name, Algo: floodMin{t: 4}, In: in, Opts: local.RunOptions{Fault: fp}},
		}
		for _, c := range cases {
			c := c
			t.Run(fmt.Sprintf("%s/%s", name, c.Algo.Name()), func(t *testing.T) {
				Equivalence(t, c, seed, 2)
			})
			seed++
		}
	}
}

// TestShardEquivalenceFaultyTCP reruns the faulty differential with the
// cut exchange on loopback TCP sockets: the fault plan crosses into the
// byte-stream path and must still reproduce the faulty unsharded engine
// bit for bit. Part of the CI shard-transport job.
func TestShardEquivalenceFaultyTCP(t *testing.T) {
	seed := uint64(4001)
	for _, name := range []string{"cycle", "connected-gnp"} {
		g := Families(t)[name]
		in := Instance(t, g)
		fp := faultPlanFor(t, g)
		cases := []Case{
			{Name: name, Algo: construct.RetryMessage(3, 4), In: in, Random: true, Opts: local.RunOptions{Fault: fp}},
			{Name: name, Algo: floodMin{t: 4}, In: in, Opts: local.RunOptions{Fault: fp}},
		}
		for _, c := range cases {
			c := c
			t.Run(fmt.Sprintf("%s/%s", name, c.Algo.Name()), func(t *testing.T) {
				EquivalenceTransport(t, c, seed, 2, TCPTransport)
			})
			seed++
		}
	}
}

// TestFaultZeroPlanMatrix pins "a zero plan is provably free" across the
// algorithm × family matrix: an all-zero FaultPlan must reproduce the
// nil-fault batched run byte-for-byte for every algorithm, randomized or
// not. (The sharded and TCP shapes inherit this through the equivalence
// matrices, which pin them against the same unsharded batch.)
func TestFaultZeroPlanMatrix(t *testing.T) {
	zero := &local.FaultPlan{Seed: 123}
	seed := uint64(5001)
	for name, g := range Families(t) {
		in := Instance(t, g)
		algos := []struct {
			algo   local.WireAlgorithm
			random bool
		}{
			{construct.RetryMessage(3, 4), true},
			{construct.LubyMIS{}, true},
			{construct.EdgeLubyMatching{}, true},
			{construct.MoserTardosLLL{Phases: 2}, true},
		}
		for _, a := range algos {
			a := a
			t.Run(fmt.Sprintf("%s/%s", name, a.algo.Name()), func(t *testing.T) {
				plan := local.MustPlan(g)
				bt := plan.NewBatch(2)
				var draws []localrand.Draw
				if a.random {
					space := localrand.NewTapeSpace(seed)
					draws = []localrand.Draw{space.Draw(0), space.Draw(1)}
				}
				want, wantErr := bt.Run(in, a.algo, draws, local.RunOptions{})
				got, gotErr := bt.Run(in, a.algo, draws, local.RunOptions{Fault: zero})
				if (wantErr == nil) != (gotErr == nil) {
					t.Fatalf("errors diverge: %v vs %v", wantErr, gotErr)
				}
				if wantErr != nil {
					return
				}
				for b := range want {
					expectSame(t, fmt.Sprintf("lane %d", b), want[b], got[b])
				}
			})
			seed++
		}
	}

	ring := Instance(t, graph.Cycle(24))
	for _, a := range []local.WireAlgorithm{
		construct.ColeVishkin{MaxIDBits: 8},
		construct.LinialReduction{MaxDegree: 2, MaxIDBits: 8, TargetColors: 3},
	} {
		a := a
		t.Run(fmt.Sprintf("cycle/%s", a.Name()), func(t *testing.T) {
			plan := local.MustPlan(ring.G)
			bt := plan.NewBatch(2)
			want, err := bt.RunInstances([]*lang.Instance{ring, ring}, a, nil, local.RunOptions{})
			if err != nil {
				t.Fatal(err)
			}
			got, err := bt.RunInstances([]*lang.Instance{ring, ring}, a, nil, local.RunOptions{Fault: zero})
			if err != nil {
				t.Fatal(err)
			}
			for b := range want {
				expectSame(t, fmt.Sprintf("lane %d", b), want[b], got[b])
			}
		})
	}
}

// TestFaultDeterminismAcrossShapes pins the fault tape's shape
// invariance directly: one faulty plan, one draw per trial, executed at
// batch widths 1, 2, and 5 and shard counts 2 and 3 — every shape must
// produce the identical per-trial outputs, because fault decisions are
// functions of (round, global slot, draw seed) alone.
func TestFaultDeterminismAcrossShapes(t *testing.T) {
	g := Families(t)["connected-gnp"]
	in := Instance(t, g)
	plan := local.MustPlan(g)
	algo := construct.RetryMessage(3, 4)
	fp := &local.FaultPlan{Seed: 77, Drop: 0.2, Delay: 0.1, CrashP: 0.08, CrashFrom: 2, CrashUntil: 4}
	const trials = 5
	space := localrand.NewTapeSpace(909)
	draws := make([]localrand.Draw, trials)
	for i := range draws {
		draws[i] = space.Draw(uint64(i))
	}

	// Reference: one width-1 Plan.Run per trial.
	want := make([]*local.Result, trials)
	for i := range draws {
		d := draws[i]
		r, err := plan.Run(in, algo, &d, local.RunOptions{Fault: fp})
		if err != nil {
			t.Fatal(err)
		}
		want[i] = r
	}

	for _, width := range []int{2, 5} {
		bt := plan.NewBatch(width)
		for lo := 0; lo < trials; lo += width {
			hi := lo + width
			if hi > trials {
				hi = trials
			}
			got, err := bt.Run(in, algo, draws[lo:hi], local.RunOptions{Fault: fp})
			if err != nil {
				t.Fatal(err)
			}
			for b, r := range got {
				expectSame(t, fmt.Sprintf("width %d trial %d", width, lo+b), want[lo+b], r)
			}
		}
	}
	for _, shards := range []int{2, 3} {
		sh, err := plan.NewSharded(trials, shards)
		if err != nil {
			t.Fatal(err)
		}
		got, err := sh.Run(in, algo, draws, local.RunOptions{Fault: fp})
		if err != nil {
			t.Fatal(err)
		}
		for b, r := range got {
			expectSame(t, fmt.Sprintf("shards %d trial %d", shards, b), want[b], r)
		}
		sh.Close()
	}
}
