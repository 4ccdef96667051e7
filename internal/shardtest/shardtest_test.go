package shardtest

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"rlnc/internal/construct"
	"rlnc/internal/graph"
	"rlnc/internal/ids"
	"rlnc/internal/lang"
	"rlnc/internal/local"
	"rlnc/internal/localrand"
)

// TestShardEquivalenceMatrix is the headline differential: the seven
// message algorithms against the six graph families, each through the
// full shard-count and cut-placement sweep. Degree-generic algorithms
// (retry coloring, Luby MIS, edge matching, Moser-Tardos) run on every
// family; the cycle-shaped ones (Cole-Vishkin, the Linial reduction,
// greedy MIS from a coloring) run where their preconditions hold. The
// full-information adapter rides along to cover the by-reference cut
// path.
func TestShardEquivalenceMatrix(t *testing.T) {
	seed := uint64(1009)
	for name, g := range Families(t) {
		in := Instance(t, g)
		generic := []Case{
			{Name: name, Algo: construct.RetryMessage(3, 4), In: in, Random: true},
			{Name: name, Algo: construct.LubyMIS{}, In: in, Random: true},
			{Name: name, Algo: construct.EdgeLubyMatching{}, In: in, Random: true},
			{Name: name, Algo: construct.MoserTardosLLL{Phases: 2}, In: in, Random: true},
		}
		for _, c := range generic {
			c := c
			t.Run(fmt.Sprintf("%s/%s", name, c.Algo.Name()), func(t *testing.T) {
				Equivalence(t, c, seed, 2)
			})
			seed++
		}
	}

	// Cycle-shaped algorithms: oriented-ring 3-coloring, the Linial
	// reduction at degree 2, and greedy MIS from a proper coloring.
	ring := Instance(t, graph.Cycle(24))
	cycleCases := []Case{
		{Name: "cycle", Algo: construct.ColeVishkin{MaxIDBits: 8}, In: ring},
		{Name: "cycle", Algo: construct.LinialReduction{MaxDegree: 2, MaxIDBits: 8, TargetColors: 3}, In: ring},
		{Name: "cycle", Algo: construct.GreedyMISFromColoring{Q: 3}, In: ColoredInstance(t, 24, 3)},
	}
	for _, c := range cycleCases {
		c := c
		t.Run(fmt.Sprintf("cycle/%s", c.Algo.Name()), func(t *testing.T) {
			Equivalence(t, c, seed, 2)
		})
		seed++
	}
}

// TestShardEquivalenceMatrixTCP reruns the seven-algorithm × six-family
// differential with the cut exchange on real loopback TCP sockets: the
// framed CutBlock codec, per-link deadlines, and the byte-stream
// transport must reproduce the unsharded engine bit for bit everywhere
// the in-process links do. This is the CI gate of the shard-transport
// job.
func TestShardEquivalenceMatrixTCP(t *testing.T) {
	seed := uint64(2003)
	for name, g := range Families(t) {
		in := Instance(t, g)
		generic := []Case{
			{Name: name, Algo: construct.RetryMessage(3, 4), In: in, Random: true},
			{Name: name, Algo: construct.LubyMIS{}, In: in, Random: true},
			{Name: name, Algo: construct.EdgeLubyMatching{}, In: in, Random: true},
			{Name: name, Algo: construct.MoserTardosLLL{Phases: 2}, In: in, Random: true},
		}
		for _, c := range generic {
			c := c
			t.Run(fmt.Sprintf("%s/%s", name, c.Algo.Name()), func(t *testing.T) {
				EquivalenceTransport(t, c, seed, 2, TCPTransport)
			})
			seed++
		}
	}
	ring := Instance(t, graph.Cycle(24))
	cycleCases := []Case{
		{Name: "cycle", Algo: construct.ColeVishkin{MaxIDBits: 8}, In: ring},
		{Name: "cycle", Algo: construct.LinialReduction{MaxDegree: 2, MaxIDBits: 8, TargetColors: 3}, In: ring},
		{Name: "cycle", Algo: construct.GreedyMISFromColoring{Q: 3}, In: ColoredInstance(t, 24, 3)},
	}
	for _, c := range cycleCases {
		c := c
		t.Run(fmt.Sprintf("cycle/%s", c.Algo.Name()), func(t *testing.T) {
			EquivalenceTransport(t, c, seed, 2, TCPTransport)
		})
		seed++
	}
}

// TestShardSlabCompaction is the memory gate of the compacted-halo
// layout: at 4 balanced shards, the average per-shard wire-slab
// footprint must be at least 40% below the full-size global-slot slabs
// every shard used to hold — on every family of the harness fixture.
// (Individual shards may come close to the full size — a star's hub
// shard reads nearly every slot — but the per-machine average is what a
// deployment provisions for.) The full-size slabs are a one-shard
// executor's: its window is the whole global edge-slot space. An
// unsharded batch is no baseline here, because a fault-free range kernel
// runs it on node slots, which no shard window takes.
func TestShardSlabCompaction(t *testing.T) {
	algo := construct.RetryMessage(3, 4)
	for name, g := range Families(t) {
		t.Run(name, func(t *testing.T) {
			plan := local.MustPlan(g)
			sh, err := plan.NewSharded(3, 4)
			if err != nil {
				t.Fatal(err)
			}
			one, err := plan.NewSharded(3, 1)
			if err != nil {
				t.Fatal(err)
			}
			full := one.ShardSlabBytes(algo)[0]
			per := sh.ShardSlabBytes(algo)
			total := 0
			for i, b := range per {
				if b > full {
					t.Errorf("shard %d slab %d B exceeds the uncompacted %d B", i, b, full)
				}
				total += b
			}
			uncompacted := len(per) * full
			t.Logf("%s: per-shard %v B, uncompacted %d B/shard (%.0f%% saved on average)",
				name, per, full, 100*(1-float64(total)/float64(uncompacted)))
			if total*100 > uncompacted*60 {
				t.Errorf("compaction saves only %.0f%%, want >= 40%%: per-shard %v vs full %d",
					100*(1-float64(total)/float64(uncompacted)), per, full)
			}
		})
	}
}

// TestShardEquivalenceQuickFuzz is the testing/quick sweep over random
// partitions of Offsets: random connected graphs, random shard counts,
// random contiguous cut placements — every draw must reproduce the
// unsharded result bit for bit.
func TestShardEquivalenceQuickFuzz(t *testing.T) {
	f := func(seed uint64, rawN, rawShards, rawCuts uint8) bool {
		n := int(rawN%24) + 4
		g, err := graph.ConnectedGNP(n, 0.25, seed)
		if err != nil {
			return true
		}
		in, err := lang.NewInstance(g, lang.EmptyInputs(n), ids.RandomPerm(n, seed))
		if err != nil {
			return false
		}
		rng := rand.New(rand.NewSource(int64(seed ^ uint64(rawCuts))))
		shards := int(rawShards)%n + 1
		part := graph.RandomPartition(n, shards, rng)

		plan := local.MustPlan(g)
		bt := plan.NewBatch(2)
		sh, err := plan.NewShardedPartition(2, part)
		if err != nil {
			return false
		}
		space := localrand.NewTapeSpace(seed)
		draws := []localrand.Draw{space.Draw(0), space.Draw(1)}
		algo := construct.RetryMessage(3, 3)
		want, err := bt.Run(in, algo, draws, local.RunOptions{})
		if err != nil {
			return false
		}
		got, err := sh.Run(in, algo, draws, local.RunOptions{})
		if err != nil {
			return false
		}
		for b := range draws {
			if want[b].Stats != got[b].Stats {
				return false
			}
			for v := range want[b].Y.Len() {
				if string(want[b].Y.At(v)) != string(got[b].Y.At(v)) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// TestShardedStatsNonTrivial guards the harness itself: a sharded run
// must actually deliver messages and execute rounds (a trivially empty
// Result matching another trivially empty Result would vacuously pass
// the matrix).
func TestShardedStatsNonTrivial(t *testing.T) {
	in := Instance(t, graph.Cycle(12))
	plan := local.MustPlan(in.G)
	sh, err := plan.NewSharded(1, 3)
	if err != nil {
		t.Fatal(err)
	}
	draws := []localrand.Draw{localrand.NewTapeSpace(3).Draw(0)}
	rs, err := sh.Run(in, construct.LubyMIS{}, draws, local.RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if rs[0].Stats.Rounds == 0 || rs[0].Stats.Messages == 0 {
		t.Fatalf("sharded run reported trivial Stats %+v", rs[0].Stats)
	}
	selected := 0
	for i := range rs[0].Y.Len() {
		y := rs[0].Y.At(i)
		sel, err := lang.DecodeSelected(y)
		if err != nil {
			t.Fatal(err)
		}
		if sel {
			selected++
		}
	}
	if selected == 0 {
		t.Error("sharded Luby MIS selected nothing")
	}
}
