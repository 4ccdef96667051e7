// Package shardtest is the differential shard-equivalence harness: it
// pins the hard contract of local.Sharded — every lane of a sharded run
// (outputs, Stats, and errors) byte-identical to the unsharded
// local.Batch at equal seeds, for every shard count and every cut
// placement — by running both sides of the differential on demand.
//
// The harness is a library (helpers taking *testing.T), so the matrix
// tests next to it and any algorithm package can reuse one assertion
// path: Equivalence sweeps shard counts {1, 2, 3, N} plus randomized cut
// placements for a (graph, algorithm, seed) triple, and the package's
// own tests wire it across all seven message algorithms and six graph
// families, with a testing/quick fuzz over random partitions of the
// topology's Offsets on top.
package shardtest

import (
	"fmt"
	"math/rand"
	"testing"

	"rlnc/internal/graph"
	"rlnc/internal/ids"
	"rlnc/internal/lang"
	"rlnc/internal/local"
	"rlnc/internal/localrand"
)

// Case is one algorithm under differential test: the instance it runs
// on (the graph carries the plan), whether it draws randomness, and any
// run options.
type Case struct {
	Name   string
	Algo   local.WireAlgorithm
	In     *lang.Instance
	Random bool
	Opts   local.RunOptions
}

// Families returns the six graph families the equivalence matrix
// sweeps — the same shapes the engine packages pin their contracts on.
func Families(t testing.TB) map[string]*graph.Graph {
	t.Helper()
	rr, err := graph.RandomRegular(48, 4, 11)
	if err != nil {
		t.Fatal(err)
	}
	gnp, err := graph.ConnectedGNP(30, 0.2, 5)
	if err != nil {
		t.Fatal(err)
	}
	return map[string]*graph.Graph{
		"cycle":          graph.Cycle(24),
		"grid":           graph.Grid(5, 5),
		"tree":           graph.CompleteTree(3, 3),
		"star":           graph.Star(9),
		"random-regular": rr,
		"connected-gnp":  gnp,
	}
}

// Instance builds the standard test instance over g: empty inputs,
// pseudorandom identity permutation.
func Instance(t testing.TB, g *graph.Graph) *lang.Instance {
	t.Helper()
	in, err := lang.NewInstance(g, lang.EmptyInputs(g.N()), ids.RandomPerm(g.N(), 99))
	if err != nil {
		t.Fatal(err)
	}
	return in
}

// ColoredInstance builds an instance over C_n carrying a proper
// q-coloring as input (n must be divisible by q) — the input shape
// GreedyMISFromColoring needs.
func ColoredInstance(t testing.TB, n, q int) *lang.Instance {
	t.Helper()
	x := make([][]byte, n)
	for v := range x {
		x[v] = lang.EncodeColor(v % q)
	}
	in, err := lang.NewInstance(graph.Cycle(n), x, ids.RandomPerm(n, 99))
	if err != nil {
		t.Fatal(err)
	}
	return in
}

// ShardCounts returns the shard counts Equivalence sweeps for an n-node
// graph: 1 (the degenerate single shard, exercising the orchestration
// alone), 2, 3, and n (every node its own shard, maximizing the cut).
func ShardCounts(n int) []int {
	counts := []int{1}
	for _, c := range []int{2, 3, n} {
		if c > 1 && c <= n {
			counts = append(counts, c)
		}
	}
	return counts
}

// Transport equips a sharded executor with a cut-exchange transport for
// one equivalence sweep and returns the cleanup to run when that
// executor is done. A nil Transport keeps the in-process channel links.
type Transport func(sh *local.Sharded) (cleanup func())

// TCPTransport is the loopback-TCP byte-stream transport: every cut pair
// becomes a real socket carrying the framed CutBlock codec, so the
// differential exercises the exact serialize → kernel → deserialize path
// a multi-machine deployment pays.
func TCPTransport(sh *local.Sharded) func() {
	sh.UseTCPLoopback()
	return func() { sh.Close() }
}

// Equivalence runs the full differential for one case: unsharded Batch
// versus Sharded at every ShardCounts entry with balanced cuts, plus
// `randomCuts` randomized partitions seeded from seed — asserting
// byte-identical Results lane for lane, across a full batch and a
// ragged tail on the same executors (back-to-back reuse included).
func Equivalence(t *testing.T, c Case, seed uint64, randomCuts int) {
	t.Helper()
	equivalence(t, c, seed, randomCuts, 0, nil)
}

// EquivalenceTransport is Equivalence over an installed transport. The
// shard sweep is capped (balanced counts up to 4, random cuts up to 6
// shards) so transports with per-link resources — one socket pair per
// directed cut — stay within sane file-descriptor budgets; the cut
// *placements* still vary adversarially.
func EquivalenceTransport(t *testing.T, c Case, seed uint64, randomCuts int, tr Transport) {
	t.Helper()
	equivalence(t, c, seed, randomCuts, 6, tr)
}

// equivalence is the shared differential core; maxShards > 0 caps the
// partition sweep for resource-bounded transports.
func equivalence(t *testing.T, c Case, seed uint64, randomCuts, maxShards int, tr Transport) {
	t.Helper()
	const width = 3
	g := c.In.G
	plan := local.MustPlan(g)
	bt := plan.NewBatch(width)
	topo, err := g.Topology()
	if err != nil {
		t.Fatal(err)
	}

	counts := ShardCounts(g.N())
	if maxShards > 0 {
		counts = nil
		for _, s := range []int{2, 3, 4} {
			if s <= g.N() && s <= maxShards {
				counts = append(counts, s)
			}
		}
	}
	parts := make(map[string]graph.Partition)
	for _, shards := range counts {
		p, err := topo.PartitionBySlots(shards)
		if err != nil {
			t.Fatal(err)
		}
		parts[fmt.Sprintf("balanced-%d", shards)] = p
	}
	rng := rand.New(rand.NewSource(int64(seed)))
	for i := 0; i < randomCuts; i++ {
		bound := g.N() - 1
		if maxShards > 0 && bound > maxShards-1 {
			bound = maxShards - 1
		}
		shards := 2 + rng.Intn(bound)
		parts[fmt.Sprintf("random-%d", i)] = graph.RandomPartition(g.N(), shards, rng)
	}

	space := localrand.NewTapeSpace(seed)
	for name, part := range parts {
		sh, err := plan.NewShardedPartition(width, part)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if tr != nil {
			if cleanup := tr(sh); cleanup != nil {
				defer cleanup()
			}
		}
		// The draw cursor restarts per partition so the (partition, draw)
		// pairing is deterministic regardless of map iteration order — a
		// reported failure reproduces under the same seed.
		lo := 0
		for rep, k := range []int{width, width - 1} {
			var draws []localrand.Draw
			if c.Random {
				draws = make([]localrand.Draw, k)
				for i := range draws {
					draws[i] = space.Draw(uint64(lo + i))
				}
			}
			var want, got []*local.Result
			var wantErr, gotErr error
			if draws != nil {
				want, wantErr = bt.Run(c.In, c.Algo, draws, c.Opts)
				got, gotErr = sh.Run(c.In, c.Algo, draws, c.Opts)
			} else {
				ins := make([]*lang.Instance, k)
				for i := range ins {
					ins[i] = c.In
				}
				want, wantErr = bt.RunInstances(ins, c.Algo, nil, c.Opts)
				got, gotErr = sh.RunInstances(ins, c.Algo, nil, c.Opts)
			}
			if (wantErr == nil) != (gotErr == nil) ||
				(wantErr != nil && wantErr.Error() != gotErr.Error()) {
				t.Fatalf("%s rep %d: sharded error %v, unsharded %v", name, rep, gotErr, wantErr)
			}
			if wantErr != nil {
				lo += k
				continue
			}
			for b := 0; b < k; b++ {
				expectSame(t, fmt.Sprintf("%s(%s) %s rep %d lane %d", c.Algo.Name(), c.Name, name, rep, b), want[b], got[b])
			}
			lo += k
		}
	}
}

// expectSame asserts byte-identical outputs and identical Stats.
func expectSame(t *testing.T, label string, want, got *local.Result) {
	t.Helper()
	if want.Stats != got.Stats {
		t.Fatalf("%s: stats %+v, want %+v", label, got.Stats, want.Stats)
	}
	if want.Y.Len() != got.Y.Len() {
		t.Fatalf("%s: %d outputs, want %d", label, got.Y.Len(), want.Y.Len())
	}
	for v := range want.Y.Len() {
		if string(want.Y.At(v)) != string(got.Y.At(v)) {
			t.Fatalf("%s: node %d output %x, want %x", label, v, got.Y.At(v), want.Y.At(v))
		}
	}
}
