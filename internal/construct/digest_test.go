package construct

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"testing"

	"rlnc/internal/graph"
	"rlnc/internal/ids"
	"rlnc/internal/lang"
	"rlnc/internal/local"
	"rlnc/internal/localrand"
)

// TestConstructDigests pins every message algorithm of this package to
// committed sha256 digests of its outputs and Stats on fixed instances
// and seeds. The digests were recorded while the native wire transport
// was still checked against the boxed []Message reference transport on
// the same runs, so they carry that equivalence forward: any change to
// an algorithm's outputs, round count or message count shows up here.
// Moser–Tardos and greedy MIS have no CLI sim golden, so this is their
// only end-to-end pin.
func TestConstructDigests(t *testing.T) {
	ring := func(t *testing.T, n int) *lang.Instance {
		t.Helper()
		in, err := lang.NewInstance(graph.Cycle(n), lang.EmptyInputs(n), ids.RandomPerm(n, 13))
		if err != nil {
			t.Fatal(err)
		}
		return in
	}
	regular := func(t *testing.T, n, d int) *lang.Instance {
		t.Helper()
		g, err := graph.RandomRegular(n, d, 5)
		if err != nil {
			t.Fatal(err)
		}
		in, err := lang.NewInstance(g, lang.EmptyInputs(n), ids.RandomPerm(n, 13))
		if err != nil {
			t.Fatal(err)
		}
		return in
	}
	// Greedy MIS needs a proper coloring as input: color cycle nodes by
	// index mod 3 (proper on C_9 because 9 % 3 == 0).
	colored := func(t *testing.T, n, q int) *lang.Instance {
		t.Helper()
		x := make([][]byte, n)
		for v := range x {
			x[v] = lang.EncodeColor(v % q)
		}
		in, err := lang.NewInstance(graph.Cycle(n), x, ids.RandomPerm(n, 13))
		if err != nil {
			t.Fatal(err)
		}
		return in
	}

	space := localrand.NewTapeSpace(31)
	cases := []struct {
		algo   local.WireAlgorithm
		in     *lang.Instance
		random bool
		want   string
	}{
		{retryAlgo{q: 3, t: 4}, ring(t, 30), true, "d3504ef843027fb134d48396eb0784b1193b12f895f3eaef988004afd7d2ec23"},
		{ColeVishkin{MaxIDBits: 8}, ring(t, 30), false, "759fa4fdbec8e9ee3a7c588c0f2af913674cdce1124cf06cc55bfa993e57aba6"},
		{LinialReduction{MaxDegree: 2, MaxIDBits: 8, TargetColors: 3}, ring(t, 30), false, "2c771e8596626725b4b57ec3c69d496ce127f198b947a7162c19480789a43514"},
		{GreedyMISFromColoring{Q: 3}, colored(t, 9, 3), false, "e84ff1de06891a2abb9906761cf9ecd298471cf290e191f9e4da5c2446bd214c"},
		{LubyMIS{}, regular(t, 32, 4), true, "1aac2fafbd0df6dbf5f8731118c55d21aff2ebffc278e4902ab3271aaa5535e9"},
		{EdgeLubyMatching{}, regular(t, 32, 4), true, "ec32ea7291539952a849cab3d33748d4bfb3d98bfb3f1df8e7c58d0c99d325c2"},
		{MoserTardosLLL{Phases: 3}, regular(t, 32, 4), true, "a50d830086e4642e77ee7bf7663db3f82ab61502b95edbc6b940124055322174"},
	}
	for _, tc := range cases {
		t.Run(tc.algo.Name(), func(t *testing.T) {
			h := sha256.New()
			for trial := 0; trial < 3; trial++ {
				var draw *localrand.Draw
				if tc.random {
					d := space.Draw(uint64(trial))
					draw = &d
				}
				res, err := local.RunMessage(tc.in, tc.algo, draw, local.RunOptions{})
				if err != nil {
					t.Fatal(err)
				}
				hashResult(h, res)
				if !tc.random {
					break
				}
			}
			checkDigest(t, h, tc.want)
		})
	}

	// Batched lanes of the randomized algorithms, covering the
	// [slot][lane] word layout at width > 1.
	in := regular(t, 32, 4)
	bt := local.MustPlan(in.G).NewBatch(4)
	draws := make([]localrand.Draw, 4)
	for i := range draws {
		draws[i] = space.Draw(uint64(100 + i))
	}
	for _, tc := range []struct {
		algo local.WireAlgorithm
		want string
	}{
		{LubyMIS{}, "1bb30ac52f4015eddb8bfc08f449d9b3adbff4751ab9daa34512eb492734dbae"},
		{EdgeLubyMatching{}, "791e787c2c236ae81ce7803407329b773d0414eebd965aebcd88661b1236bfe9"},
		{MoserTardosLLL{Phases: 2}, "305675b5fd5a2296cc4f2215ddaa8b5deec950f5bd70f572b41d507ee6d46b5f"},
	} {
		t.Run("batch4/"+tc.algo.Name(), func(t *testing.T) {
			lanes, err := bt.Run(in, tc.algo, draws, local.RunOptions{})
			if err != nil {
				t.Fatal(err)
			}
			h := sha256.New()
			for _, res := range lanes {
				hashResult(h, res)
			}
			checkDigest(t, h, tc.want)
		})
	}
}

// hashResult feeds one execution's Stats and length-prefixed outputs
// into h.
func hashResult(h hash.Hash, res *local.Result) {
	var buf [8]byte
	put := func(x uint64) {
		binary.LittleEndian.PutUint64(buf[:], x)
		h.Write(buf[:])
	}
	put(uint64(res.Stats.Rounds))
	put(uint64(res.Stats.Messages))
	put(uint64(res.Y.Len()))
	for v := range res.Y.Len() {
		y := res.Y.At(v)
		put(uint64(len(y)))
		h.Write(y)
	}
}

func checkDigest(t *testing.T, h hash.Hash, want string) {
	t.Helper()
	if got := hex.EncodeToString(h.Sum(nil)); got != want {
		t.Errorf("digest %s, want %s", got, want)
	}
}
