package orderinv

import (
	"testing"

	"rlnc/internal/graph"
	"rlnc/internal/ids"
	"rlnc/internal/lang"
	"rlnc/internal/local"
)

func TestRingPatternIndexBijective(t *testing.T) {
	// The six orderings of three distinct identities map to six distinct
	// indices in [0, 6).
	triples := [][3]int64{
		{1, 2, 3}, {1, 3, 2}, {2, 1, 3}, {2, 3, 1}, {3, 1, 2}, {3, 2, 1},
	}
	seen := make(map[int]bool)
	for _, tr := range triples {
		idx := ringPatternIndex(tr[0], tr[1], tr[2])
		if idx < 0 || idx >= ringPatternCount {
			t.Fatalf("index %d out of range for %v", idx, tr)
		}
		if seen[idx] {
			t.Fatalf("index %d repeated at %v", idx, tr)
		}
		seen[idx] = true
	}
}

func TestRingPatternIndexOrderInvariant(t *testing.T) {
	// Scaling identities preserves the index.
	for _, tr := range [][3]int64{{5, 9, 2}, {7, 1, 8}, {3, 6, 4}} {
		a := ringPatternIndex(tr[0], tr[1], tr[2])
		b := ringPatternIndex(tr[0]*100, tr[1]*100, tr[2]*100)
		if a != b {
			t.Errorf("pattern index changed under scaling: %v", tr)
		}
	}
}

func TestEnumerateRingAlgorithmsCount(t *testing.T) {
	if got := len(EnumerateRingAlgorithms(3)); got != 729 {
		t.Errorf("3^6 = %d, want 729", got)
	}
	if got := len(EnumerateRingAlgorithms(2)); got != 64 {
		t.Errorf("2^6 = %d, want 64", got)
	}
	// Tables are pairwise distinct.
	seen := make(map[[6]int]bool)
	for _, a := range EnumerateRingAlgorithms(2) {
		if seen[a.Table] {
			t.Fatal("duplicate table enumerated")
		}
		seen[a.Table] = true
	}
}

func TestRingTableAlgorithmIsOrderInvariant(t *testing.T) {
	algo := RingTableAlgorithm{Table: [6]int{0, 1, 2, 0, 1, 2}, Q: 3}
	if err := CheckInvarianceRandom(algo, graph.Cycle(9), 4, 11); err != nil {
		t.Errorf("table algorithm not order-invariant: %v", err)
	}
}

func TestVerifyClaim2Radius1(t *testing.T) {
	rep, err := VerifyClaim2Radius1(3, 8)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Algorithms != 729 || rep.Failures != 729 {
		t.Errorf("failures %d/%d, want 729/729", rep.Failures, rep.Algorithms)
	}
	// The Section 4 argument predicts counterexamples on tiny cycles:
	// everything should fail by C_4 at the latest (consecutive identities
	// give adjacent interior nodes the same pattern).
	for n := range rep.BySize {
		if n > 4 {
			t.Errorf("counterexample needed a cycle of length %d > 4", n)
		}
	}
}

func TestConsecutiveInteriorPatternCollision(t *testing.T) {
	// The engine of the Section 4 argument, pinned directly: on C_4 with
	// consecutive identities, the two interior nodes share the order
	// pattern, hence any table algorithm colors them equally — and they
	// are adjacent.
	g := graph.Cycle(4)
	in := &lang.Instance{G: g, X: lang.EmptyInputs(4), ID: ids.Consecutive(4)}
	pattern := local.RunView(in, local.ViewFunc{AlgoName: "ring-pattern", R: 1, F: func(v *local.View) []byte {
		nb := v.Ball.G.Neighbors(0)
		return []byte{byte(ringPatternIndex(v.IDs[0], v.IDs[nb[0]], v.IDs[nb[1]]))}
	}}, nil)
	if p1, p2 := pattern.At(1)[0], pattern.At(2)[0]; p1 != p2 {
		t.Fatalf("interior patterns differ: %d vs %d", p1, p2)
	}
	if !g.HasEdge(1, 2) {
		t.Fatal("fixture: nodes 1 and 2 must be adjacent")
	}
}

func TestFindRingCounterexampleOnCorrectAlgorithmFamily(t *testing.T) {
	// Sanity check of the searcher itself: an algorithm that is proper on
	// C_3 with any identities (all patterns distinct on a triangle ball:
	// color by center rank) still fails on larger consecutive cycles.
	algo := RingTableAlgorithm{Table: [6]int{0, 0, 1, 1, 2, 2}, Q: 3} // color = center rank
	ce, found := FindRingCounterexample(algo, 3, 8)
	if !found {
		t.Fatal("rank coloring should fail somewhere")
	}
	if ce.N < 3 {
		t.Fatalf("bad counterexample %+v", ce)
	}
}
