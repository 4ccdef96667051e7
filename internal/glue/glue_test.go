package glue

import (
	"errors"
	"math"
	"testing"

	"rlnc/internal/graph"
	"rlnc/internal/ids"
	"rlnc/internal/lang"
	"rlnc/internal/local"
	"rlnc/internal/localrand"
)

func cycleInstance(t testing.TB, n int, startID int64) *lang.Instance {
	t.Helper()
	in, err := lang.NewInstance(graph.Cycle(n), lang.EmptyInputs(n), ids.ConsecutiveFrom(n, startID))
	if err != nil {
		t.Fatal(err)
	}
	return in
}

func TestMu(t *testing.T) {
	cases := []struct {
		p    float64
		want int
	}{
		{0.6, 6},  // 1/(2p-1) = 5 exactly; µ = ⌊5⌋+1 for strictness
		{0.75, 3}, // 1/0.5 = 2 exactly; bumped to 3
		{0.9, 2},  // 1/0.8 = 1.25 -> ⌊1.25⌋+1 = 2; 2·0.8 = 1.6 > 1
		{1.0, 2},  // ⌊1⌋+1 = 2
	}
	for _, tc := range cases {
		got, err := Mu(tc.p)
		if err != nil {
			t.Fatal(err)
		}
		if got != tc.want {
			t.Errorf("Mu(%v) = %d, want %d", tc.p, got, tc.want)
		}
		if float64(got)*(2*tc.p-1) <= 1 {
			t.Errorf("Mu(%v): µ(2p−1) = %v not > 1", tc.p, float64(got)*(2*tc.p-1))
		}
	}
	if _, err := Mu(0.5); !errors.Is(err, ErrParam) {
		t.Error("p=0.5 accepted")
	}
}

func TestNuDisjointMatchesSearch(t *testing.T) {
	for _, r := range []float64{0.5, 0.75, 0.9} {
		for _, p := range []float64{0.6, 0.75, 0.9} {
			for _, beta := range []float64{0.1, 0.25, 0.5} {
				formula, err := NuDisjoint(r, p, beta)
				if err != nil {
					t.Fatal(err)
				}
				search, err := NuDisjointSearch(r, p, beta)
				if err != nil {
					t.Fatal(err)
				}
				// Eq. (3) must satisfy the inequality; the exact search
				// can only be at most the formula value.
				if formula < search {
					t.Errorf("r=%v p=%v β=%v: formula ν=%d < minimal %d — bound violated",
						r, p, beta, formula, search)
				}
				if formula > search+1 {
					t.Errorf("r=%v p=%v β=%v: formula ν=%d loose vs minimal %d",
						r, p, beta, formula, search)
				}
				// Verify the inequality the proof of Claim 3 needs.
				if (1/p)*math.Pow(1-beta*p, float64(formula)) >= r {
					t.Errorf("r=%v p=%v β=%v: (1/p)(1−βp)^ν = %v not < r",
						r, p, beta, (1/p)*math.Pow(1-beta*p, float64(formula)))
				}
			}
		}
	}
}

func TestNuPrimeSearchSatisfiesInequality(t *testing.T) {
	for _, p := range []float64{0.6, 0.75, 0.9} {
		mu, err := Mu(p)
		if err != nil {
			t.Fatal(err)
		}
		nu, err := NuPrimeSearch(0.8, p, 0.2, mu)
		if err != nil {
			t.Fatal(err)
		}
		q := 1 - 0.2*(1-p)/float64(mu)
		if (1/p)*math.Pow(q, float64(nu)) >= 0.8 {
			t.Errorf("p=%v: ν′=%d does not satisfy the bound", p, nu)
		}
		// Minimality.
		if nu > 1 && (1/p)*math.Pow(q, float64(nu-1)) < 0.8 {
			t.Errorf("p=%v: ν′=%d not minimal", p, nu)
		}
	}
}

func TestNuPrimePaperAlwaysDegenerate(t *testing.T) {
	// The reproduction finding: the printed base is ≥ 1 for every
	// admissible parameter combination, so the closed form as printed
	// never evaluates.
	for _, p := range []float64{0.51, 0.6, 0.75, 0.9, 0.99} {
		for _, beta := range []float64{0.01, 0.25, 1.0} {
			mu, err := Mu(p)
			if err != nil {
				t.Fatal(err)
			}
			if _, ok := NuPrimePaper(0.8, p, beta, mu); ok {
				t.Errorf("p=%v β=%v µ=%d: printed formula unexpectedly well-defined", p, beta, mu)
			}
		}
	}
}

func TestNuPrimeCorrectedMatchesSearch(t *testing.T) {
	for _, p := range []float64{0.6, 0.75, 0.9} {
		for _, beta := range []float64{0.1, 0.5, 1.0} {
			mu, err := Mu(p)
			if err != nil {
				t.Fatal(err)
			}
			corrected, err := NuPrimeCorrected(0.8, p, beta, mu)
			if err != nil {
				t.Fatal(err)
			}
			search, err := NuPrimeSearch(0.8, p, beta, mu)
			if err != nil {
				t.Fatal(err)
			}
			if corrected < search || corrected > search+1 {
				t.Errorf("p=%v β=%v: corrected %d vs minimal %d", p, beta, corrected, search)
			}
			// The corrected value satisfies the proof's inequality.
			q := 1 - beta*(1-p)/float64(mu)
			if (1/p)*math.Pow(q, float64(corrected)) >= 0.8 {
				t.Errorf("p=%v β=%v: corrected ν′ fails the bound", p, beta)
			}
		}
	}
}

func TestD(t *testing.T) {
	if D(3, 1, 2) != 18 {
		t.Errorf("D(3,1,2) = %d, want 18", D(3, 1, 2))
	}
}

func TestResilientPInterval(t *testing.T) {
	lo, hi, err := ResilientPInterval(3)
	if err != nil {
		t.Fatal(err)
	}
	if !(lo < hi && lo > 0.5) {
		t.Errorf("interval (%v, %v) malformed", lo, hi)
	}
	if _, _, err := ResilientPInterval(0); err == nil {
		t.Error("f=0 accepted")
	}
}

func TestBuildDisjointUnion(t *testing.T) {
	parts := []*lang.Instance{
		cycleInstance(t, 6, 1),
		cycleInstance(t, 8, 1), // overlapping id range on purpose
		cycleInstance(t, 4, 1),
	}
	u, err := BuildDisjointUnion(parts)
	if err != nil {
		t.Fatal(err)
	}
	if u.Instance.G.N() != 18 {
		t.Fatalf("union size %d, want 18", u.Instance.G.N())
	}
	if u.Instance.G.ComponentCount() != 3 {
		t.Errorf("components = %d, want 3", u.Instance.G.ComponentCount())
	}
	if err := u.Instance.ID.Validate(); err != nil {
		t.Errorf("union ids invalid: %v", err)
	}
	// Monotone block ranges.
	firstMax := ids.Assignment(u.Instance.ID[:6]).Max()
	secondMin := ids.Assignment(u.Instance.ID[6:14]).Min()
	if secondMin <= firstMax {
		t.Errorf("block 2 ids start at %d, not above block 1 max %d", secondMin, firstMax)
	}
}

func TestBuildGluedStructure(t *testing.T) {
	parts := []*lang.Instance{
		cycleInstance(t, 8, 1),
		cycleInstance(t, 10, 1),
		cycleInstance(t, 12, 1),
	}
	anchors := []Anchor{{Node: 0, Port: 0}, {Node: 3, Port: 0}, {Node: 5, Port: 1}}
	gl, err := BuildGlued(parts, anchors)
	if err != nil {
		t.Fatal(err)
	}
	g := gl.Instance.G
	if !g.Connected() {
		t.Fatal("glued graph not connected")
	}
	// k = 3 for cycles: subdivision inserts degree-2 nodes, ring edges
	// raise v_i and w_i to 3; cycle nodes stay at 2.
	if g.MaxDegree() != 3 {
		t.Errorf("max degree = %d, want 3", g.MaxDegree())
	}
	if g.N() != 8+10+12+6 {
		t.Errorf("n = %d, want 36", g.N())
	}
	for i := range parts {
		if g.Degree(gl.V[i]) != 3 || g.Degree(gl.W[i]) != 3 {
			t.Errorf("block %d: v/w degrees %d/%d, want 3/3",
				i, g.Degree(gl.V[i]), g.Degree(gl.W[i]))
		}
		if g.Degree(gl.U[i]) != 2 {
			t.Errorf("block %d: u degree %d, want 2 (unchanged)", i, g.Degree(gl.U[i]))
		}
	}
	// Ring edges present.
	for i := range parts {
		j := (i + 1) % len(parts)
		if !g.HasEdge(gl.V[i], gl.W[j]) {
			t.Errorf("ring edge v_%d—w_%d missing", i, j)
		}
	}
	if err := gl.Instance.ID.Validate(); err != nil {
		t.Errorf("glued ids invalid: %v", err)
	}
	if len(gl.Instance.X) != g.N() {
		t.Errorf("inputs not aligned: %d vs %d", len(gl.Instance.X), g.N())
	}
}

func TestBuildGluedValidation(t *testing.T) {
	one := []*lang.Instance{cycleInstance(t, 6, 1)}
	if _, err := BuildGlued(one, []Anchor{{}}); err == nil {
		t.Error("single block accepted")
	}
	two := []*lang.Instance{cycleInstance(t, 6, 1), cycleInstance(t, 6, 1)}
	if _, err := BuildGlued(two, []Anchor{{}}); err == nil {
		t.Error("anchor count mismatch accepted")
	}
	if _, err := BuildGlued(two, []Anchor{{Node: 99}, {}}); err == nil {
		t.Error("out-of-range anchor accepted")
	}
	if _, err := BuildGlued(two, []Anchor{{Node: 0, Port: 7}, {}}); err == nil {
		t.Error("out-of-range port accepted")
	}
}

// failingRunner outputs a monochromatic coloring: always wrong for
// 3-coloring, deterministically.
type failingRunner struct{}

func (failingRunner) Name() string { return "mono" }
func (failingRunner) Run(in *lang.Instance, draw *localrand.Draw) (lang.Column, error) {
	y := make([][]byte, in.G.N())
	for v := range y {
		y[v] = lang.EncodeColor(1)
	}
	return lang.ColumnOf(y), nil
}

func TestFindHardCycleDeterministic(t *testing.T) {
	l := lang.ProperColoring(3)
	hi, err := FindHardCycle(failingRunner{}, l, 5, 100, 1.0, nil, 1, 1<<12)
	if err != nil {
		t.Fatal(err)
	}
	if hi.FailureProb.P() != 1 {
		t.Errorf("failure prob %v, want 1", hi.FailureProb.P())
	}
	if hi.Instance.ID.Min() < 100 {
		t.Errorf("id min %d below Imin", hi.Instance.ID.Min())
	}
	if hi.Instance.G.Diameter() < 5 {
		t.Errorf("diameter %d below Dmin", hi.Instance.G.Diameter())
	}
}

// perfectRunner 3-colors cycles of length divisible by 3 by position...
// it cannot exist in the LOCAL model, but as a test double it never fails
// on the searched family when n % 3 == 0; FindHardCycle must keep
// searching and eventually error out.
type perfectRunner struct{}

func (perfectRunner) Name() string { return "oracle" }
func (perfectRunner) Run(in *lang.Instance, draw *localrand.Draw) (lang.Column, error) {
	y := make([][]byte, in.G.N())
	for v := range y {
		y[v] = lang.EncodeColor(v % 2)
	}
	// Proper on even cycles; the search uses powers of two, all even.
	return lang.ColumnOf(y), nil
}

func TestFindHardCycleGivesUp(t *testing.T) {
	l := lang.ProperColoring(3)
	if _, err := FindHardCycle(perfectRunner{}, l, 4, 1, 1.0, nil, 1, 64); err == nil {
		t.Error("expected failure for an always-correct runner")
	}
}

func TestHardSequenceDisjointIDs(t *testing.T) {
	l := lang.ProperColoring(3)
	parts, evidence, err := HardSequence(failingRunner{}, l, 3, 4, 1.0, nil, 1, 1<<12)
	if err != nil {
		t.Fatal(err)
	}
	if len(parts) != 3 || len(evidence) != 3 {
		t.Fatalf("got %d parts, %d evidence", len(parts), len(evidence))
	}
	for i := 1; i < len(parts); i++ {
		if parts[i].ID.Min() <= parts[i-1].ID.Max() {
			t.Errorf("block %d ids overlap block %d", i, i-1)
		}
	}
}

func TestScatteredAnchors(t *testing.T) {
	parts := []*lang.Instance{
		cycleInstance(t, 40, 1),
		cycleInstance(t, 40, 100),
	}
	anchors, err := ScatteredAnchors(parts, 3, 1, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(anchors) != 2 {
		t.Fatalf("anchors = %d", len(anchors))
	}
	// Too-large µ on a small cycle must fail loudly.
	small := []*lang.Instance{cycleInstance(t, 8, 1), cycleInstance(t, 8, 50)}
	if _, err := ScatteredAnchors(small, 5, 2, 2, nil); err == nil {
		t.Error("expected scattered-set failure on small blocks")
	}
}

func TestBestAnchorByFarRejection(t *testing.T) {
	candidates := []int{10, 20, 30}
	probs := map[int]float64{10: 0.1, 20: 0.9, 30: 0.4}
	best := BestAnchorByFarRejection(candidates, func(u int) float64 { return probs[u] })
	if best != 1 {
		t.Errorf("best index = %d, want 1", best)
	}
}

func TestBoundHelpers(t *testing.T) {
	if b := DisjointAcceptBound(0.8, 0.5, 2); math.Abs(b-0.36) > 1e-12 {
		t.Errorf("DisjointAcceptBound = %v, want 0.36", b)
	}
	if b := GluedAcceptBound(0.8, 0.5, 5, 1); math.Abs(b-(1-0.5*0.2/5)) > 1e-12 {
		t.Errorf("GluedAcceptBound = %v", b)
	}
}

// Integration: glued hard instances drive a deterministic bad constructor
// to failure everywhere, and the LCL decider rejects.
func TestGluedHardInstanceEndToEnd(t *testing.T) {
	l := lang.ProperColoring(3)
	parts, _, err := HardSequence(failingRunner{}, l, 3, 6, 1.0, nil, 1, 1<<12)
	if err != nil {
		t.Fatal(err)
	}
	anchors, err := ScatteredAnchors(parts, 2, 1, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	gl, err := BuildGlued(parts, anchors)
	if err != nil {
		t.Fatal(err)
	}
	y, err := failingRunner{}.Run(gl.Instance, nil)
	if err != nil {
		t.Fatal(err)
	}
	cfg := &lang.Config{G: gl.Instance.G, X: gl.Instance.X, Y: y}
	ok, err := l.Contains(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Error("monochromatic coloring accepted on glued instance")
	}
	_ = local.RunView // keep the integration import honest
}
