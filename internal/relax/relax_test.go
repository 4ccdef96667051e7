package relax

import (
	"testing"

	"rlnc/internal/graph"
	"rlnc/internal/lang"
)

// conflictedRing returns a 3-coloring of C_n with exactly `pairs` adjacent
// equal-color pairs planted on disjoint edges, so the number of bad balls
// is exactly 2*pairs. n must be a multiple of 6.
func conflictedRing(n, pairs int) *lang.Config {
	g := graph.Cycle(n)
	y := make([][]byte, n)
	for v := 0; v < n; v++ {
		y[v] = lang.EncodeColor(v % 3) // proper on multiples of 3
	}
	for i := 0; i < pairs; i++ {
		// Overwrite node 6i+1 with the color of node 6i, creating one
		// conflicted edge; spacing 6 keeps conflicts disjoint.
		y[6*i+1] = lang.EncodeColor((6 * i) % 3)
	}
	return &lang.Config{G: g, X: lang.EmptyInputs(n), Y: lang.ColumnOf(y)}
}

func TestConflictedRingHelper(t *testing.T) {
	l := lang.ProperColoring(3)
	for pairs := 0; pairs <= 3; pairs++ {
		c := conflictedRing(36, pairs)
		if got := l.CountBadBalls(c); got != 2*pairs {
			t.Fatalf("pairs=%d: bad balls = %d, want %d", pairs, got, 2*pairs)
		}
	}
}

func TestFResilientThreshold(t *testing.T) {
	l := lang.ProperColoring(3)
	c := conflictedRing(36, 2) // 4 bad balls
	for _, tc := range []struct {
		f    int
		want bool
	}{
		{0, false}, {3, false}, {4, true}, {10, true},
	} {
		r := &FResilient{L: l, F: tc.f}
		got, err := r.Contains(c)
		if err != nil {
			t.Fatal(err)
		}
		if got != tc.want {
			t.Errorf("f=%d: Contains = %v, want %v", tc.f, got, tc.want)
		}
	}
	r := &FResilient{L: l, F: 1}
	if r.Violations(c) != 4 {
		t.Errorf("violations = %d, want 4", r.Violations(c))
	}
}

func TestFResilientZeroEqualsBase(t *testing.T) {
	l := lang.ProperColoring(3)
	r := &FResilient{L: l, F: 0}
	good := conflictedRing(36, 0)
	bad := conflictedRing(36, 1)
	if ok, _ := r.Contains(good); !ok {
		t.Error("proper coloring rejected at f=0")
	}
	if ok, _ := r.Contains(bad); ok {
		t.Error("improper coloring accepted at f=0")
	}
	// f=0 must agree with the base language.
	if okBase, _ := l.Contains(bad); okBase {
		t.Error("base language accepted improper coloring")
	}
}

func TestEpsSlackBudget(t *testing.T) {
	l := lang.ProperColoring(3)
	r := &EpsSlack{L: l, Eps: 0.1}
	if b := r.Budget(36); b != 3 {
		t.Errorf("budget(36) = %d, want 3", b)
	}
	c3 := conflictedRing(36, 1) // 2 bad balls <= 3
	if ok, _ := r.Contains(c3); !ok {
		t.Error("2 violations within budget 3 rejected")
	}
	c4 := conflictedRing(36, 2) // 4 bad balls > 3
	if ok, _ := r.Contains(c4); ok {
		t.Error("4 violations beyond budget 3 accepted")
	}
}

func TestEpsSlackScalesWithN(t *testing.T) {
	l := lang.ProperColoring(3)
	r := &EpsSlack{L: l, Eps: 0.2}
	// 4 bad balls: fails for n=18 (budget 3), passes for n=36 (budget 7).
	small := conflictedRing(18, 2)
	big := conflictedRing(36, 2)
	if ok, _ := r.Contains(small); ok {
		t.Error("slack accepted beyond budget on small ring")
	}
	if ok, _ := r.Contains(big); !ok {
		t.Error("slack rejected within budget on big ring")
	}
}

func TestPolyBudget(t *testing.T) {
	l := lang.ProperColoring(3)
	r := &PolyBudget{L: l, C: 0.5}
	if b := r.Budget(36); b != 6 {
		t.Errorf("budget(36) = %d, want 6", b)
	}
	ok6, _ := r.Contains(conflictedRing(36, 3)) // 6 bad <= 6
	ok8, _ := r.Contains(conflictedRing(36, 4)) // 8 bad > 6
	if !ok6 || ok8 {
		t.Errorf("poly budget thresholds wrong: ok6=%v ok8=%v", ok6, ok8)
	}
}

func TestNames(t *testing.T) {
	l := lang.ProperColoring(3)
	if (&FResilient{L: l, F: 2}).Name() == "" ||
		(&EpsSlack{L: l, Eps: 0.5}).Name() == "" ||
		(&PolyBudget{L: l, C: 0.5}).Name() == "" {
		t.Error("relaxation names must be non-empty")
	}
}
