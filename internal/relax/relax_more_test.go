package relax

import (
	"testing"

	"rlnc/internal/graph"
	"rlnc/internal/lang"
)

func TestViolationsAccessors(t *testing.T) {
	l := lang.ProperColoring(3)
	c := conflictedRing(36, 2) // 4 bad balls
	if got := (&EpsSlack{L: l, Eps: 0.5}).Violations(c); got != 4 {
		t.Errorf("EpsSlack.Violations = %d, want 4", got)
	}
	if got := (&PolyBudget{L: l, C: 0.5}).Violations(c); got != 4 {
		t.Errorf("PolyBudget.Violations = %d, want 4", got)
	}
}

func TestRelaxationsRejectMalformedConfigs(t *testing.T) {
	l := lang.ProperColoring(3)
	bad := &lang.Config{G: graph.Path(3), X: lang.EmptyInputs(2), Y: lang.ColumnOf(lang.EmptyInputs(3))}
	if _, err := (&FResilient{L: l, F: 1}).Contains(bad); err == nil {
		t.Error("FResilient accepted malformed config")
	}
	if _, err := (&EpsSlack{L: l, Eps: 0.1}).Contains(bad); err == nil {
		t.Error("EpsSlack accepted malformed config")
	}
	if _, err := (&PolyBudget{L: l, C: 0.5}).Contains(bad); err == nil {
		t.Error("PolyBudget accepted malformed config")
	}
}

func TestEpsSlackExtremes(t *testing.T) {
	l := lang.ProperColoring(3)
	mono := conflictedRing(36, 0)
	// Every config within budget at ε = 1.
	full := &EpsSlack{L: l, Eps: 1.0}
	if ok, _ := full.Contains(mono); !ok {
		t.Error("ε=1 rejected a proper coloring")
	}
	allBad := &lang.Config{G: graph.Cycle(36), X: lang.EmptyInputs(36), Y: lang.ColumnOf(monoColors(36))}
	if ok, _ := full.Contains(allBad); !ok {
		t.Error("ε=1 must accept even the monochromatic coloring")
	}
	// ε = 0 equals the base language.
	zero := &EpsSlack{L: l, Eps: 0}
	if ok, _ := zero.Contains(allBad); ok {
		t.Error("ε=0 accepted a monochromatic coloring")
	}
	if ok, _ := zero.Contains(mono); !ok {
		t.Error("ε=0 rejected a proper coloring")
	}
}

func monoColors(n int) [][]byte {
	y := make([][]byte, n)
	for v := range y {
		y[v] = lang.EncodeColor(1)
	}
	return y
}

func TestPolyBudgetGrowth(t *testing.T) {
	l := lang.ProperColoring(3)
	r := &PolyBudget{L: l, C: 0.5}
	prev := 0
	for _, n := range []int{16, 64, 256, 1024} {
		b := r.Budget(n)
		if b < prev {
			t.Errorf("budget decreased: %d -> %d at n=%d", prev, b, n)
		}
		if b >= n {
			t.Errorf("sublinear budget %d >= n %d", b, n)
		}
		prev = b
	}
}
