package decide

import (
	"fmt"
	"math"
	"testing"

	"rlnc/internal/graph"
	"rlnc/internal/ids"
	"rlnc/internal/lang"
	"rlnc/internal/local"
	"rlnc/internal/localrand"
)

// verdicts, accepts and acceptsFarFrom evaluate one (instance, draw)
// pair on the handle x: the one-lane form of the Exec verbs (a nil draw
// for deterministic deciders).
func verdicts(x Exec, di *lang.DecisionInstance, d Decider, draw *localrand.Draw) []bool {
	return x.Verdicts([]*lang.DecisionInstance{di}, d, oneLane(draw))[0]
}

func accepts(x Exec, di *lang.DecisionInstance, d Decider, draw *localrand.Draw) bool {
	return x.Accepts([]*lang.DecisionInstance{di}, d, oneLane(draw))[0]
}

func acceptsFarFrom(x Exec, di *lang.DecisionInstance, d Decider, draw *localrand.Draw, u, far int) bool {
	return x.AcceptsFarFrom([]*lang.DecisionInstance{di}, d, oneLane(draw), u, far)[0]
}

func oneLane(draw *localrand.Draw) []localrand.Draw {
	if draw == nil {
		return nil
	}
	return []localrand.Draw{*draw}
}

// selInstance builds a decision instance with the given selected set.
func selInstance(t testing.TB, g *graph.Graph, selected ...int) *lang.DecisionInstance {
	t.Helper()
	y := make([][]byte, g.N())
	for v := range y {
		y[v] = lang.EncodeSelected(false)
	}
	for _, v := range selected {
		y[v] = lang.EncodeSelected(true)
	}
	return &lang.DecisionInstance{G: g, X: lang.EmptyInputs(g.N()), Y: lang.ColumnOf(y), ID: ids.Consecutive(g.N())}
}

// coloringInstance builds a decision instance carrying a coloring.
func coloringInstance(t testing.TB, g *graph.Graph, colors ...int) *lang.DecisionInstance {
	t.Helper()
	y := make([][]byte, g.N())
	for v, c := range colors {
		y[v] = lang.EncodeColor(c)
	}
	return &lang.DecisionInstance{G: g, X: lang.EmptyInputs(g.N()), Y: lang.ColumnOf(y), ID: ids.Consecutive(g.N())}
}

func TestLCLDeciderMatchesLanguage(t *testing.T) {
	l := lang.ProperColoring(3)
	d := &LCLDecider{L: l}
	cases := []struct {
		di   *lang.DecisionInstance
		want bool
	}{
		{coloringInstance(t, graph.Cycle(6), 0, 1, 0, 1, 0, 1), true},
		{coloringInstance(t, graph.Cycle(6), 0, 0, 1, 0, 1, 2), false},
		{coloringInstance(t, graph.Path(4), 0, 1, 2, 0), true},
		{coloringInstance(t, graph.Path(4), 0, 0, 0, 0), false},
	}
	for i, tc := range cases {
		inLang, err := l.Contains(tc.di.Config())
		if err != nil {
			t.Fatal(err)
		}
		if inLang != tc.want {
			t.Fatalf("case %d: fixture mislabeled", i)
		}
		if got := accepts(Exec{}, tc.di, d, nil); got != tc.want {
			t.Errorf("case %d: Accepts = %v, want %v", i, got, tc.want)
		}
	}
}

func TestLCLDeciderRejectSet(t *testing.T) {
	l := lang.ProperColoring(3)
	d := &LCLDecider{L: l}
	di := coloringInstance(t, graph.Cycle(6), 0, 0, 1, 0, 1, 2)
	rs := RejectSet(di, d, nil)
	if len(rs) != 2 || rs[0] != 0 || rs[1] != 1 {
		t.Errorf("reject set = %v, want [0 1]", rs)
	}
}

func TestGoldenP(t *testing.T) {
	// p² = 1 − p characterizes the golden guarantee.
	if math.Abs(GoldenP*GoldenP-(1-GoldenP)) > 1e-12 {
		t.Errorf("GoldenP = %v does not satisfy p² = 1-p", GoldenP)
	}
	d := NewAMOSDecider()
	if math.Abs(d.Guarantee()-GoldenP) > 1e-12 {
		t.Errorf("guarantee %v, want %v", d.Guarantee(), GoldenP)
	}
}

func TestAMOSDeciderAcceptProbabilities(t *testing.T) {
	// Pr[all accept] = p^s for s selected nodes.
	g := graph.Cycle(24)
	space := localrand.NewTapeSpace(42)
	const trials = 40000
	for _, s := range []int{0, 1, 2, 4} {
		sel := make([]int, s)
		for i := range sel {
			sel[i] = i * 5
		}
		di := selInstance(t, g, sel...)
		est := AcceptProbability(di, NewAMOSDecider(), space, trials)
		want := math.Pow(GoldenP, float64(s))
		lo, hi := est.Wilson(3.3)
		if want < lo || want > hi {
			t.Errorf("s=%d: empirical %v not covering analytic %.4f", s, est, want)
		}
	}
}

func TestAMOSDeciderGuaranteeOverCorpus(t *testing.T) {
	g := graph.Path(16)
	amos := lang.AMOS{}
	var corpus []*LabeledInstance
	for _, sel := range [][]int{{}, {3}, {0, 15}, {2, 8, 14}} {
		li, err := Labeled(selInstance(t, g, sel...), amos, fmt.Sprintf("%d selected", len(sel)))
		if err != nil {
			t.Fatal(err)
		}
		corpus = append(corpus, li)
	}
	rep := EstimateGuarantee(corpus, NewAMOSDecider(), localrand.NewTapeSpace(7), 20000)
	if rep.Min.P() <= 0.5 {
		t.Errorf("estimated guarantee %v <= 1/2", rep.Min)
	}
	// The binding constraint is the single-selected instance at p ≈ 0.618.
	lo, hi := rep.Min.Wilson(3.3)
	if GoldenP < lo-0.01 || GoldenP > hi+0.01 {
		t.Errorf("guarantee %v far from golden ratio", rep.Min)
	}
}

func TestBrokenAMOSDeciderFlagged(t *testing.T) {
	// A selected-acceptance probability of 0.3 gives guarantee 0.3 < 1/2
	// on single-selected instances; the estimator must expose it.
	g := graph.Path(12)
	li, err := Labeled(selInstance(t, g, 4), lang.AMOS{}, "one selected")
	if err != nil {
		t.Fatal(err)
	}
	rep := EstimateGuarantee([]*LabeledInstance{li}, &LCLDecider{L: lang.NoneSelected(), F: 1, P: 0.3}, localrand.NewTapeSpace(9), 20000)
	if rep.Min.P() > 0.4 {
		t.Errorf("broken decider not flagged: %v", rep.Min)
	}
}

func TestResilientPInterval(t *testing.T) {
	for f := 1; f <= 12; f++ {
		p := ResilientP(f)
		lo := math.Exp2(-1 / float64(f))
		hi := math.Exp2(-1 / float64(f+1))
		if !(lo < p && p < hi) {
			t.Errorf("f=%d: p=%v outside (%v, %v)", f, p, lo, hi)
		}
		// The two Corollary 1 inequalities.
		if math.Pow(p, float64(f)) <= 0.5 {
			t.Errorf("f=%d: p^f = %v <= 1/2", f, math.Pow(p, float64(f)))
		}
		if 1-math.Pow(p, float64(f+1)) <= 0.5 {
			t.Errorf("f=%d: 1-p^{f+1} = %v <= 1/2", f, 1-math.Pow(p, float64(f+1)))
		}
	}
}

func TestResilientPPanicsOnZero(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic for f=0")
		}
	}()
	ResilientP(0)
}

// plantBadBalls returns a C_n coloring with exactly 2*pairs bad balls.
func plantBadBalls(t testing.TB, n, pairs int) *lang.DecisionInstance {
	t.Helper()
	colors := make([]int, n)
	for v := range colors {
		colors[v] = v % 3
	}
	for i := 0; i < pairs; i++ {
		colors[6*i+1] = colors[6*i]
	}
	return coloringInstance(t, graph.Cycle(n), colors...)
}

func TestResilientDeciderAcceptProbability(t *testing.T) {
	l := lang.ProperColoring(3)
	space := localrand.NewTapeSpace(5)
	const trials = 30000
	for _, tc := range []struct {
		f     int
		pairs int
	}{
		{2, 0}, {2, 1}, {2, 2}, {4, 1}, {4, 3},
	} {
		d := NewResilientDecider(l, tc.f)
		di := plantBadBalls(t, 36, tc.pairs)
		bad := l.CountBadBalls(di.Config())
		if bad != 2*tc.pairs {
			t.Fatalf("fixture: %d bad balls, want %d", bad, 2*tc.pairs)
		}
		est := AcceptProbability(di, d, space, trials)
		want := math.Pow(d.P, float64(bad))
		lo, hi := est.Wilson(3.3)
		if want < lo || want > hi {
			t.Errorf("f=%d |F|=%d: empirical %v vs analytic %.4f", tc.f, bad, est, want)
		}
	}
}

func TestResilientDeciderGuaranteeAboveHalf(t *testing.T) {
	l := lang.ProperColoring(3)
	for f := 1; f <= 8; f *= 2 {
		d := NewResilientDecider(l, f)
		if d.Guarantee() <= 0.5 {
			t.Errorf("f=%d: guarantee %v <= 1/2", f, d.Guarantee())
		}
	}
}

func TestSlackNodeAwareDecider(t *testing.T) {
	l := lang.ProperColoring(3)
	d := NewSlackNodeAwareDecider(l, 0.1, 60)
	if d.F != 6 {
		t.Errorf("budget = %d, want 6", d.F)
	}
	if d.Guarantee() <= 0.5 {
		t.Errorf("guarantee %v <= 1/2", d.Guarantee())
	}
	// Deterministic on violation-free instances.
	di := plantBadBalls(t, 60, 0)
	draw := localrand.NewTapeSpace(3).Draw(0)
	if !accepts(Exec{}, di, d, &draw) {
		t.Error("slack decider rejected a perfect coloring")
	}
}

func TestAcceptsFarFrom(t *testing.T) {
	// A decider rejecting exactly at the node with the smallest identity.
	d := rejectAtMinID{}
	g := graph.Path(9)
	di := selInstance(t, g) // ids 1..9 along the path
	if accepts(Exec{}, di, d, nil) {
		t.Fatal("fixture decider should reject somewhere")
	}
	// Node 0 carries id 1 and is the only rejector; far from node 0 at
	// distance >= 1 everything accepts.
	if !acceptsFarFrom(Exec{}, di, d, nil, 0, 0) {
		t.Error("far-from-0 should exclude only node 0")
	}
	if acceptsFarFrom(Exec{}, di, d, nil, 8, 2) {
		t.Error("far from node 8 must still see the rejection at node 0")
	}
}

type rejectAtMinID struct{}

func (rejectAtMinID) Name() string { return "reject-at-min-id" }
func (rejectAtMinID) Radius() int  { return 1 }
func (rejectAtMinID) Verdict(v *local.View) bool {
	// Reject iff the center carries identity 1.
	return v.IDs[0] != 1
}

// naiveAMOSDecider is the natural deterministic attempt: reject iff two
// selected nodes appear in the radius-t view. The fooling engine must
// defeat it for every t.
type naiveAMOSDecider struct{ t int }

func (d naiveAMOSDecider) Name() string { return fmt.Sprintf("naive-amos(t=%d)", d.t) }
func (d naiveAMOSDecider) Radius() int  { return d.t }
func (d naiveAMOSDecider) Verdict(v *local.View) bool {
	count := 0
	for _, y := range v.Y {
		if sel, err := lang.DecodeSelected(y); err == nil && sel {
			count++
		}
	}
	return count <= 1
}

// paranoidAMOSDecider rejects whenever it sees any selected node — it
// fails the other way, rejecting legal configurations.
type paranoidAMOSDecider struct{ t int }

func (d paranoidAMOSDecider) Name() string { return "paranoid-amos" }
func (d paranoidAMOSDecider) Radius() int  { return d.t }
func (d paranoidAMOSDecider) Verdict(v *local.View) bool {
	for _, y := range v.Y {
		if sel, err := lang.DecodeSelected(y); err == nil && sel {
			return false
		}
	}
	return true
}

func TestAMOSFoolingDefeatsNaiveDeciders(t *testing.T) {
	for _, radius := range []int{1, 2, 3, 4} {
		rep, err := AMOSFooling(naiveAMOSDecider{t: radius}, 2*radius+4)
		if err != nil {
			t.Fatal(err)
		}
		if !rep.Fails {
			t.Errorf("t=%d: naive decider not defeated", radius)
		}
		if !rep.AcceptsBoth {
			t.Errorf("t=%d: expected illegal double acceptance, got %+v", radius, rep)
		}
		if !rep.TransferConsistent {
			t.Errorf("t=%d: view-transfer prediction violated", radius)
		}
	}
}

func TestAMOSFoolingDefeatsParanoidDecider(t *testing.T) {
	rep, err := AMOSFooling(paranoidAMOSDecider{t: 2}, 10)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Fails || rep.AcceptsLeft {
		t.Errorf("paranoid decider should fail by rejecting legal configs: %+v", rep)
	}
}

func TestAMOSFoolingPathTooShort(t *testing.T) {
	if _, err := AMOSFooling(naiveAMOSDecider{t: 3}, 6); err == nil {
		t.Error("expected error for too-short path")
	}
}

func TestVerdictsParallelDeterminism(t *testing.T) {
	l := lang.ProperColoring(3)
	d := NewResilientDecider(l, 2)
	di := plantBadBalls(t, 36, 2)
	draw := localrand.NewTapeSpace(11).Draw(3)
	v1 := verdicts(Exec{}, di, d, &draw)
	v2 := verdicts(Exec{}, di, d, &draw)
	for i := range v1 {
		if v1[i] != v2[i] {
			t.Fatalf("same draw, different verdicts at node %d", i)
		}
	}
}
