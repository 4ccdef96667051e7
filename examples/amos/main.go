// AMOS: the paper's flagship witness that randomized local decision is
// strictly stronger than deterministic (§2.3.1). The language amos — "at
// most one selected" — cannot be decided deterministically in D/2 − 1
// rounds, but a zero-round randomized decider succeeds with guarantee
// (√5−1)/2 ≈ 0.618. This example measures the decider's acceptance
// probabilities and then runs the fooling argument against a natural
// deterministic decider.
package main

import (
	"fmt"
	"log"

	"rlnc/internal/decide"
	"rlnc/internal/graph"
	"rlnc/internal/ids"
	"rlnc/internal/lang"
	"rlnc/internal/local"
	"rlnc/internal/localrand"
)

func main() {
	const n = 40
	g := graph.Path(n)
	decider := decide.NewAMOSDecider()
	space := localrand.NewTapeSpace(7)

	fmt.Printf("zero-round randomized decider, p = %.4f (guarantee %.4f)\n\n",
		decider.P, decider.Guarantee())
	fmt.Println("selected  Pr[all accept]   (20000 trials)")
	for _, s := range []int{0, 1, 2, 3} {
		sel := make([]int, s)
		for i := range sel {
			sel[i] = i * (n / 4)
		}
		di := selInstance(g, sel...)
		est := decide.AcceptProbability(di, decider, space, 20000)
		fmt.Printf("%8d  %.4f\n", s, est.P())
	}

	fmt.Println("\nfooling a deterministic decider (radius 2) on a path:")
	rep, err := decide.AMOSFooling(naiveDecider{t: 2}, 2*2+4)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  accepts left-selected:  %v (legal)\n", rep.AcceptsLeft)
	fmt.Printf("  accepts right-selected: %v (legal)\n", rep.AcceptsRight)
	fmt.Printf("  accepts BOTH selected:  %v (ILLEGAL)\n", rep.AcceptsBoth)
	fmt.Printf("  defeated: %v — %s\n", rep.Fails, rep.Reason)
}

// selInstance marks nodes as selected on g with consecutive identities.
func selInstance(g *graph.Graph, selected ...int) *lang.DecisionInstance {
	y := make([][]byte, g.N())
	for v := range y {
		y[v] = lang.EncodeSelected(false)
	}
	for _, v := range selected {
		y[v] = lang.EncodeSelected(true)
	}
	// ColumnOf copies the per-node rows into the output column a
	// configuration carries.
	return &lang.DecisionInstance{G: g, X: lang.EmptyInputs(g.N()), Y: lang.ColumnOf(y), ID: ids.Consecutive(g.N())}
}

// naiveDecider rejects iff it sees two selections in its radius-t view.
type naiveDecider struct{ t int }

func (d naiveDecider) Name() string { return "naive" }
func (d naiveDecider) Radius() int  { return d.t }
func (d naiveDecider) Verdict(v *local.View) bool {
	count := 0
	for _, y := range v.Y {
		if sel, err := lang.DecodeSelected(y); err == nil && sel {
			count++
		}
	}
	return count <= 1
}
