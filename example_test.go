package rlnc_test

import (
	"fmt"
	"log"

	"rlnc"
	"rlnc/internal/construct"
	"rlnc/internal/lang"
)

// Example_coloring builds a ring, 3-colors it deterministically, and
// checks membership in the proper-coloring language.
func Example_coloring() {
	g := rlnc.Cycle(32)
	in, err := rlnc.NewInstance(g, make([][]byte, 32), rlnc.RandomIDs(32, 7))
	if err != nil {
		log.Fatal(err)
	}
	res, err := rlnc.RunMessage(in, construct.ColeVishkin{MaxIDBits: 63}, nil, rlnc.RunOptions{})
	if err != nil {
		log.Fatal(err)
	}
	ok, err := rlnc.ProperColoring(3).Contains(&rlnc.Config{G: g, X: in.X, Y: res.Y})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("proper 3-coloring:", ok)
	// Output:
	// proper 3-coloring: true
}

// Example_resilientDecider shows the Corollary 1 decider's analytic
// guarantee staying above one half.
func Example_resilientDecider() {
	d := rlnc.NewResilientDecider(rlnc.ProperColoring(3), 4)
	fmt.Printf("guarantee > 1/2: %v\n", d.Guarantee() > 0.5)
	// Output:
	// guarantee > 1/2: true
}

// Example_relaxations contrasts the two relaxations on one configuration.
func Example_relaxations() {
	l := rlnc.ProperColoring(3)
	g := rlnc.Cycle(12)
	y := make([][]byte, 12)
	for v := 0; v < 12; v++ {
		y[v] = lang.EncodeColor(v % 3) // proper except nothing: fully proper
	}
	y[1] = y[0] // plant one conflicted edge: 2 bad balls
	cfg := &rlnc.Config{G: g, X: make([][]byte, 12), Y: rlnc.ColumnOf(y)}

	slack := &rlnc.EpsSlack{L: l, Eps: 0.25}
	resil := &rlnc.FResilient{L: l, F: 1}
	okSlack, _ := slack.Contains(cfg)
	okResil, _ := resil.Contains(cfg)
	fmt.Println("within 25% slack:", okSlack)
	fmt.Println("within f=1 resilience:", okResil)
	// Output:
	// within 25% slack: true
	// within f=1 resilience: false
}
