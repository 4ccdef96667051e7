// Quickstart: build a ring network, 3-color it with the deterministic
// Cole–Vishkin algorithm in Θ(log* n) rounds, and check the output both
// by evaluating the language and by running the canonical local decider —
// the construction/decision pairing at the heart of the paper (§2.2).
package main

import (
	"fmt"
	"log"

	"rlnc/internal/construct"
	"rlnc/internal/decide"
	"rlnc/internal/graph"
	"rlnc/internal/ids"
	"rlnc/internal/lang"
	"rlnc/internal/local"
)

func main() {
	const n = 64
	// A LOCAL-model instance: a connected simple graph plus pairwise
	// distinct positive identities (paper §2.1.1).
	g := graph.Cycle(n)
	id := ids.RandomPerm(n, 42)
	in, err := lang.NewInstance(g, lang.EmptyInputs(n), id)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("network: %s, diameter %d\n", g, g.Diameter())

	// Construction task: proper 3-coloring via Cole–Vishkin.
	algo := construct.ColeVishkin{MaxIDBits: 63}
	res, err := local.RunMessage(in, algo, nil, local.RunOptions{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("algorithm: %s finished in %d rounds (%d messages)\n",
		algo.Name(), res.Stats.Rounds, res.Stats.Messages)

	// Language membership: identity-free evaluation of (G, (x, y)).
	language := lang.ProperColoring(3)
	cfg := &lang.Config{G: g, X: in.X, Y: res.Y}
	ok, err := language.Contains(cfg)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("proper 3-coloring: %v\n", ok)

	// Decision task: every node inspects its radius-1 ball and votes; the
	// configuration is accepted iff all nodes vote true (§2.2.1).
	di, err := in.WithOutput(res.Y)
	if err != nil {
		log.Fatal(err)
	}
	decider := &decide.LCLDecider{L: language}
	accepts := decide.Exec{}.Accepts([]*lang.DecisionInstance{di}, decider, nil)[0]
	fmt.Printf("local decider accepts: %v\n", accepts)

	// Show a few node outputs. res.Y is a lang.Column: every node's
	// output in one byte slab (here one byte per node), read with At.
	fmt.Print("first colors: ")
	for v := 0; v < 10; v++ {
		c, _ := lang.DecodeColor(res.Y.At(v))
		fmt.Printf("%d ", c)
	}
	fmt.Println("...")
}
