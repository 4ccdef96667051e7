// Resilient lower bound: the "randomization does not help" half of the
// paper's headline (Corollary 1). The f-resilient relaxation of
// 3-coloring tolerates a FIXED number f of conflicted nodes. On a cycle
// with consecutive identities, every order-invariant constant-round
// algorithm sees the same view almost everywhere and mono-colors
// n−(2t−1) nodes — so its violations grow linearly and blow through any
// f. Constant-round randomized algorithms leave Θ(n) expected violations
// too; only the Θ(log* n)-round Cole–Vishkin reaches zero.
package main

import (
	"fmt"
	"log"

	"rlnc/internal/construct"
	"rlnc/internal/graph"
	"rlnc/internal/ids"
	"rlnc/internal/lang"
	"rlnc/internal/local"
	"rlnc/internal/localrand"
	"rlnc/internal/relax"
)

func main() {
	const f = 4
	l := lang.ProperColoring(3)
	lf := &relax.FResilient{L: l, F: f}
	space := localrand.NewTapeSpace(5)

	fmt.Printf("f-resilient 3-coloring with f = %d on consecutive-identity cycles\n\n", f)
	fmt.Println("algorithm              | rounds  | n     | violations | within f")
	for _, n := range []int{128, 512, 2048} {
		g := graph.Cycle(n)
		in, err := lang.NewInstance(g, lang.EmptyInputs(n), ids.Consecutive(n))
		if err != nil {
			log.Fatal(err)
		}
		// Order-invariant deterministic algorithm (radius 1).
		oi := construct.RankColor{Q: 3, T: 1}
		y := local.RunView(in, oi, nil)
		report("oi-rank-color", "1", n, lf, in, y)

		// Constant-round randomized.
		draw := space.Draw(uint64(n))
		y2, err := (construct.RetryColoring{Q: 3, T: 4}).Run(in, &draw)
		if err != nil {
			log.Fatal(err)
		}
		report("retry-coloring(T=4)", "5", n, lf, in, y2)

		// Cole–Vishkin: not constant-round, and that is the point.
		res, err := local.RunMessage(in, construct.ColeVishkin{MaxIDBits: 63}, nil, local.RunOptions{})
		if err != nil {
			log.Fatal(err)
		}
		report("cole-vishkin", fmt.Sprint(res.Stats.Rounds), n, lf, in, res.Y)
	}
	fmt.Println("\nno constant-round algorithm — deterministic or randomized — stays within f:")
	fmt.Println("that is Corollary 1, via the derandomization theorem (Theorem 1) for BPLD.")
}

func report(name, rounds string, n int, lf *relax.FResilient, in *lang.Instance, y lang.Column) {
	cfg := &lang.Config{G: in.G, X: in.X, Y: y}
	bad := lf.Violations(cfg)
	ok, _ := lf.Contains(cfg)
	fmt.Printf("%-22s | %-7s | %-5d | %-10d | %v\n", name, rounds, n, bad, ok)
}
