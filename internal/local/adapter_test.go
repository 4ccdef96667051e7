package local_test

import (
	"bytes"
	"fmt"
	"testing"

	"rlnc/internal/construct"
	"rlnc/internal/graph"
	"rlnc/internal/ids"
	"rlnc/internal/lang"
	"rlnc/internal/local"
	"rlnc/internal/localrand"
)

// TestMessageAsViewEquivalence pins the §2.1.1 simulation of a t-round
// message algorithm by a radius-(t+1) view algorithm: the simulated
// center's output equals its output in the real execution. It covers a
// process algorithm (flood-min, t = 0..3) and the kernel-only
// algorithms — retry coloring at T = 0, the zero-round branch, and
// T = 2 under a draw, and Cole–Vishkin on a ring small enough that every
// ball is the whole ring.
func TestMessageAsViewEquivalence(t *testing.T) {
	draw := localrand.NewTapeSpace(41).Draw(3)
	cv := construct.ColeVishkin{MaxIDBits: 4}
	cases := []struct {
		algo   local.WireAlgorithm
		rounds int
		draw   *localrand.Draw
	}{
		{local.FloodMinForTest(0), 0, nil},
		{local.FloodMinForTest(1), 1, nil},
		{local.FloodMinForTest(2), 2, nil},
		{local.FloodMinForTest(3), 3, nil},
		{construct.RetryMessage(3, 0), 0, &draw},
		{construct.RetryMessage(3, 2), 2, &draw},
		{cv, cv.Rounds(), nil},
	}
	for _, c := range cases {
		t.Run(fmt.Sprintf("%s/t=%d", c.algo.Name(), c.rounds), func(t *testing.T) {
			g := graph.Cycle(10)
			in, err := lang.NewInstance(g, lang.EmptyInputs(g.N()), ids.RandomPerm(g.N(), 99))
			if err != nil {
				t.Fatal(err)
			}
			direct, err := local.RunMessage(in, c.algo, c.draw, local.RunOptions{})
			if err != nil {
				t.Fatal(err)
			}
			sim := local.RunView(in, local.MessageAsView(c.algo, c.rounds), c.draw)
			for v := range sim.Len() {
				if !bytes.Equal(direct.Y.At(v), sim.At(v)) {
					t.Errorf("node %d: direct %x vs simulated %x", v, direct.Y.At(v), sim.At(v))
				}
			}
		})
	}
}
