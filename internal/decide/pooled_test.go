package decide

import (
	"testing"

	"rlnc/internal/graph"
	"rlnc/internal/lang"
	"rlnc/internal/local"
	"rlnc/internal/localrand"
)

// TestPooledVerdictsMatchSingleShot pins that a reused width-1 batch
// (Exec{Bt}'s Verdicts / Accepts / AcceptsFarFrom) produces
// identical verdicts to the one-shot path for randomized and
// deterministic deciders, on the row path and on assembled views, across
// back-to-back reuse with fresh DecisionInstances per trial — the exact
// shape of the experiment loops.
func TestPooledVerdictsMatchSingleShot(t *testing.T) {
	l := lang.ProperColoring(3)
	g := graph.Cycle(18)
	colors := make([]int, 18)
	for v := range colors {
		colors[v] = v % 3
	}
	colors[4] = colors[3] // plant one violation
	space := localrand.NewTapeSpace(13)

	plan, err := local.NewPlan(g)
	if err != nil {
		t.Fatal(err)
	}
	bt := plan.NewBatch(1)
	det := &LCLDecider{L: l}
	for _, d := range []Decider{det, viewOnly(det)} {
		for trial := 0; trial < 5; trial++ {
			// Fresh instance per trial, like the Monte-Carlo harness builds.
			di := coloringInstance(t, g, colors...)
			draw := space.Draw(uint64(trial))

			want := verdicts(Exec{}, di, d, &draw)
			got := verdicts(Exec{Bt: bt}, di, d, &draw)
			for v := range want {
				if want[v] != got[v] {
					t.Fatalf("trial %d node %d: pooled verdict %v, single-shot %v", trial, v, got[v], want[v])
				}
			}
			if accepts(Exec{}, di, d, &draw) != accepts(Exec{Bt: bt}, di, d, &draw) {
				t.Fatalf("trial %d: Accepts disagrees", trial)
			}
			for _, u := range []int{0, 4, 9} {
				for _, far := range []int{1, 3} {
					if acceptsFarFrom(Exec{}, di, d, &draw, u, far) != acceptsFarFrom(Exec{Bt: bt}, di, d, &draw, u, far) {
						t.Fatalf("trial %d: AcceptsFarFrom(u=%d, far=%d) disagrees", trial, u, far)
					}
				}
			}
		}
	}

	// Randomized decider: verdicts depend on tapes, so this also pins the
	// pooled tape threading, on the row path and on assembled views.
	rnd := NewResilientDecider(l, 1)
	for _, d := range []Decider{rnd, viewOnly(rnd)} {
		for trial := 0; trial < 5; trial++ {
			di := coloringInstance(t, g, colors...)
			draw := space.Draw(uint64(100 + trial))
			want := verdicts(Exec{}, di, d, &draw)
			got := verdicts(Exec{Bt: bt}, di, d, &draw)
			for v := range want {
				if want[v] != got[v] {
					t.Fatalf("randomized trial %d node %d: pooled %v, single-shot %v", trial, v, got[v], want[v])
				}
			}
		}
	}
}
