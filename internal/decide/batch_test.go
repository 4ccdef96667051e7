package decide

import (
	"testing"

	"rlnc/internal/graph"
	"rlnc/internal/lang"
	"rlnc/internal/local"
	"rlnc/internal/localrand"
)

// TestBatchVerdictsMatchPooledAndSingleShot pins the decision-side
// equivalence contract: every lane of Exec{Bt}'s Verdicts / Accepts /
// AcceptsFarFrom — full batches, ragged tails, back-to-back reuse of
// one Batch — matches the pooled path and the one-shot path at the
// same (instance, draw), for deterministic and randomized deciders on
// the row path and on assembled views. The pooled path is a reused
// width-1 batch.
func TestBatchVerdictsMatchPooledAndSingleShot(t *testing.T) {
	l := lang.ProperColoring(3)
	g := graph.Cycle(18)
	colors := make([]int, 18)
	for v := range colors {
		colors[v] = v % 3
	}
	colors[4] = colors[3] // plant one violation
	space := localrand.NewTapeSpace(29)

	plan, err := local.NewPlan(g)
	if err != nil {
		t.Fatal(err)
	}
	const width = 4
	bt := plan.NewBatch(width)
	one := plan.NewBatch(1)

	det, rnd := &LCLDecider{L: l}, NewResilientDecider(l, 1)
	for _, d := range []Decider{det, rnd, viewOnly(det), viewOnly(rnd)} {
		lo := 0
		for rep, k := range []int{width, width - 1, width} {
			// Fresh instances per lane, like the Monte-Carlo harness builds:
			// shared identity/input columns, per-lane output columns.
			dis := make([]*lang.DecisionInstance, k)
			draws := make([]localrand.Draw, k)
			for b := 0; b < k; b++ {
				dis[b] = coloringInstance(t, g, colors...)
				draws[b] = space.Draw(uint64(lo + b))
			}
			got := Exec{Bt: bt}.Verdicts(dis, d, draws)
			accs := Exec{Bt: bt}.Accepts(dis, d, draws)
			for b := 0; b < k; b++ {
				want := verdicts(Exec{}, dis[b], d, &draws[b])
				pooled := verdicts(Exec{Bt: one}, dis[b], d, &draws[b])
				for v := range want {
					if want[v] != got[b][v] {
						t.Fatalf("%s rep %d lane %d node %d: batched %v, single-shot %v", d.Name(), rep, b, v, got[b][v], want[v])
					}
					if pooled[v] != got[b][v] {
						t.Fatalf("%s rep %d lane %d node %d: batched %v, pooled %v", d.Name(), rep, b, v, got[b][v], pooled[v])
					}
				}
				if accs[b] != accepts(Exec{}, dis[b], d, &draws[b]) {
					t.Fatalf("%s rep %d lane %d: batched Accepts disagrees", d.Name(), rep, b)
				}
				for _, u := range []int{0, 4, 9} {
					for _, far := range []int{1, 3} {
						farBatch := Exec{Bt: bt}.AcceptsFarFrom(dis, d, draws, u, far)
						if farBatch[b] != acceptsFarFrom(Exec{}, dis[b], d, &draws[b], u, far) {
							t.Fatalf("%s rep %d lane %d: batched AcceptsFarFrom(u=%d, far=%d) disagrees with one-shot", d.Name(), rep, b, u, far)
						}
						if farBatch[b] != acceptsFarFrom(Exec{Bt: one}, dis[b], d, &draws[b], u, far) {
							t.Fatalf("%s rep %d lane %d: batched AcceptsFarFrom(u=%d, far=%d) disagrees with pooled", d.Name(), rep, b, u, far)
						}
					}
				}
			}
			lo += k
		}
	}

	// Deterministic deciders accept nil draws (the benchmark trial shape).
	dis := []*lang.DecisionInstance{coloringInstance(t, g, colors...), coloringInstance(t, g, colors...)}
	got := Exec{Bt: bt}.Verdicts(dis, det, nil)
	want := verdicts(Exec{}, dis[0], det, nil)
	for b := range dis {
		for v := range want {
			if want[v] != got[b][v] {
				t.Fatalf("nil-draw lane %d node %d: %v, want %v", b, v, got[b][v], want[v])
			}
		}
	}
}

// TestBatchedGuaranteeEstimatorsMatchScalar pins that the batched
// estimators replay exactly the per-trial draws of the scalar loops they
// replaced, so their estimates are identical, not merely close.
func TestBatchedGuaranteeEstimatorsMatchScalar(t *testing.T) {
	l := lang.ProperColoring(3)
	g := graph.Cycle(12)
	colors := []int{0, 1, 2, 0, 1, 2, 0, 1, 2, 0, 1, 2}
	di := coloringInstance(t, g, colors...)
	d := NewResilientDecider(l, 2)
	space := localrand.NewTapeSpace(123)
	const trials = 100

	est := AcceptProbability(di, d, space, trials)
	wantSucc := 0
	for trial := 0; trial < trials; trial++ {
		draw := space.Draw(uint64(trial))
		if accepts(Exec{}, di, d, &draw) {
			wantSucc++
		}
	}
	if est.Successes != wantSucc || est.Trials != trials {
		t.Errorf("AcceptProbability = %v, want %d/%d", est, wantSucc, trials)
	}

	estFar := AcceptFarFromProbability(di, d, space, trials, 0, 2)
	wantSucc = 0
	for trial := 0; trial < trials; trial++ {
		draw := space.Draw(uint64(trial))
		if acceptsFarFrom(Exec{}, di, d, &draw, 0, 2) {
			wantSucc++
		}
	}
	if estFar.Successes != wantSucc {
		t.Errorf("AcceptFarFromProbability = %v, want %d/%d", estFar, wantSucc, trials)
	}

	li, err := Labeled(di, l, "proper ring")
	if err != nil {
		t.Fatal(err)
	}
	rep := EstimateGuarantee([]*LabeledInstance{li}, d, space, trials)
	wantSucc = 0
	for trial := 0; trial < trials; trial++ {
		draw := space.Draw(uint64(trial))
		if accepts(Exec{}, di, d, &draw) == li.InL {
			wantSucc++
		}
	}
	if rep.PerInstance[0].Successes != wantSucc {
		t.Errorf("EstimateGuarantee = %v, want %d/%d", rep.PerInstance[0], wantSucc, trials)
	}
	if rep.Min != rep.PerInstance[0] {
		t.Errorf("Min = %v, want %v", rep.Min, rep.PerInstance[0])
	}
}
