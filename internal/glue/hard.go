package glue

import (
	"fmt"

	"rlnc/internal/construct"
	"rlnc/internal/graph"
	"rlnc/internal/ids"
	"rlnc/internal/lang"
	"rlnc/internal/local"
	"rlnc/internal/localrand"
	"rlnc/internal/mc"
)

// This file plays the role of Claim 2 for concrete algorithms: it finds,
// for a given construction algorithm and target language, instances
// (H, x, id) with diameter ≥ Dmin and identities ≥ Imin on which the
// algorithm fails (deterministically, or with estimated probability
// ≥ β). The search walks the consecutive-identity cycle family — the
// hard family identified by the paper's Section 4 argument.

// HardInstance couples an instance with the measured failure evidence.
type HardInstance struct {
	Instance *lang.Instance
	// FailureProb estimates Pr[C(H,x,id) ∉ L]; 1.0 for deterministic
	// failures.
	FailureProb mc.Estimate
	// N is the cycle length used.
	N int
}

// Runner is the construction algorithm under search.
type Runner = construct.Algorithm

// hardSearchBatch is the lane count of the batched failure estimate.
const hardSearchBatch = 32

// FindHardCycle searches cycles C_n with identities Imin, Imin+1, ... for
// an instance where the runner's output falls outside the language with
// probability at least betaTarget (estimated over `trials` draws of the
// given tape space; pass space = nil and trials = 1 for deterministic
// runners). The cycle length starts at max(2*Dmin, minN) — a cycle of
// length 2D has diameter D — and doubles until maxN.
func FindHardCycle(runner Runner, language lang.Language, dmin int, imin int64,
	betaTarget float64, space *localrand.TapeSpace, trials, maxN int) (*HardInstance, error) {
	n := 2 * dmin
	if n < 8 {
		n = 8
	}
	for ; n <= maxN; n *= 2 {
		in, err := lang.NewInstance(graph.Cycle(n), lang.EmptyInputs(n), ids.ConsecutiveFrom(n, imin))
		if err != nil {
			return nil, err
		}
		est := estimateFailure(runner, language, in, space, trials)
		if est.P() >= betaTarget {
			return &HardInstance{Instance: in, FailureProb: est, N: n}, nil
		}
	}
	return nil, fmt.Errorf("glue: no hard cycle up to n=%d for %s on %s (β target %v)",
		maxN, runner.Name(), language.Name(), betaTarget)
}

// estimateFailure measures Pr[runner's output falls outside the language]
// on one instance. Randomized runners execute trial vectors of
// hardSearchBatch lanes through construct.Exec on a per-worker batch;
// every lane's output equals a single-shot run at the same draw, so the
// estimate does not depend on whether the runner has an engine fast
// path. A runner error fails every trial of its vector.
func estimateFailure(runner Runner, language lang.Language, in *lang.Instance,
	space *localrand.TapeSpace, trials int) mc.Estimate {
	outside := func(y lang.Column, err error) bool {
		if err != nil {
			return true // failure to run is failure
		}
		ok, err := language.Contains(&lang.Config{G: in.G, X: in.X, Y: y})
		return err != nil || !ok
	}
	if space == nil || trials <= 1 {
		e := mc.Estimate{Trials: 1}
		if outside(runner.Run(in, nil)) {
			e.Successes = 1
		}
		return e
	}
	plan := local.MustPlan(in.G)
	type scratch struct {
		bt    *local.Batch
		draws []localrand.Draw
	}
	return mc.Executor[*scratch]{
		Trials: trials,
		Batch:  hardSearchBatch,
		NewState: func() *scratch {
			return &scratch{bt: plan.NewBatch(hardSearchBatch), draws: make([]localrand.Draw, hardSearchBatch)}
		},
	}.Run(func(s *scratch, lo, hi int, out []bool) {
		draws := s.draws[:hi-lo]
		for b := range draws {
			draws[b] = space.Draw(uint64(lo + b))
		}
		ys, err := construct.Exec{Bt: s.bt}.Run(runner, in, draws)
		for b := range out {
			out[b] = err != nil || outside(ys[b], nil)
		}
	})
}

// HardSequence builds the sequence (H_i, x_i, id_i), i = 1..count, of the
// proofs of Claim 3 and Theorem 1: each H_i is a hard cycle for the
// runner, with diameter ≥ dmin, and identity ranges strictly increasing
// across the sequence (id_{i+1} starts above max id of H_i).
func HardSequence(runner Runner, language lang.Language, count, dmin int,
	betaTarget float64, space *localrand.TapeSpace, trials, maxN int) ([]*lang.Instance, []mc.Estimate, error) {
	var parts []*lang.Instance
	var evidence []mc.Estimate
	imin := int64(1)
	for i := 0; i < count; i++ {
		hi, err := FindHardCycle(runner, language, dmin, imin, betaTarget, space, trials, maxN)
		if err != nil {
			return nil, nil, fmt.Errorf("glue: block %d: %w", i, err)
		}
		parts = append(parts, hi.Instance)
		evidence = append(evidence, hi.FailureProb)
		imin = hi.Instance.ID.Max() + 1
	}
	return parts, evidence, nil
}

// ScatteredAnchors picks, for each block, an anchor node from a scattered
// set of µ candidates pairwise ≥ 2(t+t′) apart (the set S of the proof)
// and its port-0 edge. pick selects which candidate becomes u_i; passing
// nil picks the first.
func ScatteredAnchors(parts []*lang.Instance, mu, t, tPrime int,
	pick func(block int, candidates []int) int) ([]Anchor, error) {
	sep := 2 * (t + tPrime)
	anchors := make([]Anchor, len(parts))
	for i, p := range parts {
		s := p.G.ScatteredSet(sep, mu)
		if len(s) < mu {
			return nil, fmt.Errorf("glue: block %d: only %d scattered nodes at separation %d, need µ=%d (diameter too small)",
				i, len(s), sep, mu)
		}
		choice := 0
		if pick != nil {
			choice = pick(i, s)
		}
		anchors[i] = Anchor{Node: s[choice], Port: 0}
	}
	return anchors, nil
}

// BestAnchorByFarRejection implements Claim 5's selection: among the
// scattered candidates of a block, pick the node u maximizing the
// empirical Pr[D rejects C(H) far from u]. The decider evaluation is
// supplied as a callback to avoid a dependency on package decide.
func BestAnchorByFarRejection(candidates []int, rejectFarProb func(u int) float64) int {
	best, bestP := 0, -1.0
	for i, u := range candidates {
		if p := rejectFarProb(u); p > bestP {
			bestP = p
			best = i
		}
	}
	return best
}
