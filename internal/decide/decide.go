// Package decide implements distributed decision in the LOCAL model
// (§2.2.1, §2.3): deciders are constant-radius algorithms in which every
// node outputs true or false after inspecting its view of the input-output
// configuration; the configuration is accepted iff all nodes output true.
//
// Deterministic deciders witness membership in LD; randomized Monte-Carlo
// deciders with guarantee p > 1/2 (Eq. (1) of the paper) witness
// membership in BPLD. The paper's randomized deciders share one shape — a
// node accepts if its ball is good and otherwise flips its own tape's
// coin — so one type, LCLDecider, covers them all: the canonical LCL
// decider (no coin), the golden-ratio AMOS decider of §2.3.1
// (NewAMOSDecider), the f-resilient decider from the proof of
// Corollary 1 (NewResilientDecider), the #node-aware ε-slack decider of
// §5 (NewSlackNodeAwareDecider) and the decider D of Claims 3–5 (the
// inverted coin). Exec evaluates it on the language's row form when one
// exists; the package also provides the "accepts far from v" evaluation
// used by Claims 4–5 and a guarantee estimator.
package decide

import (
	"fmt"
	"math"

	"rlnc/internal/lang"
	"rlnc/internal/local"
	"rlnc/internal/localrand"
)

// Decider is a local decision algorithm: every node computes a boolean
// verdict from its radius-t view of the configuration (inputs, outputs,
// identities, and — for randomized deciders — its private tape).
type Decider interface {
	Name() string
	Radius() int
	Verdict(v *local.View) bool
}

// RejectSet returns the nodes voting false: the set Reject(u, σ′) of the
// proof of Claim 4. draw carries the decider's randomness (nil for
// deterministic deciders).
func RejectSet(di *lang.DecisionInstance, d Decider, draw *localrand.Draw) []int {
	var draws []localrand.Draw
	if draw != nil {
		draws = []localrand.Draw{*draw}
	}
	var out []int
	for v, ok := range (Exec{}).Verdicts([]*lang.DecisionInstance{di}, d, draws)[0] {
		if !ok {
			out = append(out, v)
		}
	}
	return out
}

// LCLDecider is the LCL-shaped decider: a node whose radius-t ball is
// good accepts, and a node centering a bad ball rejects or, with P > 0,
// flips its own tape's coin.
//
//   - P == 0: a bad-ball center rejects, deciding L exactly (LCL ⊆ LD,
//     §2.2.2).
//   - P > 0: Bernoulli(P) accepts, so Pr[all accept] = P^{|F(G)|} over
//     the bad balls F(G); for 2^{−1/F} < P < 2^{−1/(F+1)} this decides
//     the F-resilient relaxation L_F (Corollary 1).
//   - Invert: Bernoulli(P) rejects instead — the decider D of Claims 3–5,
//     which always accepts members and rejects a bad ball's center with
//     probability P. The senses read the tape differently, so neither is
//     the other at 1−P.
type LCLDecider struct {
	L *lang.LCL
	// F is the number of tolerated bad balls; it enters Guarantee only.
	F      int
	P      float64
	Invert bool
}

// Name implements Decider.
func (d *LCLDecider) Name() string {
	if d.P == 0 {
		return fmt.Sprintf("lcl-decider(%s)", d.L.Name())
	}
	return fmt.Sprintf("lcl-decider(%s, f=%d, p=%.4f, invert=%t)", d.L.Name(), d.F, d.P, d.Invert)
}

// Radius implements Decider.
func (d *LCLDecider) Radius() int { return d.L.Radius }

// Verdict implements Decider.
func (d *LCLDecider) Verdict(v *local.View) bool {
	return !d.L.Bad(v.LabeledBall()) || d.coin(v.Tape())
}

// coin is the verdict of a bad-ball center whose tape is t.
func (d *LCLDecider) coin(t *localrand.Tape) bool {
	return d.P != 0 && t.Bernoulli(d.P) != d.Invert
}

// Guarantee returns the analytic guarantee of Eq. (1): min(P^F,
// 1 − P^{F+1}) in the accepting sense (1 for the deterministic decider)
// and P in the inverted sense.
func (d *LCLDecider) Guarantee() float64 {
	if d.Invert {
		return d.P
	}
	f := float64(d.F)
	return math.Min(math.Pow(d.P, f), 1-math.Pow(d.P, f+1))
}
