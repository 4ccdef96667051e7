// Package decide implements distributed decision in the LOCAL model
// (§2.2.1, §2.3): deciders are constant-radius algorithms in which every
// node outputs true or false after inspecting its view of the input-output
// configuration; the configuration is accepted iff all nodes output true.
//
// Deterministic deciders witness membership in LD; randomized Monte-Carlo
// deciders with guarantee p > 1/2 (Eq. (1) of the paper) witness
// membership in BPLD. The package provides the canonical LCL decider, the
// golden-ratio AMOS decider of §2.3.1, the f-resilient decider from the
// proof of Corollary 1, the #node-aware ε-slack decider of §5, the
// "accepts far from v" evaluation used by Claims 4–5, and a guarantee
// estimator.
package decide

import (
	"fmt"

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

// LCLDecider is the canonical deterministic decider for an LCL language:
// a node rejects iff its radius-t ball is in Bad(L). It decides L exactly,
// witnessing LCL ⊆ LD (§2.2.2).
type LCLDecider struct {
	L *lang.LCL
}

// Name implements Decider.
func (d *LCLDecider) Name() string { return fmt.Sprintf("lcl-decider(%s)", d.L.Name()) }

// Radius implements Decider.
func (d *LCLDecider) Radius() int { return d.L.Radius }

// Verdict implements Decider.
func (d *LCLDecider) Verdict(v *local.View) bool {
	return !d.L.Bad(v.LabeledBall())
}
