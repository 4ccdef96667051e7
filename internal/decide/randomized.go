package decide

import (
	"math"

	"rlnc/internal/lang"
)

// GoldenP is (√5−1)/2 ≈ 0.618, the guarantee of the zero-round AMOS
// decider of §2.3.1. It is the fixed point of p = 1 − p²: a selected node
// accepts with probability p, so one selected node is accepted with
// probability p and s ≥ 2 selected nodes are rejected with probability
// 1 − p^s ≥ 1 − p² = p.
var GoldenP = (math.Sqrt(5) - 1) / 2

// NewAMOSDecider returns the zero-round randomized decider for the
// language amos with the optimal P = (√5−1)/2: every non-selected node
// accepts, and every selected node accepts with probability P. It is the
// Corollary 1 decider for f = 1 over "no node selected".
func NewAMOSDecider() *LCLDecider {
	return &LCLDecider{L: lang.NoneSelected(), F: 1, P: GoldenP}
}

// ResilientP returns the acceptance probability used by the Corollary 1
// decider for the f-resilient relaxation: any p in the open interval
// (2^{−1/f}, 2^{−1/(f+1)}) works; this picks the geometric mean
// 2^{−(2f+1)/(2f(f+1))}. It panics for f <= 0.
func ResilientP(f int) float64 {
	if f <= 0 {
		panic("decide: resilient decider needs f >= 1")
	}
	lo := math.Exp2(-1 / float64(f))
	hi := math.Exp2(-1 / float64(f+1))
	return math.Sqrt(lo * hi)
}

// NewResilientDecider builds the Corollary 1 decider witnessing
// L_f ∈ BPLD for an LCL language L, with the default P = ResilientP(f).
func NewResilientDecider(l *lang.LCL, f int) *LCLDecider {
	return &LCLDecider{L: l, F: f, P: ResilientP(f)}
}

// NewSlackNodeAwareDecider builds the decider of the ε-slack relaxation
// of an LCL language for n-node configurations: the Corollary 1 decider
// with f = ⌊ε·n⌋ (at least 1). This witnesses ε-slack ∈ BPLD#node (§5);
// the dependence on n is what keeps it outside BPLD, and the paper shows
// Theorem 1 cannot extend to BPLD#node.
func NewSlackNodeAwareDecider(l *lang.LCL, eps float64, n int) *LCLDecider {
	return NewResilientDecider(l, max(1, int(math.Floor(eps*float64(n)))))
}
