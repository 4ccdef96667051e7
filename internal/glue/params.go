// Package glue implements the constructions in the proof of Theorem 1:
// the boosting parameters ν (Eq. 3), µ, D = 2µ(t+t′) and ν′; the disjoint
// union of hard instances (Claim 3); the connectivity-preserving gluing —
// subdivide an edge twice in each copy and ring-connect the inserted
// nodes — used in the main proof; and the hard-instance search that plays
// the role of Claim 2 for a concrete corpus of order-invariant
// algorithms.
package glue

import (
	"errors"
	"fmt"
	"math"
)

// ErrParam reports parameters outside the ranges the proof requires.
var ErrParam = errors.New("glue: parameter out of range")

// checkProb validates p ∈ (1/2, 1], r ∈ (0, 1], β ∈ (0, 1].
func checkProbs(r, p, beta float64) error {
	if !(p > 0.5 && p <= 1) {
		return fmt.Errorf("%w: decider guarantee p=%v must be in (1/2, 1]", ErrParam, p)
	}
	if !(r > 0 && r <= 1) {
		return fmt.Errorf("%w: construction success r=%v must be in (0, 1]", ErrParam, r)
	}
	if !(beta > 0 && beta <= 1) {
		return fmt.Errorf("%w: failure probability β=%v must be in (0, 1]", ErrParam, beta)
	}
	return nil
}

// Mu returns the size of the scattered set S in the proof of Claim 4.
// The paper sets µ = ⌈1/(2p−1)⌉ and uses µ(2p−1) > 1; at boundary values
// (e.g. p = 3/4, where ⌈1/(2p−1)⌉·(2p−1) = 1 exactly) the ceiling alone
// gives only ≥, so we take µ = ⌊1/(2p−1)⌋ + 1, which always satisfies the
// strict inequality the contradiction in Claim 4 requires and coincides
// with the paper's value everywhere else.
func Mu(p float64) (int, error) {
	if !(p > 0.5 && p <= 1) {
		return 0, fmt.Errorf("%w: p=%v", ErrParam, p)
	}
	mu := int(math.Floor(1/(2*p-1))) + 1
	return mu, nil
}

// NuDisjoint returns ν from Eq. (3): ν = 1 + ⌈ln(rp)/ln(1−βp)⌉, the
// number of disjoint hard instances making
// (1/p)·(1−βp)^ν < r in the proof of Claim 3.
func NuDisjoint(r, p, beta float64) (int, error) {
	if err := checkProbs(r, p, beta); err != nil {
		return 0, err
	}
	nu := 1 + int(math.Ceil(math.Log(r*p)/math.Log(1-beta*p)))
	if nu < 1 {
		nu = 1
	}
	return nu, nil
}

// NuDisjointSearch returns the smallest ν with (1/p)(1−βp)^ν < r, the
// inequality the proof actually needs; used to cross-check Eq. (3).
func NuDisjointSearch(r, p, beta float64) (int, error) {
	if err := checkProbs(r, p, beta); err != nil {
		return 0, err
	}
	q := 1 - beta*p
	bound := 1 / p
	for nu := 1; nu <= 1_000_000; nu++ {
		bound *= q
		if bound < r {
			return nu, nil
		}
	}
	return 0, fmt.Errorf("%w: no ν below 10^6 (r=%v p=%v β=%v)", ErrParam, r, p, beta)
}

// D returns the diameter bound D = 2µ(t+t′) used to pick the instances
// H_i: it guarantees a scattered set of µ vertices pairwise at distance
// at least 2(t+t′).
func D(mu, t, tPrime int) int {
	return 2 * mu * (t + tPrime)
}

// NuPrimeSearch returns the smallest ν′ with (1/p)·q^{ν′} < r for
// q = 1 − β(1−p)/µ — the inequality the final contradiction of Theorem 1
// needs.
func NuPrimeSearch(r, p, beta float64, mu int) (int, error) {
	if err := checkProbs(r, p, beta); err != nil {
		return 0, err
	}
	if mu < 1 {
		return 0, fmt.Errorf("%w: µ=%d", ErrParam, mu)
	}
	q := 1 - beta*(1-p)/float64(mu)
	if q >= 1 {
		return 0, fmt.Errorf("%w: per-block rejection rate vanished (p=%v)", ErrParam, p)
	}
	bound := 1 / p
	for nu := 1; nu <= 10_000_000; nu++ {
		bound *= q
		if bound < r {
			return nu, nil
		}
	}
	return 0, fmt.Errorf("%w: no ν′ below 10^7", ErrParam)
}

// NuPrimePaper evaluates the closed form as printed in the paper,
// ν′ = 1 + ⌈ln(rp)/ln((1/p)(1−β(1−p)/µ))⌉.
//
// Reproduction finding (reported by E15, internal/exp/e15_params.go):
// the printed base (1/p)(1−β(1−p)/µ) is ≥ 1 for ALL admissible
// parameters — it is below 1 iff β(1−p)/µ > 1−p, i.e. iff β > µ, which
// never holds since β ≤ 1 ≤ µ. The printed formula is therefore degenerate everywhere (a
// typo: the 1/p factor belongs outside the logarithm's argument, matching
// the displayed inequality Pr ≤ (1/p)(1−β(1−p)/µ)^{ν′} < r). A degenerate
// evaluation returns ok = false; NuPrimeCorrected gives the intended
// closed form and NuPrimeSearch the exact minimum.
func NuPrimePaper(r, p, beta float64, mu int) (nuPrime int, ok bool) {
	base := (1 / p) * (1 - beta*(1-p)/float64(mu))
	if base >= 1 || base <= 0 {
		return 0, false
	}
	v := 1 + int(math.Ceil(math.Log(r*p)/math.Log(base)))
	if v < 1 {
		v = 1
	}
	return v, true
}

// NuPrimeCorrected is the intended closed form,
// ν′ = 1 + ⌈ln(rp)/ln(1−β(1−p)/µ)⌉, which makes
// (1/p)(1−β(1−p)/µ)^{ν′} < r hold: it exceeds NuPrimeSearch by at most 1.
func NuPrimeCorrected(r, p, beta float64, mu int) (int, error) {
	if err := checkProbs(r, p, beta); err != nil {
		return 0, err
	}
	if mu < 1 {
		return 0, fmt.Errorf("%w: µ=%d", ErrParam, mu)
	}
	q := 1 - beta*(1-p)/float64(mu)
	if q >= 1 || q <= 0 {
		return 0, fmt.Errorf("%w: q=%v", ErrParam, q)
	}
	v := 1 + int(math.Ceil(math.Log(r*p)/math.Log(q)))
	if v < 1 {
		v = 1
	}
	return v, nil
}

// ResilientPInterval returns the open interval (2^{−1/f}, 2^{−1/(f+1)})
// from the proof of Corollary 1.
func ResilientPInterval(f int) (lo, hi float64, err error) {
	if f < 1 {
		return 0, 0, fmt.Errorf("%w: f=%d must be ≥ 1", ErrParam, f)
	}
	return math.Exp2(-1 / float64(f)), math.Exp2(-1 / float64(f+1)), nil
}

// DisjointAcceptBound returns the Claim 3 acceptance bound (1−βp)^ν.
func DisjointAcceptBound(p, beta float64, nu int) float64 {
	return math.Pow(1-beta*p, float64(nu))
}

// GluedAcceptBound returns the Theorem 1 acceptance bound
// (1 − β(1−p)/µ)^{ν′}.
func GluedAcceptBound(p, beta float64, mu, nuPrime int) float64 {
	return math.Pow(1-beta*(1-p)/float64(mu), float64(nuPrime))
}
