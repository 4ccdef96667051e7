package construct

import (
	"fmt"
	"math/bits"

	"rlnc/internal/lang"
	"rlnc/internal/local"
)

// This file implements Linial-style deterministic color reduction for
// general bounded-degree graphs: the O(log* n)-round (Δ+1)-coloring
// machinery underlying the upper-bound side of the locality discussion in
// §1.3. The construction uses polynomial cover-free families over a prime
// field: a proper coloring with palette [q] is mapped, in ONE round, to a
// proper coloring with palette [p²], where p is a prime chosen so that
// p > Δ·d and p^{d+1} >= q for a suitable degree d.
//
// Why it works: encode each color c < q as a polynomial f_c of degree <= d
// over F_p via the base-p digits of c. Distinct colors give distinct
// polynomials, and two distinct polynomials of degree <= d agree on at
// most d points. A node with at most Δ neighbors therefore has at most
// Δ·d "collision" points, so some a ∈ F_p has f_c(a) ≠ f_{c_u}(a) for all
// neighbors u; the new color (a, f_c(a)) < p² is proper. Iterating shrinks
// any palette to O(Δ² log² Δ)-ish in Θ(log* q) rounds; a final greedy
// phase walks the palette down to Δ+1 one color per round.

// smallestPrimeAtLeast returns the least prime >= n (n >= 2).
func smallestPrimeAtLeast(n int) int {
	if n < 2 {
		n = 2
	}
	for {
		if isPrime(n) {
			return n
		}
		n++
	}
}

func isPrime(n int) bool {
	if n < 2 {
		return false
	}
	for d := 2; d*d <= n; d++ {
		if n%d == 0 {
			return false
		}
	}
	return true
}

// satPow returns p^e, saturating at the maximum uint64.
func satPow(p uint64, e int) uint64 {
	result := uint64(1)
	for i := 0; i < e; i++ {
		if result > ^uint64(0)/p {
			return ^uint64(0)
		}
		result *= p
	}
	return result
}

// reductionParams picks the polynomial degree d and prime p for one
// reduction step from palette size q at maximum degree Δ: the smallest d
// such that the least prime p > Δ·d satisfies p^{d+1} >= q (so every
// color has a distinct degree-d digit polynomial).
func reductionParams(q uint64, delta int) (d, p int) {
	if delta < 1 {
		delta = 1
	}
	for d = 1; ; d++ {
		p = smallestPrimeAtLeast(delta*d + 1)
		if satPow(uint64(p), d+1) >= q {
			return d, p
		}
	}
}

// polyEval evaluates the polynomial with the base-p digit coefficients of
// c at point a, over F_p: digits are consumed low to high against an
// accumulated power of a, so no digit buffer is materialized (this runs
// once per neighbor per evaluation point in the reduction's hot loop).
func polyEval(c uint64, d, p int, a int) int {
	acc, pw := 0, 1
	for i := 0; i <= d; i++ {
		digit := int(c % uint64(p))
		c /= uint64(p)
		acc = (acc + digit*pw) % p
		pw = (pw * a) % p
	}
	return acc
}

// LinialReduction is a message-passing algorithm performing iterated
// polynomial color reductions starting from the identities as colors,
// followed by a greedy palette walk down to TargetColors. It requires a
// proper starting coloring, which distinct identities trivially are.
type LinialReduction struct {
	// MaxDegree is the promise bound Δ on the graph's maximum degree.
	MaxDegree int
	// MaxIDBits bounds the identity universe (ids < 2^MaxIDBits).
	MaxIDBits int
	// TargetColors is the final palette size; at least MaxDegree+1.
	TargetColors int
}

// Name implements local.WireAlgorithm.
func (l LinialReduction) Name() string {
	return fmt.Sprintf("linial-reduction(Δ=%d, target=%d)", l.MaxDegree, l.TargetColors)
}

// schedule precomputes the palette trajectory: the sequence of (d, p)
// parameters applied each reduction round, shared by all nodes (it
// depends only on Δ and the identity universe, not on the instance).
func (l LinialReduction) schedule() []struct{ d, p int } {
	var steps []struct{ d, p int }
	q := uint64(1) << uint(min(63, l.MaxIDBits))
	if l.MaxIDBits >= 64 {
		q = ^uint64(0)
	}
	for {
		d, p := reductionParams(q, l.MaxDegree)
		newQ := uint64(p) * uint64(p)
		if newQ >= q {
			break // fixed point reached; no further shrink possible
		}
		steps = append(steps, struct{ d, p int }{d, p})
		q = newQ
	}
	return steps
}

// FixedPointPalette returns the palette size after the reduction phase.
func (l LinialReduction) FixedPointPalette() int {
	q := uint64(1) << uint(min(63, l.MaxIDBits))
	if l.MaxIDBits >= 64 {
		q = ^uint64(0)
	}
	for _, s := range l.schedule() {
		q = uint64(s.p) * uint64(s.p)
	}
	return int(q)
}

// Rounds returns the total number of rounds: one per reduction step plus
// one per greedy color removed.
func (l LinialReduction) Rounds() int {
	target := l.TargetColors
	fixed := l.FixedPointPalette()
	greedy := fixed - target
	if greedy < 0 {
		greedy = 0
	}
	return len(l.schedule()) + greedy
}

// MsgWords implements local.WireAlgorithm: one word, the current color.
func (l LinialReduction) MsgWords(int) int { return 1 }

// NewWireProcess implements local.WireAlgorithm.
func (l LinialReduction) NewWireProcess() local.WireProcess {
	return &linialProc{cfg: l, steps: l.schedule()}
}

type linialProc struct {
	cfg   LinialReduction
	steps []struct{ d, p int }
	color uint64
	// greedyFrom is the palette size when the greedy phase starts.
	greedyFrom int
	// nbr is the per-round neighbor color scratch, reused across rounds.
	nbr []uint64
}

// decodeLinialColor rejects anything but a single color word.
func decodeLinialColor(words []uint64) (uint64, bool) {
	if len(words) != 1 {
		return 0, false
	}
	return words[0], true
}

// ResetProcess implements local.ResetProcess, keeping the reduction
// schedule and the neighbor scratch capacity while dropping all
// execution state.
func (p *linialProc) ResetProcess() {
	p.color, p.greedyFrom = 0, 0
	p.nbr = p.nbr[:0]
}

func (p *linialProc) Start(info local.NodeInfo, out *local.Outbox) {
	p.color = uint64(info.ID)
	p.greedyFrom = p.cfg.FixedPointPalette()
	if cap(p.nbr) < info.Degree {
		p.nbr = make([]uint64, 0, info.Degree)
	} else {
		p.nbr = p.nbr[:0]
	}
	out.Broadcast(p.color)
}

func (p *linialProc) Step(round int, in *local.Inbox, out *local.Outbox) bool {
	nbr := p.nbr[:0]
	for port := 0; port < in.Degree(); port++ {
		if !in.Has(port) {
			continue
		}
		c, ok := decodeLinialColor(in.Words(port))
		if !ok {
			panic("construct: Linial reduction received a malformed color word")
		}
		nbr = append(nbr, c)
	}
	if round <= len(p.steps) {
		step := p.steps[round-1]
		p.color = p.reduceOnce(step.d, step.p, nbr)
	} else {
		// Greedy walk: in round len(steps)+k, nodes colored greedyFrom-k
		// recolor to the smallest color unused by their neighbors. The
		// recoloring nodes form an independent set (they all share one
		// color of a proper coloring), so properness is preserved.
		k := round - len(p.steps)
		target := uint64(p.greedyFrom - k)
		if p.color == target {
			p.color = smallestUnused(nbr)
		}
		if int(target) <= p.cfg.TargetColors {
			return true
		}
	}
	out.Broadcast(p.color)
	return false
}

func (p *linialProc) reduceOnce(d, pr int, nbr []uint64) uint64 {
	// Find a point a where our polynomial differs from every differing
	// neighbor polynomial; guaranteed to exist since p > Δ·d.
	for a := 0; a < pr; a++ {
		own := polyEval(p.color, d, pr, a)
		ok := true
		for _, c := range nbr {
			if c == p.color {
				panic("construct: Linial reduction invariant broken (improper input coloring)")
			}
			if polyEval(c, d, pr, a) == own {
				ok = false
				break
			}
		}
		if ok {
			return uint64(a*pr + own)
		}
	}
	panic(fmt.Sprintf("construct: no evaluation point found (p=%d, d=%d, deg=%d)", pr, d, len(nbr)))
}

func (p *linialProc) Output() []byte {
	if p.color > 255 {
		// Palette walks in this repository end at most at Δ+1 <= 255;
		// larger palettes indicate a misconfigured target.
		panic(fmt.Sprintf("construct: Linial output color %d exceeds byte palette", p.color))
	}
	return lang.EncodeColor(int(p.color))
}

// smallestUnused returns the least color not present among the
// neighbors: a linear scan per candidate (degrees are promise-bounded by
// Δ, so this is O(Δ²) worst case) instead of a per-call map, keeping the
// greedy rounds allocation-free.
func smallestUnused(nbr []uint64) uint64 {
	for c := uint64(0); ; c++ {
		used := false
		for _, x := range nbr {
			if x == c {
				used = true
				break
			}
		}
		if !used {
			return c
		}
	}
}

// LinialColoring packages the reduction as a construction algorithm
// producing a (Δ+1)-coloring.
func LinialColoring(maxDegree, maxIDBits int) Algorithm {
	return MessageConstruction{Algo: LinialReduction{
		MaxDegree:    maxDegree,
		MaxIDBits:    maxIDBits,
		TargetColors: maxDegree + 1,
	}}
}

// idBits returns the number of bits needed for the largest identity.
func idBits(maxID int64) int {
	return bits.Len64(uint64(maxID))
}

// LinialColoringFor builds the algorithm sized for a concrete instance.
func LinialColoringFor(in *lang.Instance) Algorithm {
	return LinialColoring(in.G.MaxDegree(), idBits(in.ID.Max()))
}
