package construct

import (
	"fmt"
	"math/bits"

	"rlnc/internal/lang"
	"rlnc/internal/local"
)

// ColeVishkin is the deterministic 3-coloring algorithm for oriented
// cycles, matching the Ω(log* n) lower bound of Linial [25] and Naor [27]
// discussed in §1.3. It relies on the cycle generator's port orientation
// (port 0 = successor, port 1 = predecessor), the "common sense of
// direction" the paper grants the ring.
//
// Phase 1 (color reduction): colors start as 64-bit identities; in each
// round a node compares its color with its successor's, finds the lowest
// bit position i where they differ, and recolors to 2i + bit(i). Starting
// from 64-bit values the palette shrinks to {0..5} in IterationsFor64
// rounds — from a universe of b-bit identities it takes Θ(log* b) rounds,
// which is how experiment E7 exhibits the log* growth.
//
// Phase 2 (shift-down): three rounds eliminate colors 5, 4, 3 by letting
// each such node pick the smallest color of {0,1,2} absent from its two
// neighbors.
//
// Nodes must agree on the iteration count, which depends only on the size
// of the identity universe; the paper's lower-bound discussion grants the
// ring knowledge of n (§1.3), and MaxIDBits plays that role here.
type ColeVishkin struct {
	// MaxIDBits bounds the identity universe: ids < 2^MaxIDBits.
	MaxIDBits int
}

// Name implements the algorithm naming convention.
func (cv ColeVishkin) Name() string { return fmt.Sprintf("cole-vishkin(b=%d)", cv.MaxIDBits) }

// cvStep performs one reduction: the lowest differing bit position i
// against the successor, recolored to 2i + ownBit.
func cvStep(own, succ uint64) uint64 {
	diff := own ^ succ
	if diff == 0 {
		panic("construct: Cole-Vishkin invariant broken (equal adjacent colors)")
	}
	i := uint(bits.TrailingZeros64(diff))
	bit := (own >> i) & 1
	return uint64(2*i) + bit
}

// paletteAfter returns the palette bound after one reduction from a
// palette of the given size: colors below q occupy bits(q-1) bits, the
// differing position is at most bits-1, so new colors are < 2*bits.
func paletteAfter(q uint64) uint64 {
	if q <= 6 {
		return 6
	}
	b := uint64(bits.Len64(q - 1))
	return 2 * b
}

// ReductionRounds returns the number of cvStep iterations needed to bring
// a palette of 2^b identities down to {0..5} — the log* b quantity that
// experiment E7 tabulates.
func ReductionRounds(b int) int {
	if b < 1 {
		b = 1
	}
	q := uint64(1) << uint(min(63, b))
	if b >= 64 {
		q = ^uint64(0)
	}
	rounds := 0
	for q > 6 {
		q = paletteAfter(q)
		rounds++
	}
	return rounds
}

// Rounds returns the total round count: one reduction per round (the
// first exchange happens in Start) plus three shift-down rounds.
func (cv ColeVishkin) Rounds() int { return ReductionRounds(cv.MaxIDBits) + 3 }

// MsgWords implements local.WireAlgorithm: one word, the current color.
func (cv ColeVishkin) MsgWords(int) int { return 1 }

// Cycle port convention (see graph.Cycle): port 0 = successor,
// port 1 = predecessor.
const (
	succPort = 0
	predPort = 1
)

// VecWords implements local.VecAlgorithm: one state word per lane, the
// current color. The algorithm is deterministic and the reduction
// schedule is shared by every lane, so nothing else is per-lane.
func (cv ColeVishkin) VecWords() int { return 1 }

// StartVec implements local.VecAlgorithm: every lane's color starts as
// the node's identity, sent both ways (only the successor's value is
// used during reduction, both during shift-down).
func (cv ColeVishkin) StartVec(r *local.VecRange) {
	for v := r.Lo; v < r.Hi; v++ {
		if r.Degree(v) != 2 {
			panic("construct: Cole-Vishkin requires a cycle (degree 2 everywhere)")
		}
		color := r.State(v, 0)
		for b := range color {
			color[b] = uint64(r.ID(v, b))
		}
		r.BroadcastRow(v, color, r.Active(v))
	}
}

// decodeCVColor reads one lane's arrival as a kernel sees it — l is its
// lens entry (0 = no message, n+1 = an n-word payload), w its first slab
// word — and rejects anything but a single color word.
func decodeCVColor(l int32, w uint64) (uint64, bool) {
	return w, l == 2
}

// mustCVColor reads a neighbor's color from a lane's slab row: a
// missing or malformed color is a broken invariant (the ring is
// synchronous: both neighbors send every round until the common halt).
func mustCVColor(lens []int32, words []uint64, b, stride int) uint64 {
	c, ok := decodeCVColor(lens[b], words[b*stride])
	if !ok {
		panic("construct: Cole-Vishkin received a malformed color word")
	}
	return c
}

// StepVec implements local.VecAlgorithm: one reduction (cvStep against
// the successor) per round, then the three shift-down rounds, on every
// active lane of the range.
func (cv ColeVishkin) StepVec(r *local.VecRange, round int) {
	reductions := ReductionRounds(cv.MaxIDBits)
	phase2At := reductions + 1 // round index where shift-down begins
	reducing := round <= reductions
	// Shift-down: rounds phase2At, phase2At+1, phase2At+2 remove colors
	// 5, 4, 3 in that order.
	target := uint64(5 - (round - phase2At))
	for v := r.Lo; v < r.Hi; v++ {
		act := r.Active(v)
		if act == 0 {
			continue
		}
		color := r.State(v, 0)
		succLens, succWords, succStride := r.Recv(v, succPort)
		predLens, predWords, predStride := r.Recv(v, predPort)
		for b := range color {
			if act>>b&1 == 0 {
				continue
			}
			succC := mustCVColor(succLens, succWords, b, succStride)
			predC := mustCVColor(predLens, predWords, b, predStride)
			if reducing {
				color[b] = cvStep(color[b], succC)
			} else if color[b] == target {
				color[b] = smallestFree(predC, succC)
			}
		}
		if round >= phase2At+2 {
			r.Finish(v, act)
			continue
		}
		r.BroadcastRow(v, color, act)
	}
}

// OutputVec implements local.VecAlgorithm.
func (cv ColeVishkin) OutputVec(r *local.VecRange, v, b int) []byte {
	return lang.EncodeColor(int(r.State(v, 0)[b]))
}

// smallestFree returns the smallest color in {0,1,2} differing from both
// arguments; it exists because only two values are excluded.
func smallestFree(a, b uint64) uint64 {
	for c := uint64(0); c <= 2; c++ {
		if c != a && c != b {
			return c
		}
	}
	panic("construct: no free color in {0,1,2}")
}

// ColeVishkinColoring packages the algorithm with run options.
func ColeVishkinColoring(maxIDBits int) Algorithm {
	return MessageConstruction{Algo: ColeVishkin{MaxIDBits: maxIDBits}}
}
