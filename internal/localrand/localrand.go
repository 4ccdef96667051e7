// Package localrand provides the deterministic, splittable randomness used
// to model randomized Monte-Carlo algorithms in the LOCAL model.
//
// In the paper (§2.1.2 and §3), a randomized algorithm gives every node a
// private source of independent random bits; the collection of all nodes'
// bit strings, indexed by node identity, forms one element of the space
// Rand(A) of random strings of algorithm A. The proofs of Claims 4 and 5
// condition on a *fixed* string σ ∈ Rand(C) of the construction algorithm
// while integrating over Rand(D) of the decider.
//
// This package makes that conditioning executable: a TapeSpace is a seeded,
// reproducible model of Rand(A); drawing element σ yields per-node Tapes
// addressed by node identity. Fixing σ and resampling an independent space
// is just reusing one seed while varying the other.
package localrand

import "math"

const (
	splitmixGamma = 0x9e3779b97f4a7c15
	mixA          = 0xbf58476d1ce4e5b9
	mixB          = 0x94d049bb133111eb
)

// mix64 is the SplitMix64 finalizer: a bijective mixer with good avalanche
// behaviour, sufficient for simulation-grade pseudo-randomness.
func mix64(z uint64) uint64 {
	z = (z ^ (z >> 30)) * mixA
	z = (z ^ (z >> 27)) * mixB
	return z ^ (z >> 31)
}

// Source is a deterministic stream of pseudo-random values.
type Source struct {
	state uint64
}

// NewSource returns a source seeded with the given value.
func NewSource(seed uint64) *Source {
	return &Source{state: seed}
}

// Clone returns an independent copy of the source at its current
// position. Cloning a pristine (never-consumed) tape and replaying the
// clone models shipping a node's random bit string to another node, which
// §2.1.2 explicitly allows ("these random bits may well be exchanged
// between nodes during the execution").
func (s *Source) Clone() *Source {
	c := *s
	return &c
}

// Uint64 returns the next 64 pseudo-random bits.
func (s *Source) Uint64() uint64 {
	s.state += splitmixGamma
	return mix64(s.state)
}

// Float64 returns a uniform value in [0, 1).
func (s *Source) Float64() float64 {
	return float64(s.Uint64()>>11) / (1 << 53)
}

// Intn returns a uniform value in [0, n). It panics if n <= 0.
func (s *Source) Intn(n int) int {
	if n <= 0 {
		panic("localrand: Intn with non-positive bound")
	}
	// Rejection sampling to avoid modulo bias; the loop terminates quickly
	// because the acceptance probability is at least 1/2.
	bound := uint64(n)
	for {
		v := s.Uint64()
		if intnAccept(v, bound) {
			return int(v % bound)
		}
	}
}

// intnAccept is Intn's rejection rule: accept v iff v < MaxUint64 −
// MaxUint64 % bound, the largest multiple of bound the draw space holds.
// MaxUint64 % bound < bound, so every v ≤ MaxUint64 − bound is accepted
// without the division; only the top bound values of the draw space pay
// for it.
func intnAccept(v, bound uint64) bool {
	return v <= math.MaxUint64-bound || v < math.MaxUint64-math.MaxUint64%bound
}

// Bool returns a fair pseudo-random bit.
func (s *Source) Bool() bool {
	return s.Uint64()&1 == 1
}

// Bernoulli returns true with probability p.
func (s *Source) Bernoulli(p float64) bool {
	return s.Float64() < p
}

// Tape is the private random bit string of a single node, as in §2.1.2:
// "every node has access to a private source of independent random bits".
// A Tape is just a Source whose seed is derived from (space seed, draw
// index, node identity), so the same (σ, node) pair always replays the
// same bits.
type Tape = Source

// TapeSpace models Rand(A) for one algorithm: the probability space of the
// collections of per-node random strings. Distinct algorithms should use
// distinct space seeds so their randomness is independent.
type TapeSpace struct {
	seed uint64
}

// NewTapeSpace returns the tape space identified by seed.
func NewTapeSpace(seed uint64) *TapeSpace {
	return &TapeSpace{seed: seed}
}

// Draw identifies one element σ ∈ Rand(A) by index. Draws with different
// indices are independent streams; the same index always denotes the same
// σ, which is what lets experiments fix σ ∈ Rand(C) (Claim 4) and vary
// only the decider's randomness.
func (ts *TapeSpace) Draw(index uint64) Draw {
	return Draw{seed: mix64(ts.seed ^ mix64(index+1))}
}

// Draw is one fixed element σ of a tape space: a deterministic function
// from node identity to that node's private bit string.
type Draw struct {
	seed uint64
}

// Tape returns the private tape of the node with the given identity under
// this draw. Calling it twice returns identical, independently-positioned
// streams.
func (d Draw) Tape(nodeID int64) *Tape {
	return NewSource(d.tapeSeed(nodeID))
}

// TapeInto rewinds t in place to the start of nodeID's tape under this
// draw — the allocation-free form of Tape used by pooled engines, which
// hold one Tape per node and reseed the slab on every trial. After the
// call, t replays exactly the stream Tape(nodeID) would return.
func (d Draw) TapeInto(t *Tape, nodeID int64) {
	t.state = d.tapeSeed(nodeID)
}

// TapeVecInto rewinds ts[i] to the start of ids[i]'s tape under this draw
// for every i — the batched form of TapeInto. A batched engine holds one
// tape row per trial lane and reseeds the whole row in a single pass
// before the lane starts, so the per-node seeding cost is a tight loop
// over the identity column instead of a closure call per node. It panics
// if the slices disagree in length.
func (d Draw) TapeVecInto(ts []Tape, ids []int64) {
	if len(ts) != len(ids) {
		panic("localrand: TapeVecInto tape row and identity column lengths differ")
	}
	for i, id := range ids {
		ts[i].state = d.tapeSeed(id)
	}
}

// tapeSeed derives the per-node seed of this draw.
func (d Draw) tapeSeed(nodeID int64) uint64 {
	return mix64(d.seed ^ mix64(uint64(nodeID)+0x5bf0_3635))
}

// FaultTape is the dedicated randomness of a fault plan: a positionally
// addressed pseudo-random function over event coordinates, rather than a
// sequentially consumed stream. Fault decisions (drop this delivery?
// crash this node?) are keyed by where and when they happen — (channel,
// round, slot, lane identity) — so the same seed reproduces the same
// faults regardless of iteration order, batch width, shard count, or
// process boundary: the property that keeps faulty runs byte-identical
// across every execution shape. It is deliberately separate from
// TapeSpace: fault randomness must not perturb the algorithms' Rand(A)
// draws, so conditioning experiments keep their meaning under faults.
type FaultTape struct {
	seed uint64
}

// NewFaultTape returns the fault tape identified by seed.
func NewFaultTape(seed uint64) FaultTape {
	return FaultTape{seed: mix64(seed ^ 0x7f4a_7c15_9e37_79b9)}
}

// Row returns the prefix at (channel, a, b) of the tape's word at
// coordinates (channel, a, b, c): a chained SplitMix64 walk, so
// permuting or offsetting coordinates yields independent words (no
// xor-style commutative collisions). The prefix is the three steps every
// last coordinate c shares; a fault pass computes it once per (round,
// slot) or per node and then pays one step per lane.
func (t FaultTape) Row(channel, a, b uint64) FaultRow {
	h := mix64(t.seed + splitmixGamma*(channel+1))
	h = mix64(h + splitmixGamma*(a+1))
	return FaultRow(mix64(h + splitmixGamma*(b+1)))
}

// FaultRow is a fault-tape walk's prefix up to its last coordinate.
type FaultRow uint64

// Word returns the tape's word at the row's coordinates with last
// coordinate c.
func (r FaultRow) Word(c uint64) uint64 {
	return mix64(uint64(r) + splitmixGamma*(c+1))
}

// Hit reports the event of probability p at last coordinate c, given
// thr = Threshold(p): the word's top 53 bits, the uniform variate of
// Source.Float64, compared as an integer.
func (r FaultRow) Hit(thr, c uint64) bool {
	return r.Word(c)>>11 < thr
}

// Threshold returns ⌈p·2⁵³⌉, clamped to [0, 2⁵³]: for every 53-bit x,
// x < Threshold(p) exactly when x/2⁵³ < p, since x is an integer and
// p·2⁵³ is exact in float64. A p that is not positive (NaN included)
// gives 0, an event that never happens.
func Threshold(p float64) uint64 {
	if !(p > 0) {
		return 0
	}
	if p >= 1 {
		return 1 << 53
	}
	return uint64(math.Ceil(p * (1 << 53)))
}

// Derive returns a sub-draw labeled by the given tag, for algorithms that
// need several independent per-node streams (e.g. one per round).
func (d Draw) Derive(tag uint64) Draw {
	return Draw{seed: mix64(d.seed + splitmixGamma*(tag+1))}
}

// Seed returns the draw's identifying word. Together with DrawFromSeed
// it is the wire form of a draw: a shard-worker process handed the seed
// reconstructs σ exactly, so every node's tape is bit-identical on both
// sides of the process boundary.
func (d Draw) Seed() uint64 { return d.seed }

// DrawFromSeed reconstructs the draw identified by seed (see Draw.Seed).
func DrawFromSeed(seed uint64) Draw { return Draw{seed: seed} }
