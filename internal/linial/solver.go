// Package linial makes the ring-coloring lower bounds discussed in §1.3
// and §4 of the paper computational:
//
//   - an exact k-colorability solver (DSATUR-ordered backtracking with
//     color-symmetry breaking and a search budget), fast enough to refute
//     3-colorability of B(8, 1) outright; it keeps every uncolored vertex
//     in a bucket by its (saturation, uncolored-neighbor) key, so a search
//     state finds its vertex without scanning the graph;
//   - the order-pattern adjacency graph of t-round order-invariant
//     algorithms on the ring, whose self-loop at the monotone pattern
//     proves that no order-invariant algorithm properly colors all rings
//     at any constant radius with any finite palette (the engine behind
//     the Section 4 argument);
//   - Linial's identity neighborhood graph B(n, t) for the oriented ring,
//     whose chromatic number lower-bounds the palette of any t-round
//     algorithm with identities from [n] ([25], [27]).
package linial

import (
	"errors"
	"fmt"
	"math/bits"

	"rlnc/internal/graph"
)

// ErrBudget reports an exhausted search budget: the instance is neither
// proved colorable nor uncolorable.
var ErrBudget = errors.New("linial: search budget exhausted")

// Colorable decides exact k-colorability by DSATUR-ordered backtracking:
// each search state colors the uncolored vertex with the most distinct
// neighbor colors, breaking ties on the most uncolored neighbors (kept
// incrementally, so the order adapts on regular graphs such as B(n, 1)),
// then on the lowest index.
//
// Color symmetry is broken: with colors 0..maxUsed in use, the chosen
// vertex tries only colors up to maxUsed+1. This loses no coloring, since
// the unused colors are interchangeable: permuting them maps any coloring
// that extends the current state onto one that gives the chosen vertex
// color maxUsed+1, and permuting colors changes no saturation, so the
// search below is the same up to that renaming. A refutation therefore
// explores each partial coloring once instead of once per permutation of
// the palette.
//
// The vertex is found without scanning the graph. Every uncolored vertex
// is one bit in the n-bit bitset, or bucket, of its key sat·(Δ+1)+unc,
// where sat is its saturation, unc its uncolored-neighbor count and Δ
// the maximum degree, so keys order vertices by saturation, then by unc.
// A search state takes the lowest set bit of the highest non-empty
// bucket; coloring a vertex moves only its neighbors between buckets, and
// backtracking moves them back. The order is exactly the one above, so
// the states entered, the coloring returned and the budget cut-off do not
// depend on how the vertex is found. The buckets take
// (min(k, Δ)+1)·(Δ+1)·⌈n/64⌉ words.
//
// budget caps the number of search states entered, one node each (0
// selects a large default); exceeding it returns ErrBudget rather than a
// wrong answer.
func Colorable(g *graph.Graph, k int, budget int64) (bool, []int, error) {
	n := g.N()
	if k < 0 {
		return false, nil, fmt.Errorf("linial: negative palette")
	}
	if n == 0 {
		return true, nil, nil
	}
	if budget == 0 {
		budget = 50_000_000
	}
	s := newSolver(g, k, budget)
	ok, err := s.solve(0, -1)
	if err != nil {
		return false, nil, err
	}
	if !ok {
		return false, nil, nil
	}
	colors := make([]int, n)
	for v, c := range s.color {
		colors[v] = int(c)
	}
	return true, colors, nil
}

// solver is the search state of one Colorable call. Vertex v's neighbors
// are adj[off[v]:off[v+1]], nc[v·k+c] counts v's neighbors colored c,
// and color[v] is -1 while v is uncolored.
//
// The buckets are n-bit bitsets, span words each, laid end to end in
// set in key order. at[v] is where the bitset of v's key starts, so a
// change of one in v's uncolored-neighbor count moves at[v] by span and
// a change of one in its saturation by satSpan = (Δ+1)·span. Each
// uncolored vertex is one bit, in the bitset at at[v]; a colored vertex
// keeps its at[v] current but sets no bit. No bitset starting above top
// has a bit set.
type solver struct {
	n, k, span, satSpan, top int
	off, adj                 []int32
	nc, color                []int32
	at                       []int
	set                      []uint64
	nodes, budget            int64
}

func newSolver(g *graph.Graph, k int, budget int64) *solver {
	n := g.N()
	// A search state tries colors up to maxUsed+1 ≤ assigned < n, so no
	// color at or above n is ever tried.
	k = min(k, n)
	delta := g.MaxDegree()
	// Saturation is at most min(k, Δ) and the uncolored-neighbor count at
	// most Δ.
	keys := (min(k, delta) + 1) * (delta + 1)
	span := (n + 63) / 64
	s := &solver{
		n: n, k: k, span: span, satSpan: (delta + 1) * span,
		off:    make([]int32, n+1),
		adj:    make([]int32, 0, 2*g.M()),
		at:     make([]int, n),
		set:    make([]uint64, keys*span),
		budget: budget,
	}
	// nc and color share one slab.
	slab := make([]int32, n*k+n)
	s.nc, s.color = slab[:n*k], slab[n*k:]
	for v := 0; v < n; v++ {
		s.adj = append(s.adj, g.Neighbors(v)...)
		s.off[v+1] = int32(len(s.adj))
		s.at[v] = g.Degree(v) * span
		s.color[v] = -1
		s.insert(int32(v))
	}
	return s
}

// insert sets uncolored vertex v's bit.
func (s *solver) insert(v int32) {
	b := s.at[v]
	s.set[b+int(v>>6)] |= 1 << (v & 63)
	s.top = max(s.top, b)
}

// remove clears vertex v's bit.
func (s *solver) remove(v int32) {
	s.set[s.at[v]+int(v>>6)] &^= 1 << (v & 63)
}

// shift moves at[w] by d, and w's bit with it if w is uncolored.
func (s *solver) shift(w int32, d int) {
	b := s.at[w]
	to := b + d
	s.at[w] = to
	if s.color[w] < 0 {
		bit := uint64(1) << (w & 63)
		s.set[b+int(w>>6)] &^= bit
		s.set[to+int(w>>6)] |= bit
		s.top = max(s.top, to)
	}
}

// pick returns the lowest uncolored vertex in the highest non-empty
// bucket, scanning down from top. Some vertex is uncolored whenever it
// is called.
func (s *solver) pick() int32 {
	for b := s.top; ; b -= s.span {
		for j, x := range s.set[b : b+s.span] {
			if x != 0 {
				s.top = b
				return int32(j<<6 + bits.TrailingZeros64(x))
			}
		}
	}
}

// solve enters one search state with assigned vertices colored, using
// colors 0..maxUsed. The chosen vertex is never its own neighbor, so no
// shift touches it while its bit is clear.
func (s *solver) solve(assigned int, maxUsed int32) (bool, error) {
	if assigned == s.n {
		return true, nil
	}
	s.nodes++
	if s.nodes > s.budget {
		return false, ErrBudget
	}
	v := s.pick()
	s.remove(v)
	nbrs := s.adj[s.off[v]:s.off[v+1]]
	for _, w := range nbrs {
		s.shift(w, -s.span)
	}
	own := s.nc[int(v)*s.k : int(v+1)*s.k]
	for c := int32(0); int(c) < s.k && c <= maxUsed+1; c++ {
		if own[c] > 0 {
			continue
		}
		s.color[v] = c
		for _, w := range nbrs {
			i := int(w)*s.k + int(c)
			if s.nc[i] == 0 {
				s.shift(w, s.satSpan)
			}
			s.nc[i]++
		}
		ok, err := s.solve(assigned+1, max(maxUsed, c))
		if ok || err != nil {
			return ok, err
		}
		for _, w := range nbrs {
			i := int(w)*s.k + int(c)
			if s.nc[i]--; s.nc[i] == 0 {
				s.shift(w, -s.satSpan)
			}
		}
		s.color[v] = -1
	}
	for _, w := range nbrs {
		s.shift(w, s.span)
	}
	s.insert(v)
	return false, nil
}
