// Package linial makes the ring-coloring lower bounds discussed in §1.3
// and §4 of the paper computational:
//
//   - an exact k-colorability solver (DSATUR-ordered backtracking with
//     color-symmetry breaking and a search budget), fast enough to refute
//     3-colorability of B(8, 1) outright;
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
	colors := make([]int, n)
	for i := range colors {
		colors[i] = -1
	}
	// neighborColors[v] tracks how many neighbors of v use each color;
	// satDegree[v] counts the distinct ones, and uncolored[v] the
	// neighbors of v not yet picked.
	neighborColors := make([][]int32, n)
	satDegree := make([]int, n)
	uncolored := make([]int, n)
	for v := 0; v < n; v++ {
		neighborColors[v] = make([]int32, k)
		uncolored[v] = g.Degree(v)
	}
	var nodes int64
	var solve func(assigned, maxUsed int) (bool, error)
	solve = func(assigned, maxUsed int) (bool, error) {
		if assigned == n {
			return true, nil
		}
		nodes++
		if nodes > budget {
			return false, ErrBudget
		}
		best := -1
		for v := 0; v < n; v++ {
			if colors[v] != -1 {
				continue
			}
			if best == -1 || satDegree[v] > satDegree[best] ||
				(satDegree[v] == satDegree[best] && uncolored[v] > uncolored[best]) {
				best = v
			}
		}
		nbrs := g.Neighbors(best)
		for _, w := range nbrs {
			uncolored[w]--
		}
		for c := 0; c < k && c <= maxUsed+1; c++ {
			if neighborColors[best][c] > 0 {
				continue
			}
			colors[best] = c
			for _, w := range nbrs {
				if neighborColors[w][c] == 0 {
					satDegree[w]++
				}
				neighborColors[w][c]++
			}
			ok, err := solve(assigned+1, max(maxUsed, c))
			if ok || err != nil {
				return ok, err
			}
			for _, w := range nbrs {
				neighborColors[w][c]--
				if neighborColors[w][c] == 0 {
					satDegree[w]--
				}
			}
			colors[best] = -1
		}
		for _, w := range nbrs {
			uncolored[w]++
		}
		return false, nil
	}
	ok, err := solve(0, -1)
	if err != nil {
		return false, nil, err
	}
	if !ok {
		return false, nil, nil
	}
	return true, colors, nil
}
