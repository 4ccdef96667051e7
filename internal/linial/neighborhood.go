package linial

import (
	"fmt"
	"slices"

	"rlnc/internal/graph"
)

// PatternGraph is the adjacency structure of order patterns: vertices are
// the permutations of the 2t+1 window positions of a t-round view on the
// oriented ring, and two patterns are adjacent when consecutive windows of
// some identity sequence realize them. Self-loops are possible — and
// decisive: a t-round order-invariant algorithm is a coloring of this
// graph, so a self-loop at pattern P means every such algorithm produces
// adjacent equal outputs on sequences realizing P twice in a row. The
// monotone (consecutive-identity) pattern always has a self-loop, which is
// exactly the Section 4 argument.
type PatternGraph struct {
	T int
	// Patterns lists the rank patterns (permutation of 0..2t) indexing
	// the vertices.
	Patterns [][]int
	// Adj is the simple adjacency (no self-loops).
	Adj [][]int
	// SelfLoop flags vertices adjacent to themselves.
	SelfLoop []bool
}

// permutationsOf generates all permutations of 0..n-1 in lexicographic
// generation order.
func permutationsOf(n int) [][]int {
	base := make([]int, n)
	for i := range base {
		base[i] = i
	}
	var out [][]int
	var rec func(k int)
	rec = func(k int) {
		if k == n {
			out = append(out, append([]int(nil), base...))
			return
		}
		for i := k; i < n; i++ {
			base[k], base[i] = base[i], base[k]
			rec(k + 1)
			base[k], base[i] = base[i], base[k]
		}
	}
	rec(0)
	return out
}

// rankKey encodes the rank pattern of a sequence of distinct values as
// Σ rank(s[i])·len(s)^i, where rank counts the smaller values: two
// sequences get the same key exactly when they induce the same order.
func rankKey(s []int) int {
	key := 0
	for i := len(s) - 1; i >= 0; i-- {
		rank := 0
		for _, x := range s {
			if x < s[i] {
				rank++
			}
		}
		key = key*len(s) + rank
	}
	return key
}

// BuildPatternGraph constructs the pattern graph for radius t (window
// width w = 2t+1).
//
// Patterns p and q can appear on consecutive windows exactly when they
// induce the same order on the 2t shared positions, p[1:] and q[:w-1]:
// the fresh endpoints can then always be placed, so agreement on the
// overlap is both necessary and sufficient. Grouping the patterns by the
// rank key of q[:w-1] therefore lists each pattern's neighbors as the
// group of its p[1:] key, in ascending order.
func BuildPatternGraph(t int) *PatternGraph {
	w := 2*t + 1
	patterns := permutationsOf(w)
	pg := &PatternGraph{
		T:        t,
		Patterns: patterns,
		Adj:      make([][]int, len(patterns)),
		SelfLoop: make([]bool, len(patterns)),
	}
	byPrefix := make(map[int][]int)
	for j, q := range patterns {
		key := rankKey(q[:w-1])
		byPrefix[key] = append(byPrefix[key], j)
	}
	for i, p := range patterns {
		for _, j := range byPrefix[rankKey(p[1:])] {
			if i == j {
				pg.SelfLoop[i] = true
				continue
			}
			pg.Adj[i] = append(pg.Adj[i], j)
		}
	}
	return pg
}

// MonotoneIndex returns the vertex index of the strictly increasing
// pattern (0, 1, ..., 2t), the pattern realized at every interior node of
// a consecutive-identity ring window.
func (pg *PatternGraph) MonotoneIndex() int {
	for i, p := range pg.Patterns {
		mono := true
		for j, r := range p {
			if r != j {
				mono = false
				break
			}
		}
		if mono {
			return i
		}
	}
	return -1
}

// HasSelfLoopAtMonotone reports the decisive structural fact: the
// increasing pattern is self-adjacent (two consecutive windows of
// 1, 2, ..., m are both increasing), hence no order-invariant algorithm
// of radius t properly colors all rings with any palette.
func (pg *PatternGraph) HasSelfLoopAtMonotone() bool {
	i := pg.MonotoneIndex()
	return i >= 0 && pg.SelfLoop[i]
}

// SelfLoopCount returns the number of self-adjacent patterns.
func (pg *PatternGraph) SelfLoopCount() int {
	count := 0
	for _, s := range pg.SelfLoop {
		if s {
			count++
		}
	}
	return count
}

// NeighborhoodGraph builds Linial's identity neighborhood graph B(n, t)
// for the oriented ring: vertices are (2t+1)-tuples of distinct
// identities from [n] (a node's ordered view of the identities around it)
// and edges join tuples that can be consecutive views — overlapping by a
// shift of one with all 2t+2 identities distinct. Any t-round algorithm
// that properly 3-colors every oriented ring with identities from [n]
// induces a proper 3-coloring of B(n, t), so non-3-colorability of
// B(n, t) is a lower bound certificate ([25]).
//
// The construction materializes n·(n-1)·...·(n-2t) vertices and an
// index of (n+1)^(2t+1) entries; it is meant for t = 1 and small n.
func NeighborhoodGraph(n, t int) (*graph.Graph, error) {
	w := 2*t + 1
	if n < w+1 {
		return nil, fmt.Errorf("linial: need n >= %d for radius %d", w+1, t)
	}
	// Enumerate all ordered w-tuples of distinct ids from 1..n, flat, in
	// lexicographic order. A tuple's code reads it as a base-(n+1)
	// number; index maps codes to vertices.
	base := n + 1
	lead := 1 // place value of a tuple's first id
	for i := 1; i < w; i++ {
		lead *= base
	}
	index := make([]int32, lead*base)
	size := NeighborhoodGraphSize(n, t)
	tuples := make([]int, 0, size*w)
	codes := make([]int, 0, size)
	tuple := make([]int, w)
	used := make([]bool, n+1)
	var rec func(k, code int)
	rec = func(k, code int) {
		if k == w {
			index[code] = int32(len(codes))
			codes = append(codes, code)
			tuples = append(tuples, tuple...)
			return
		}
		for id := 1; id <= n; id++ {
			if used[id] {
				continue
			}
			used[id] = true
			tuple[k] = id
			rec(k+1, code*base+id)
			used[id] = false
		}
	}
	rec(0, 0)

	// Each tuple gains an edge to every successor view: shift left by
	// one, append a fresh id. A successor is never also a predecessor
	// (that would repeat an id), so each edge is added once; the builder
	// rejects a repeat.
	b := graph.NewBuilder(size)
	for i, code := range codes {
		tp := tuples[i*w : (i+1)*w]
		shifted := (code - tp[0]*lead) * base
		for id := 1; id <= n; id++ {
			if !slices.Contains(tp, id) {
				b.AddEdge(i, int(index[shifted+id]))
			}
		}
	}
	return b.Build()
}

// NeighborhoodGraphSize predicts the vertex count of B(n, t).
func NeighborhoodGraphSize(n, t int) int {
	w := 2*t + 1
	size := 1
	for i := 0; i < w; i++ {
		size *= n - i
	}
	return size
}
