package linial

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"rlnc/internal/graph"
)

func TestColorableKnownGraphs(t *testing.T) {
	cases := []struct {
		name string
		g    *graph.Graph
		k    int
		want bool
	}{
		{"C5 with 3", graph.Cycle(5), 3, true},
		{"C5 with 2", graph.Cycle(5), 2, false},
		{"C6 with 2", graph.Cycle(6), 2, true},
		{"K4 with 3", graph.Complete(4), 3, false},
		{"K4 with 4", graph.Complete(4), 4, true},
		{"Petersen with 3", graph.Petersen(), 3, true},
		{"Petersen with 2", graph.Petersen(), 2, false},
		{"path with 2", graph.Path(7), 2, true},
		{"grid with 2", graph.Grid(3, 4), 2, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ok, coloring, err := Colorable(tc.g, tc.k, 0)
			if err != nil {
				t.Fatal(err)
			}
			if ok != tc.want {
				t.Fatalf("Colorable = %v, want %v", ok, tc.want)
			}
			if ok {
				validateColoring(t, tc.g, coloring, tc.k)
			}
		})
	}
}

func validateColoring(t *testing.T, g *graph.Graph, colors []int, k int) {
	t.Helper()
	for v := 0; v < g.N(); v++ {
		if colors[v] < 0 || colors[v] >= k {
			t.Fatalf("node %d color %d outside [0,%d)", v, colors[v], k)
		}
		for _, w := range g.Neighbors(v) {
			if colors[v] == colors[w] {
				t.Fatalf("edge {%d,%d} monochromatic", v, w)
			}
		}
	}
}

func TestColorableBudget(t *testing.T) {
	// A tiny budget must abort, not lie: on a colorable graph and on a
	// refutation alike.
	for _, tc := range []struct {
		name string
		g    *graph.Graph
	}{
		{"Petersen", graph.Petersen()},
		{"B(8,1)", mustNG(t, 8, 1)},
	} {
		ok, coloring, err := Colorable(tc.g, 3, 2)
		if !errors.Is(err, ErrBudget) || ok || coloring != nil {
			t.Errorf("%s: want ErrBudget alone, got %v, %v, %v", tc.name, ok, coloring, err)
		}
	}
}

// colorableByEnumeration is the reference: a plain backtracking
// enumeration in vertex order, with no ordering heuristic and no symmetry
// breaking. It tries every color at every vertex, pruning only
// assignments that already clash.
func colorableByEnumeration(g *graph.Graph, k int) bool {
	colors := make([]int, g.N())
	var rec func(v int) bool
	rec = func(v int) bool {
		if v == g.N() {
			return true
		}
	next:
		for c := 0; c < k; c++ {
			for _, w := range g.Neighbors(v) {
				if int(w) < v && colors[w] == c {
					continue next
				}
			}
			colors[v] = c
			if rec(v + 1) {
				return true
			}
		}
		return false
	}
	return rec(0)
}

// randomInstance is one graph and palette of the random comparison
// set.
type randomInstance struct {
	g *graph.Graph
	k int
}

// randomInstances draws 600 random graphs on 1–10 vertices, with edge
// densities 0.15–0.85 and palettes of 2–4 colors.
func randomInstances() []randomInstance {
	rng := rand.New(rand.NewSource(13))
	out := make([]randomInstance, 0, 600)
	for trial := 0; trial < 600; trial++ {
		n := 1 + rng.Intn(10)
		k := 2 + rng.Intn(3)
		p := 0.15 + 0.7*rng.Float64()
		b := graph.NewBuilder(n)
		for u := 0; u < n; u++ {
			for v := u + 1; v < n; v++ {
				if rng.Float64() < p {
					b.AddEdge(u, v)
				}
			}
		}
		out = append(out, randomInstance{b.MustBuild(), k})
	}
	return out
}

func TestColorableMatchesEnumeration(t *testing.T) {
	verdicts := map[bool]int{}
	for trial, in := range randomInstances() {
		g, k, n := in.g, in.k, in.g.N()
		want := colorableByEnumeration(g, k)
		verdicts[want]++
		ok, coloring, err := Colorable(g, k, 0)
		if err != nil {
			t.Fatalf("trial %d (n=%d, k=%d): %v", trial, n, k, err)
		}
		if ok != want {
			t.Fatalf("trial %d (n=%d, k=%d, edges %v): Colorable = %v, enumeration says %v",
				trial, n, k, g.Edges(), ok, want)
		}
		if ok {
			validateColoring(t, g, coloring, k)
		} else if coloring != nil {
			t.Fatalf("trial %d: refutation returned a coloring %v", trial, coloring)
		}
	}
	if verdicts[true] < 100 || verdicts[false] < 100 {
		t.Fatalf("random graphs too one-sided to compare: %v", verdicts)
	}
}

// TestColorableRefutesNeighborhoodGraphs pins that E7b's two
// refutations finish inside its quick budget: B(7,1) is not
// 3-colorable, and neither is B(8,1), which contains it.
func TestColorableRefutesNeighborhoodGraphs(t *testing.T) {
	for _, n := range []int{7, 8} {
		ok, coloring, err := Colorable(mustNG(t, n, 1), 3, 5_000_000)
		if err != nil || ok || coloring != nil {
			t.Errorf("B(%d,1): want a refutation, got %v, %v, %v", n, ok, coloring, err)
		}
	}
}

func TestPatternGraphSelfLoopAtMonotone(t *testing.T) {
	for _, radius := range []int{1, 2, 3} {
		pg := BuildPatternGraph(radius)
		if len(pg.Patterns) != factorialInt(2*radius+1) {
			t.Fatalf("t=%d: %d patterns, want (2t+1)!", radius, len(pg.Patterns))
		}
		if !pg.HasSelfLoopAtMonotone() {
			t.Errorf("t=%d: monotone pattern has no self-loop — the Section 4 engine is broken", radius)
		}
		if pg.SelfLoopCount() < 1 {
			t.Errorf("t=%d: no self-loops at all", radius)
		}
	}
}

func factorialInt(n int) int {
	f := 1
	for i := 2; i <= n; i++ {
		f *= i
	}
	return f
}

// compatible reports whether two patterns can appear on consecutive
// windows by comparing every pair of shared positions: the order p
// induces on p[1:] must be the order q induces on q[:w-1].
func compatible(p, q []int) bool {
	w := len(p)
	for i := 1; i < w; i++ {
		for j := i + 1; j < w; j++ {
			if (p[i] < p[j]) != (q[i-1] < q[j-1]) {
				return false
			}
		}
	}
	return true
}

// TestPatternGraphMatchesPairwise checks the construction by overlap key
// against the pairwise reference that tests all (2t+1)!² pattern pairs
// with compatible, adjacency list by adjacency list in order.
func TestPatternGraphMatchesPairwise(t *testing.T) {
	for _, radius := range []int{1, 2, 3} {
		pg := BuildPatternGraph(radius)
		for i, p := range pg.Patterns {
			var adj []int
			self := false
			for j, q := range pg.Patterns {
				if !compatible(p, q) {
					continue
				}
				if i == j {
					self = true
				} else {
					adj = append(adj, j)
				}
			}
			if pg.SelfLoop[i] != self || !slices.Equal(pg.Adj[i], adj) {
				t.Fatalf("t=%d pattern %v: self-loop %v, adjacency %v; pairwise reference %v, %v",
					radius, p, pg.SelfLoop[i], pg.Adj[i], self, adj)
			}
		}
	}
}

func TestPatternCompatibility(t *testing.T) {
	// Increasing followed by increasing: consecutive windows of a
	// monotone sequence. Must be compatible.
	inc := []int{0, 1, 2}
	if !compatible(inc, inc) {
		t.Error("monotone self-compatibility missing")
	}
	// (0,1,2) then (2,1,0): overlap of the first says x1<x2; of the
	// second says x1>x2. Incompatible.
	dec := []int{2, 1, 0}
	if compatible(inc, dec) {
		t.Error("contradictory overlap accepted")
	}
}

func TestNeighborhoodGraphStructure(t *testing.T) {
	g, err := NeighborhoodGraph(5, 1)
	if err != nil {
		t.Fatal(err)
	}
	if g.N() != NeighborhoodGraphSize(5, 1) {
		t.Errorf("B(5,1): %d vertices, want %d", g.N(), NeighborhoodGraphSize(5, 1))
	}
	if g.N() != 5*4*3 {
		t.Errorf("B(5,1) should have 60 vertices, has %d", g.N())
	}
	// Every vertex has successors: for each tuple there are n-3 fresh ids
	// extending it and n-3 preceding it (possibly overlapping as
	// undirected edges).
	if g.M() == 0 {
		t.Fatal("B(5,1) has no edges")
	}
	if _, err := NeighborhoodGraph(3, 1); err == nil {
		t.Error("n=3 should be rejected for t=1")
	}
}

func TestNeighborhoodGraphColorabilityTransition(t *testing.T) {
	// The Linial lower-bound machine: find 3-colorability of B(n,1) for
	// small n. It must be 3-colorable for tiny n (few constraints). The
	// non-3-colorability threshold for larger n is what experiment E7
	// reports; here we pin the small cases and monotonicity of the
	// verdicts we can afford to compute.
	okSmall, _, err := Colorable(mustNG(t, 4, 1), 3, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !okSmall {
		t.Error("B(4,1) should be 3-colorable")
	}
}

func mustNG(t *testing.T, n, radius int) *graph.Graph {
	t.Helper()
	g, err := NeighborhoodGraph(n, radius)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// neighborhoodGraphByKeys is the reference construction of B(n, t):
// tuples keyed by their printed form in a map, and a set of the edges
// already added.
func neighborhoodGraphByKeys(n, t int) *graph.Graph {
	w := 2*t + 1
	var tuples [][]int
	tuple := make([]int, w)
	used := make([]bool, n+1)
	var rec func(k int)
	rec = func(k int) {
		if k == w {
			tuples = append(tuples, slices.Clone(tuple))
			return
		}
		for id := 1; id <= n; id++ {
			if !used[id] {
				used[id] = true
				tuple[k] = id
				rec(k + 1)
				used[id] = false
			}
		}
	}
	rec(0)
	index := make(map[string]int, len(tuples))
	for i, tp := range tuples {
		index[fmt.Sprint(tp)] = i
	}
	b := graph.NewBuilder(len(tuples))
	seen := make(map[[2]int]bool)
	for i, tp := range tuples {
		for id := 1; id <= n; id++ {
			if slices.Contains(tp, id) {
				continue
			}
			j := index[fmt.Sprint(append(slices.Clone(tp[1:]), id))]
			e := [2]int{min(i, j), max(i, j)}
			if !seen[e] {
				seen[e] = true
				b.AddEdge(i, j)
			}
		}
	}
	return b.MustBuild()
}

// TestNeighborhoodGraphMatchesReference checks the integer-coded
// construction against the map-keyed one. It compares the neighbor
// lists in order, not just the edge sets, since the solver's search
// order follows the vertex numbering and the adjacency order.
func TestNeighborhoodGraphMatchesReference(t *testing.T) {
	cases := [][2]int{{4, 1}, {5, 1}, {6, 1}, {7, 1}, {8, 1}, {9, 1}, {6, 2}, {7, 2}}
	for _, c := range cases {
		n, radius := c[0], c[1]
		got, want := mustNG(t, n, radius), neighborhoodGraphByKeys(n, radius)
		if got.N() != want.N() || got.M() != want.M() {
			t.Fatalf("B(%d,%d): %d vertices, %d edges; reference %d, %d",
				n, radius, got.N(), got.M(), want.N(), want.M())
		}
		for v := 0; v < got.N(); v++ {
			if !slices.Equal(got.Neighbors(v), want.Neighbors(v)) {
				t.Fatalf("B(%d,%d): vertex %d neighbors %v, reference %v",
					n, radius, v, got.Neighbors(v), want.Neighbors(v))
			}
		}
	}
}

// colorableFrozen is the solver as it stood before bucketed selection,
// kept verbatim as the differential reference: an O(n) scan per search
// state picks the DSATUR vertex. It also returns the number of search
// states it entered.
func colorableFrozen(g *graph.Graph, k int, budget int64) (bool, []int, int64, error) {
	n := g.N()
	if k < 0 {
		return false, nil, 0, fmt.Errorf("linial: negative palette")
	}
	if n == 0 {
		return true, nil, 0, nil
	}
	if budget == 0 {
		budget = 50_000_000
	}
	colors := make([]int, n)
	for i := range colors {
		colors[i] = -1
	}
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
		return false, nil, nodes, err
	}
	if !ok {
		return false, nil, nodes, nil
	}
	return true, colors, nodes, nil
}

// TestColorableMatchesFrozenSolver checks that Colorable enters the same
// search states in the same order as colorableFrozen: the same verdict
// and the same coloring at the default budget, ErrBudget from both one
// state short of the reference's count, and an answer from both at
// exactly that count.
func TestColorableMatchesFrozenSolver(t *testing.T) {
	type instance struct {
		name string
		g    *graph.Graph
		k    int
	}
	var cases []instance
	for i, in := range randomInstances() {
		for _, k := range []int{2, 3, 4} {
			cases = append(cases, instance{fmt.Sprintf("random %d", i), in.g, k})
		}
	}
	for _, k := range []int{2, 3, 4} {
		cases = append(cases,
			instance{"Petersen", graph.Petersen(), k},
			instance{"K4", graph.Complete(4), k},
			instance{"grid", graph.Grid(3, 4), k})
	}
	for n := 4; n <= 8; n++ {
		cases = append(cases, instance{fmt.Sprintf("B(%d,1)", n), mustNG(t, n, 1), 3})
	}
	frozen := func(g *graph.Graph, k int, budget int64) (bool, []int, error) {
		ok, colors, _, err := colorableFrozen(g, k, budget)
		return ok, colors, err
	}
	solvers := []struct {
		name  string
		solve func(*graph.Graph, int, int64) (bool, []int, error)
	}{{"reference", frozen}, {"Colorable", Colorable}}
	for _, tc := range cases {
		wantOK, wantColors, states, err := colorableFrozen(tc.g, tc.k, 0)
		if err != nil {
			t.Fatalf("%s k=%d: reference: %v", tc.name, tc.k, err)
		}
		if ok, colors, err := Colorable(tc.g, tc.k, 0); err != nil || ok != wantOK || !slices.Equal(colors, wantColors) {
			t.Fatalf("%s k=%d: Colorable = %v, %v, %v; reference %v, %v",
				tc.name, tc.k, ok, colors, err, wantOK, wantColors)
		}
		for _, sv := range solvers {
			// A budget of 0 selects the default, so one state short is
			// only expressible when the reference entered two or more.
			if states > 1 {
				if _, _, err := sv.solve(tc.g, tc.k, states-1); !errors.Is(err, ErrBudget) {
					t.Fatalf("%s k=%d: %s at budget %d, one short of %d states: got %v, want ErrBudget",
						tc.name, tc.k, sv.name, states-1, states, err)
				}
			}
			if ok, colors, err := sv.solve(tc.g, tc.k, states); err != nil || ok != wantOK ||
				!slices.Equal(colors, wantColors) {
				t.Fatalf("%s k=%d: %s at budget %d, the reference's state count: got %v, %v, %v",
					tc.name, tc.k, sv.name, states, ok, colors, err)
			}
		}
	}
}
