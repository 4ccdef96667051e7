package graph

import (
	"fmt"
	"strings"
	"testing"
	"time"
)

// checkTopology cross-validates a topology against the adjacency API.
func checkTopology(t *testing.T, g *Graph) {
	t.Helper()
	topo, err := g.Topology()
	if err != nil {
		t.Fatalf("Topology: %v", err)
	}
	if topo.NumNodes() != g.N() || topo.NumSlots() != 2*g.M() {
		t.Fatalf("shape: %d nodes / %d slots, want %d / %d",
			topo.NumNodes(), topo.NumSlots(), g.N(), 2*g.M())
	}
	for v := 0; v < g.N(); v++ {
		if topo.Degree(v) != g.Degree(v) {
			t.Fatalf("node %d: degree %d, want %d", v, topo.Degree(v), g.Degree(v))
		}
		lo, hi := topo.Slots(v)
		for p, w := range g.Neighbors(v) {
			s := lo + p
			if s >= hi {
				t.Fatalf("node %d: slot range too small", v)
			}
			if topo.Nbrs[s] != w {
				t.Fatalf("node %d port %d: nbr %d, want %d", v, p, topo.Nbrs[s], w)
			}
			// The reverse slot must be w's directed edge back to v, and the
			// pairing must be involutive.
			r := topo.RevSlot[s]
			wlo, whi := topo.Slots(int(w))
			if int(r) < wlo || int(r) >= whi {
				t.Fatalf("node %d port %d: reverse slot %d outside node %d", v, p, r, w)
			}
			if topo.Nbrs[r] != int32(v) {
				t.Fatalf("node %d port %d: reverse edge points at %d", v, p, topo.Nbrs[r])
			}
			if topo.RevSlot[r] != int32(s) {
				t.Fatalf("node %d port %d: RevSlot not involutive", v, p)
			}
			// InPort must agree with a direct scan of w's port numbering.
			q := topo.InPort(v, p)
			if g.Neighbor(int(w), q) != v {
				t.Fatalf("node %d port %d: InPort %d does not map back", v, p, q)
			}
		}
	}
}

func TestTopologyFamilies(t *testing.T) {
	rr, err := RandomRegular(40, 4, 11)
	if err != nil {
		t.Fatal(err)
	}
	gnp, err := ConnectedGNP(30, 0.2, 3)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		g    *Graph
	}{
		{"cycle", Cycle(9)},
		{"path", Path(7)},
		{"star", Star(6)},
		{"complete", Complete(5)},
		{"grid", Grid(4, 5)},
		{"torus", Torus(4, 4)},
		{"tree", CompleteTree(3, 3)},
		{"petersen", Petersen()},
		{"random-regular", rr},
		{"connected-gnp", gnp},
	} {
		t.Run(tc.name, func(t *testing.T) { checkTopology(t, tc.g) })
	}
}

func TestTopologyCached(t *testing.T) {
	g := Cycle(6)
	a, err := g.Topology()
	if err != nil {
		t.Fatal(err)
	}
	b, err := g.Topology()
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Error("Topology not cached: two calls returned distinct tables")
	}
}

func TestTopologyAsymmetricAdjacency(t *testing.T) {
	// Hand-rolled adjacency whose edge lacks its reverse must be
	// reported, naming the edge, not silently miswired: node 0 lists 1
	// and not vice versa; a directed triangle, where every node has
	// equally many in- and out-slots; and a bad slot beside good ones.
	for _, tc := range []struct {
		adj  [][]int32
		edge string
	}{
		{[][]int32{{1}, {}}, "{0,1}"},
		{[][]int32{{1}, {2}, {0}}, "{0,1}"},
		{[][]int32{{1, 2}, {0}, {}, {}}, "{0,2}"},
		{[][]int32{{1}, {0, 3}, {}, {}}, "{1,3}"},
	} {
		g := &Graph{adj: tc.adj}
		_, err := g.Topology()
		if err == nil || !strings.Contains(err.Error(), "asymmetric adjacency at edge "+tc.edge) {
			t.Errorf("%v: error %v, want the asymmetric edge %s named", tc.adj, err, tc.edge)
		}
	}
	// Malformed rows are errors too, never a panic or a miswiring.
	for _, adj := range [][][]int32{{{1}, {0, 5}}, {{0}}, {{1, 1}, {0, 0}}} {
		if _, err := (&Graph{adj: adj}).Topology(); err == nil {
			t.Errorf("%v: malformed adjacency not detected", adj)
		}
	}
}

// mapRevSlot is the reference reverse-slot pairing: the first visit of
// an undirected edge parks its slot in a map keyed by its endpoints, the
// second wires both directions.
func mapRevSlot(adj [][]int32) []int32 {
	type edge struct{ lo, hi int32 }
	var rev []int32
	pending := map[edge]int32{}
	for v, nb := range adj {
		for _, w := range nb {
			s := int32(len(rev))
			rev = append(rev, -1)
			key := edge{min(int32(v), w), max(int32(v), w)}
			if other, ok := pending[key]; ok {
				rev[s], rev[other] = other, s
				delete(pending, key)
			} else {
				pending[key] = s
			}
		}
	}
	return rev
}

// TestRevSlotMatchesMapPairing pins the counting-sort pairing against
// the map-based one on every named family and on random regular graphs.
func TestRevSlotMatchesMapPairing(t *testing.T) {
	var graphs []*Graph
	var names []string
	for _, name := range Families() {
		for _, n := range []int{3, 5, 8} {
			g, err := Family(name, n)
			if err != nil {
				t.Fatal(err)
			}
			graphs, names = append(graphs, g), append(names, fmt.Sprintf("%s/%d", name, n))
		}
	}
	for seed := uint64(1); seed <= 6; seed++ {
		for _, d := range []int{1, 3, 4} {
			g, err := RandomRegular(60, d, seed)
			if err != nil {
				continue // an odd n·d has no d-regular graph
			}
			graphs, names = append(graphs, g), append(names, fmt.Sprintf("random-regular/d%d/seed%d", d, seed))
		}
	}
	for i, g := range graphs {
		topo, err := g.Topology()
		if err != nil {
			t.Fatalf("%s: %v", names[i], err)
		}
		want := mapRevSlot(g.adj)
		if len(want) != len(topo.RevSlot) {
			t.Fatalf("%s: %d slots, want %d", names[i], len(topo.RevSlot), len(want))
		}
		for s := range want {
			if topo.RevSlot[s] != want[s] {
				t.Fatalf("%s: RevSlot[%d] = %d, want %d", names[i], s, topo.RevSlot[s], want[s])
			}
		}
	}
}

// TestTopologyStarLinear builds a star with 10^5 leaves: the hub's
// pairing must cost O(degree), not a scan of its adjacency per leaf
// (10^10 steps, minutes rather than milliseconds).
func TestTopologyStarLinear(t *testing.T) {
	start := time.Now()
	g := Star(100_001)
	checkTopology(t, g)
	if d := time.Since(start); d > 10*time.Second {
		t.Fatalf("star with 10^5 leaves took %v", d)
	}
}

func TestTopologySingleNode(t *testing.T) {
	g := &Graph{adj: [][]int32{{}}}
	topo, err := g.Topology()
	if err != nil {
		t.Fatal(err)
	}
	if topo.NumNodes() != 1 || topo.NumSlots() != 0 {
		t.Fatalf("unexpected shape for K1: %d nodes, %d slots", topo.NumNodes(), topo.NumSlots())
	}
}
