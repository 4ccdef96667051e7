package graph

import (
	"fmt"
)

// Cycle returns the cycle C_n for n >= 3. Ports are oriented consistently:
// at every node, port 0 is the clockwise successor and port 1 the
// predecessor, providing the "common sense of direction" assumed by the
// ring lower-bound discussion in the paper (§1.3) and used by Cole–Vishkin.
func Cycle(n int) *Graph {
	if n < 3 {
		panic(fmt.Sprintf("graph: cycle needs n >= 3, got %d", n))
	}
	// One slab backs every adjacency row: node v's ports are
	// slab[2v:2v+2], capped so no row can grow into its successor's.
	slab := make([]int32, 2*n)
	adj := make([][]int32, n)
	for v := 0; v < n; v++ {
		slab[2*v] = int32((v + 1) % n)
		slab[2*v+1] = int32((v - 1 + n) % n)
		adj[v] = slab[2*v : 2*v+2 : 2*v+2]
	}
	return &Graph{adj: adj, m: n}
}

// Path returns the path P_n on n >= 1 nodes, 0 - 1 - ... - n-1.
func Path(n int) *Graph {
	if n < 1 {
		panic(fmt.Sprintf("graph: path needs n >= 1, got %d", n))
	}
	b := NewBuilder(n)
	for v := 0; v+1 < n; v++ {
		b.AddEdge(v, v+1)
	}
	return b.MustBuild()
}

// Complete returns the complete graph K_n.
func Complete(n int) *Graph {
	b := NewBuilder(n)
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			b.AddEdge(u, v)
		}
	}
	return b.MustBuild()
}

// Star returns the star K_{1,n-1} with center 0.
func Star(n int) *Graph {
	if n < 2 {
		panic(fmt.Sprintf("graph: star needs n >= 2, got %d", n))
	}
	b := NewBuilder(n)
	for v := 1; v < n; v++ {
		b.AddEdge(0, v)
	}
	return b.MustBuild()
}

// Grid returns the rows x cols grid graph. Node (r, c) has index r*cols+c.
func Grid(rows, cols int) *Graph {
	b := NewBuilder(rows * cols)
	at := func(r, c int) int { return r*cols + c }
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			if c+1 < cols {
				b.AddEdge(at(r, c), at(r, c+1))
			}
			if r+1 < rows {
				b.AddEdge(at(r, c), at(r+1, c))
			}
		}
	}
	return b.MustBuild()
}

// Torus returns the rows x cols torus (wrap-around grid). Both dimensions
// must be >= 3 to keep the graph simple.
func Torus(rows, cols int) *Graph {
	if rows < 3 || cols < 3 {
		panic(fmt.Sprintf("graph: torus needs dims >= 3, got %dx%d", rows, cols))
	}
	b := NewBuilder(rows * cols)
	at := func(r, c int) int { return r*cols + c }
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			b.AddEdge(at(r, c), at(r, (c+1)%cols))
			b.AddEdge(at(r, c), at((r+1)%rows, c))
		}
	}
	return b.MustBuild()
}

// CompleteTree returns the complete rooted tree of the given arity and
// depth (depth 0 is a single node). Node 0 is the root.
func CompleteTree(arity, depth int) *Graph {
	if arity < 1 || depth < 0 {
		panic("graph: tree needs arity >= 1 and depth >= 0")
	}
	// Count nodes level by level.
	n, level := 1, 1
	for d := 0; d < depth; d++ {
		level *= arity
		n += level
	}
	b := NewBuilder(n)
	next := 1
	frontier := []int{0}
	for d := 0; d < depth; d++ {
		var nf []int
		for _, p := range frontier {
			for c := 0; c < arity; c++ {
				b.AddEdge(p, next)
				nf = append(nf, next)
				next++
			}
		}
		frontier = nf
	}
	return b.MustBuild()
}

// Hypercube returns the d-dimensional hypercube on 2^d nodes.
func Hypercube(d int) *Graph {
	if d < 1 || d > 20 {
		panic(fmt.Sprintf("graph: hypercube dimension %d out of range", d))
	}
	n := 1 << d
	b := NewBuilder(n)
	for v := 0; v < n; v++ {
		for bit := 0; bit < d; bit++ {
			u := v ^ (1 << bit)
			if u > v {
				b.AddEdge(v, u)
			}
		}
	}
	return b.MustBuild()
}

// Caterpillar returns a path of spineLen nodes with legsPerNode pendant
// leaves attached to every spine node. Spine nodes are 0..spineLen-1.
func Caterpillar(spineLen, legsPerNode int) *Graph {
	if spineLen < 1 || legsPerNode < 0 {
		panic("graph: caterpillar needs spineLen >= 1, legsPerNode >= 0")
	}
	n := spineLen + spineLen*legsPerNode
	b := NewBuilder(n)
	for v := 0; v+1 < spineLen; v++ {
		b.AddEdge(v, v+1)
	}
	next := spineLen
	for v := 0; v < spineLen; v++ {
		for l := 0; l < legsPerNode; l++ {
			b.AddEdge(v, next)
			next++
		}
	}
	return b.MustBuild()
}

// Petersen returns the Petersen graph (10 nodes, 3-regular, girth 5).
func Petersen() *Graph {
	b := NewBuilder(10)
	for v := 0; v < 5; v++ {
		b.AddEdge(v, (v+1)%5)     // outer pentagon
		b.AddEdge(v, v+5)         // spokes
		b.AddEdge(v+5, (v+2)%5+5) // inner pentagram
	}
	return b.MustBuild()
}

// splitmix for generator randomness; kept local to avoid import cycles.
type genRNG uint64

func (r *genRNG) next() uint64 {
	*r += 0x9e3779b97f4a7c15
	z := uint64(*r)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (r *genRNG) intn(n int) int { return int(r.next() % uint64(n)) }

func (r *genRNG) float64() float64 { return float64(r.next()>>11) / (1 << 53) }

// RandomRegular returns a random d-regular simple graph on n nodes using
// the pairing model with restarts, or an error if n*d is odd or the
// parameters are infeasible. The result is deterministic in seed.
func RandomRegular(n, d int, seed uint64) (*Graph, error) {
	if d < 0 || d >= n {
		return nil, fmt.Errorf("graph: d-regular needs 0 <= d < n, got d=%d n=%d", d, n)
	}
	if n*d%2 != 0 {
		return nil, fmt.Errorf("graph: n*d must be even, got n=%d d=%d", n, d)
	}
	r := genRNG(seed)
	const maxRestarts = 2000
	for attempt := 0; attempt < maxRestarts; attempt++ {
		g, ok := tryPairing(n, d, &r)
		if ok {
			return g, nil
		}
	}
	return nil, fmt.Errorf("graph: pairing model failed to produce a simple %d-regular graph on %d nodes", d, n)
}

// tryPairing runs one round of the configuration model: n*d stubs are
// paired uniformly; the attempt fails if a loop or multi-edge appears.
func tryPairing(n, d int, r *genRNG) (*Graph, bool) {
	stubs := make([]int32, 0, n*d)
	for v := 0; v < n; v++ {
		for i := 0; i < d; i++ {
			stubs = append(stubs, int32(v))
		}
	}
	// Fisher–Yates shuffle, then pair consecutive stubs.
	for i := len(stubs) - 1; i > 0; i-- {
		j := r.intn(i + 1)
		stubs[i], stubs[j] = stubs[j], stubs[i]
	}
	b := NewBuilder(n)
	for i := 0; i+1 < len(stubs); i += 2 {
		u, v := int(stubs[i]), int(stubs[i+1])
		if u == v {
			return nil, false
		}
		b.AddEdge(u, v)
	}
	g, err := b.Build()
	if err != nil {
		return nil, false
	}
	return g, true
}

// GNP returns an Erdős–Rényi G(n, p) graph, deterministic in seed. The
// graph may be disconnected; use Connected or ConnectedGNP when the LOCAL
// model's connectivity assumption matters.
func GNP(n int, p float64, seed uint64) *Graph {
	r := genRNG(seed)
	b := NewBuilder(n)
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			if r.float64() < p {
				b.AddEdge(u, v)
			}
		}
	}
	return b.MustBuild()
}

// ConnectedGNP retries G(n, p) with varying sub-seeds until the sample is
// connected, up to a bounded number of attempts.
func ConnectedGNP(n int, p float64, seed uint64) (*Graph, error) {
	for attempt := uint64(0); attempt < 500; attempt++ {
		g := GNP(n, p, seed+attempt*0x9e37)
		if g.Connected() {
			return g, nil
		}
	}
	return nil, fmt.Errorf("graph: G(%d,%v) produced no connected sample in 500 attempts", n, p)
}

// Lollipop returns a clique of size k attached to a path of length tail:
// a standard diameter/eccentricity stress shape.
func Lollipop(k, tail int) *Graph {
	if k < 1 || tail < 0 {
		panic("graph: lollipop needs k >= 1, tail >= 0")
	}
	b := NewBuilder(k + tail)
	for u := 0; u < k; u++ {
		for v := u + 1; v < k; v++ {
			b.AddEdge(u, v)
		}
	}
	prev := k - 1
	for i := 0; i < tail; i++ {
		b.AddEdge(prev, k+i)
		prev = k + i
	}
	return b.MustBuild()
}

// DoubleStar returns two star centers joined by an edge, with la and lb
// leaves respectively. Center a is node 0, center b is node 1.
func DoubleStar(la, lb int) *Graph {
	b := NewBuilder(2 + la + lb)
	b.AddEdge(0, 1)
	next := 2
	for i := 0; i < la; i++ {
		b.AddEdge(0, next)
		next++
	}
	for i := 0; i < lb; i++ {
		b.AddEdge(1, next)
		next++
	}
	return b.MustBuild()
}
