package local

import (
	"fmt"
	"sync"

	"rlnc/internal/graph"
	"rlnc/internal/lang"
	"rlnc/internal/localrand"
)

// Plan is the reusable execution layout for one graph (with its port
// numbering): the CSR-flattened adjacency and reverse-port table that
// every synchronous round needs, plus per-graph caches that depend only on
// the topology — the balls B_G(v,t) by radius (ball-view executions) and
// the BFS distance columns by source (far-from decision evaluation). A
// Plan holds no per-execution state, so it is safe for concurrent use;
// Monte-Carlo harnesses build one Plan per instance and hand each worker
// its own Batch (a vector of trials per pass, sharded or not: see
// NewShardedBatch).
type Plan struct {
	g    *graph.Graph
	topo *graph.Topology

	// balls caches the per-node balls by radius and dists the hop-distance
	// columns by BFS source. Both depend only on the graph, never on
	// inputs, identities, or randomness, so the caches are shared by every
	// batch of the plan.
	mu    sync.Mutex
	balls map[int][]*graph.Ball
	dists map[int][]int
}

// NewPlan builds (or fetches, the topology is cached on the graph) the
// execution plan of g. The only failure mode is a hand-rolled asymmetric
// adjacency, which graphs built through the public constructors never
// exhibit.
func NewPlan(g *graph.Graph) (*Plan, error) {
	topo, err := g.Topology()
	if err != nil {
		return nil, fmt.Errorf("local: %w", err)
	}
	return &Plan{g: g, topo: topo}, nil
}

// MustPlan is NewPlan for graphs known to be well-formed (anything built
// through the public constructors); it panics on the hand-rolled
// asymmetric case NewPlan reports.
func MustPlan(g *graph.Graph) *Plan {
	p, err := NewPlan(g)
	if err != nil {
		panic(err)
	}
	return p
}

// Graph returns the graph the plan was built for.
func (p *Plan) Graph() *graph.Graph { return p.g }

// Run executes a message-passing algorithm once, on a transient
// width-1 batch; it is what the package-level RunMessage delegates to.
// The Result and its Y table belong to the caller. Callers running many
// executions on the same graph should hold a Batch instead.
func (p *Plan) Run(in *lang.Instance, algo WireAlgorithm, draw *localrand.Draw, opts RunOptions) (*Result, error) {
	rs, err := p.NewBatch(1).RunInstances([]*lang.Instance{in}, algo, oneDraw(draw), opts)
	if err != nil {
		return nil, err
	}
	return rs[0], nil
}

// oneDraw stages a single optional draw as a one-lane draw vector (nil
// stays nil: deterministic execution).
func oneDraw(draw *localrand.Draw) []localrand.Draw {
	if draw == nil {
		return nil
	}
	return []localrand.Draw{*draw}
}

// ballsFor returns the cached per-node balls of the given radius,
// extracting them on first use.
func (p *Plan) ballsFor(radius int) []*graph.Ball {
	p.mu.Lock()
	defer p.mu.Unlock()
	if b, ok := p.balls[radius]; ok {
		return b
	}
	n := p.g.N()
	balls := make([]*graph.Ball, n)
	parallelFor(n, func(v int) { balls[v] = p.g.BallAround(v, radius) })
	if p.balls == nil {
		p.balls = make(map[int][]*graph.Ball)
	}
	p.balls[radius] = balls
	return balls
}

// DistFrom returns the hop distances from source u (graph.BFSFrom),
// computed on first use and cached for the plan's lifetime. Distances
// depend only on (graph, source), so — like the ball cache — the column
// is shared by every batch of the plan; far-from decision
// loops that evaluate thousands of trials against one source pay the BFS
// once. The returned slice is cache-owned: callers must not modify it.
func (p *Plan) DistFrom(u int) []int {
	p.mu.Lock()
	defer p.mu.Unlock()
	if d, ok := p.dists[u]; ok {
		return d
	}
	d := p.g.BFSFrom(u)
	if p.dists == nil {
		p.dists = make(map[int][]int)
	}
	p.dists[u] = d
	return d
}
