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
// its own Engine (one trial at a time) or Batch (a vector of trials per
// pass).
type Plan struct {
	g    *graph.Graph
	topo *graph.Topology

	// balls caches the per-node balls by radius and dists the hop-distance
	// columns by BFS source. Both depend only on the graph, never on
	// inputs, identities, or randomness, so the caches are shared by every
	// engine and batch of the plan.
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

// Run executes a message-passing algorithm with a transient engine; it is
// what the package-level RunMessage delegates to. Callers running many
// executions on the same graph should hold an Engine instead.
func (p *Plan) Run(in *lang.Instance, algo WireAlgorithm, draw *localrand.Draw, opts RunOptions) (*Result, error) {
	return p.NewEngine().Run(in, algo, draw, opts)
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
// is shared by every engine and batch of the plan; far-from decision
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

// Engine executes algorithms on one Plan while reusing all per-execution
// scratch: the double-buffered send/receive message slabs (one directed
// edge slot each), the per-node done flags and process table, the random
// tape slab, and — for ball-view executions — the assembled per-node
// views. Steady-state reuse eliminates the O(n + m) allocations that a
// fresh run performs every round, which is what makes Monte-Carlo trial
// loops allocation-free outside the algorithm's own state.
//
// An Engine is exactly the one-lane case of a Batch: both run the same
// structure-of-arrays core (see batch.go), an Engine simply fixes the
// batch width at 1 and unwraps the single lane. Trial loops that run many
// draws on one graph should hold a Batch instead and hand it a vector of
// draws per pass.
//
// An Engine is NOT safe for concurrent use: it is one worker's private
// scratch. Concurrency comes from running one Engine per worker on a
// shared Plan.
type Engine struct {
	bt      Batch
	drawBuf [1]localrand.Draw
	ptrBuf  [1]*Result
}

// NewEngine returns a fresh engine of the plan. Slabs are allocated
// lazily on first use, so view-only engines never pay for message slabs
// and vice versa.
func (p *Plan) NewEngine() *Engine { return &Engine{bt: Batch{plan: p, width: 1}} }

// Plan returns the plan the engine executes on.
func (e *Engine) Plan() *Plan { return e.bt.plan }

// drawsOf stages a single optional draw into the engine's one-lane draw
// buffer (nil stays nil: deterministic execution).
func (e *Engine) drawsOf(draw *localrand.Draw) []localrand.Draw {
	if draw == nil {
		return nil
	}
	e.drawBuf[0] = *draw
	return e.drawBuf[:]
}

// Run executes a message-passing algorithm on an instance over the
// plan's graph. A nil draw yields a deterministic execution; otherwise
// each node's tape is drawn from σ by identity, exactly as RunMessage
// does — outputs and Stats are identical to a single-shot run. Unlike a
// Batch, the Engine gives the Result and its Y table to the caller: both
// are freshly allocated (the trial loop's only two steady-state
// allocations) and stay valid forever, so harnesses may hold results
// across arbitrarily many runs.
func (e *Engine) Run(in *lang.Instance, algo WireAlgorithm, draw *localrand.Draw, opts RunOptions) (*Result, error) {
	if err := e.bt.checkInstance(in); err != nil {
		return nil, err
	}
	draws := e.drawsOf(draw)
	src := laneSrc{shared: in}
	if draws != nil {
		e.bt.seedTapes(1, draws, &src)
	}
	res := make([]Result, 1)
	e.bt.layoutWire(algo)
	if err := e.bt.runVec(src, 1, algo, draws, opts, make([][]byte, e.bt.plan.g.N()), res, e.ptrBuf[:]); err != nil {
		return nil, err
	}
	return &res[0], nil
}

// runWithTapes runs with an explicit per-node tape source (nil for
// deterministic executions) addressed by node index; the ball-simulation
// adapter uses it to thread view tapes through. Same caller-owned
// result contract as Run.
func (e *Engine) runWithTapes(in *lang.Instance, algo WireAlgorithm, tapeOf func(v int) *localrand.Tape, opts RunOptions) (*Result, error) {
	if err := e.bt.checkInstance(in); err != nil {
		return nil, err
	}
	src := laneSrc{shared: in}
	if tapeOf != nil {
		src.tapeFn = func(_, v int) *localrand.Tape { return tapeOf(v) }
	}
	res := make([]Result, 1)
	e.bt.layoutWire(algo)
	if err := e.bt.runVec(src, 1, algo, nil, opts, make([][]byte, e.bt.plan.g.N()), res, e.ptrBuf[:]); err != nil {
		return nil, err
	}
	return &res[0], nil
}

// RunView executes a ball-view algorithm on every node of an instance
// over the plan's graph, reusing the cached balls and view skeletons
// across calls. The output slice y lives in an engine-owned
// double-buffered arena — valid through the next RunView call,
// overwritten by the one after; everything else — balls, view node
// tables, tape accessors — is reused (only the identity/input pointers
// are refilled), so a trial loop runs allocation-free outside the
// algorithm's own work even when each trial or pipeline stage hands a
// fresh Instance over the same graph. Outputs are identical to
// RunView's.
func (e *Engine) RunView(in *lang.Instance, algo ViewAlgorithm, draw *localrand.Draw) [][]byte {
	if err := e.bt.checkInstance(in); err != nil {
		panic(err.Error())
	}
	return e.bt.runViewVec(in, nil, 1, algo, e.drawsOf(draw))[0]
}
