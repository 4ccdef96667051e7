package main

import (
	"time"

	"rlnc/internal/graph"
	"rlnc/internal/linial"
)

// The host-speed probe. On a shared host the speed a core gives one
// process swings by up to 2× within minutes, with the load of whatever
// shares the physical core. Single-threaded search that lives in L1 and
// L2, like linial.Colorable, feels it most: the same E7b loop took 5 s
// and 9 s in one hour on the reference host. The probe is a fixed amount
// of that kind of work owned by the benchmark — a frozen copy of the
// DSATUR backtracking search over B(8,1), stopped after probeNodes
// nodes — run before every timed pass, after the last one, and inside a
// pass between its long calls, always outside the timing. Many short
// probes spread over the run follow the host better than a few long
// ones. The program's code never runs inside it, so a change to
// the program moves the pass times and not the probe's, while a change
// in host speed moves both. A probed workload reports its times
// multiplied by probeNominal ÷ the run's median probe time: what they
// would read on the reference host when nothing shares its cores.
//
// Only exact-coloring is probed. The other workloads run on both cores
// and spend their time in the allocator and the network stack, which
// the probe does not track: scaling their times by it made their spread
// between runs larger, not smaller.

const (
	probeNodes = 250_000
	// probeNominal is the probe's time on the reference host, a 2-core
	// Intel Xeon VM at 2.1 GHz with Go 1.24, when nothing shares its
	// cores.
	probeNominal = 0.23
)

type probe struct {
	g     *graph.Graph
	times []float64
	// spent is the time of every probe so far, for taking probes
	// inside a pass out of the pass's time.
	spent float64
}

func newProbe() (*probe, error) {
	g, err := linial.NeighborhoodGraph(8, 1)
	if err != nil {
		return nil, err
	}
	return &probe{g: g}, nil
}

// measure runs the probe once and records its time.
func (p *probe) measure() {
	t0 := time.Now()
	if frozenDSATUR(p.g, 3, probeNodes) != probeNodes+1 {
		panic("probe: search ended before its node count")
	}
	s := time.Since(t0).Seconds()
	p.times = append(p.times, s)
	p.spent += s
}

// scale is the factor that takes the run's times to the reference
// host's speed.
func (p *probe) scale() float64 { return probeNominal / median(p.times) }

// frozenDSATUR is a copy of linial.Colorable's search loop as of the
// benchmark's definition, returning the number of nodes it visited
// before it stopped at budget+1 or ran out of search space.
func frozenDSATUR(g *graph.Graph, k int, budget int64) int64 {
	n := g.N()
	colors := make([]int, n)
	for i := range colors {
		colors[i] = -1
	}
	neighborColors := make([][]int32, n)
	satDegree := make([]int, n)
	for v := range neighborColors {
		neighborColors[v] = make([]int32, k)
	}
	var nodes int64
	var solve func(assigned int) bool
	solve = func(assigned int) bool {
		if assigned == n {
			return true
		}
		nodes++
		if nodes > budget {
			return true
		}
		best := -1
		for v := 0; v < n; v++ {
			if colors[v] != -1 {
				continue
			}
			if best == -1 || satDegree[v] > satDegree[best] ||
				(satDegree[v] == satDegree[best] && g.Degree(v) > g.Degree(best)) {
				best = v
			}
		}
		for c := 0; c < k; c++ {
			if neighborColors[best][c] > 0 {
				continue
			}
			colors[best] = c
			for _, w := range g.Neighbors(best) {
				if neighborColors[w][c] == 0 {
					satDegree[w]++
				}
				neighborColors[w][c]++
			}
			if solve(assigned + 1) {
				return true
			}
			for _, w := range g.Neighbors(best) {
				neighborColors[w][c]--
				if neighborColors[w][c] == 0 {
					satDegree[w]--
				}
			}
			colors[best] = -1
		}
		return false
	}
	solve(0)
	return nodes
}
