package decide

import (
	"fmt"

	"rlnc/internal/lang"
	"rlnc/internal/local"
	"rlnc/internal/localrand"
)

// Exec is the package's one execution handle: the three decision verbs —
// Verdicts, Accepts, AcceptsFarFrom — are methods on it. Set Bt for
// trial loops on a reusable batch; the zero Exec builds a transient
// batch per call (the single-shot convenience).
//
// All verbs take trial vectors: lane b evaluates dis[b] under draws[b]
// (nil draws for deterministic deciders). Single-trial callers pass
// one-element slices; every lane's verdicts are identical to a
// single-shot evaluation of the same (instance, draw).
type Exec struct {
	// Bt, when set, assembles all lanes' decision views in one pass on
	// the batch's cached balls. Deciders evaluated on the row path do not
	// touch it.
	Bt *local.Batch
	// Mem, when set, backs the returned verdict and acceptance slices
	// with a reusable double-buffered store instead of fresh allocations:
	// a trial loop that holds one Mem evaluates allocation-free in steady
	// state. Returned slices then follow the arena retention contract —
	// valid while the next evaluation on this Mem runs, overwritten by
	// the one after. Callers needing longer retention leave Mem nil, and
	// every call then allocates caller-owned slices.
	Mem *Mem
}

// Mem is the reusable verdict storage of an Exec: one double-buffered
// pair of verdict slabs and acceptance rows, alternating per evaluation
// exactly like the engine's output arenas, so pipelines can read one
// evaluation's verdicts while the next runs. A Mem is one trial loop's
// private scratch: not safe for concurrent use.
type Mem struct {
	buf  [2]memBuf
	flip int
	// col is the row path's per-node decode scratch (lang.LCL.BadRow),
	// transient within one Verdicts call, so it needs no double buffer.
	col []int32
}

// memBuf is one buffer of the pair: the flat verdict slab (lane b's row
// at [b*n, (b+1)*n)), the per-lane row headers, and the acceptance row.
type memBuf struct {
	slab []bool
	rows [][]bool
	acc  []bool
}

// next returns the buffer the coming evaluation writes, sized for k
// lanes of n nodes, and flips the pair.
func (m *Mem) next(k, n int) *memBuf {
	mb := &m.buf[m.flip]
	m.flip ^= 1
	mb.slab = boolsFor(mb.slab, k*n)
	if cap(mb.rows) < k {
		mb.rows = make([][]bool, k)
	}
	mb.rows = mb.rows[:k]
	return mb
}

// lastAcc returns the acceptance row of the buffer the immediately
// preceding Verdicts call wrote (the flip has already advanced past it).
func (m *Mem) lastAcc(k int) []bool {
	mb := &m.buf[m.flip^1]
	mb.acc = boolsFor(mb.acc, k)
	return mb.acc
}

// boolsFor resizes a bool slice, reusing its backing array when capacity
// allows; contents are stale — callers overwrite every entry they read.
func boolsFor(s []bool, n int) []bool {
	if cap(s) >= n {
		return s[:n]
	}
	return make([]bool, n)
}

// batch resolves the batch that assembles decision views, building a
// transient one for the zero Exec.
func (x Exec) batch(dis []*lang.DecisionInstance) *local.Batch {
	if x.Bt != nil {
		return x.Bt
	}
	return local.MustPlan(dis[0].G).NewBatch(len(dis))
}

// checkLanes validates a trial vector once for both evaluation paths:
// every lane decides a configuration of lane 0's graph (the batch's
// graph, when one is set) whose inputs, outputs and identities cover
// exactly its nodes, under one draw per lane when draws are given.
func (x Exec) checkLanes(dis []*lang.DecisionInstance, draws []localrand.Draw) error {
	g := dis[0].G
	n := g.N()
	if x.Bt != nil && x.Bt.Plan().Graph() != g {
		return fmt.Errorf("decide: lane graph %v is not the batch's plan graph %v", g, x.Bt.Plan().Graph())
	}
	if draws != nil && len(draws) != len(dis) {
		return fmt.Errorf("decide: %d draws for %d lanes", len(draws), len(dis))
	}
	for b, di := range dis {
		if di.G != g {
			return fmt.Errorf("decide: lane %d graph %v is not lane 0's graph %v", b, di.G, g)
		}
		if len(di.X) != n || di.Y.Len() != n || len(di.ID) != n {
			return fmt.Errorf("decide: lane %d has %d inputs, %d outputs and %d identities for %d nodes",
				b, len(di.X), di.Y.Len(), len(di.ID), n)
		}
	}
	return nil
}

// Verdicts evaluates the decider at every node of every lane: out[b][v]
// is node v's verdict on dis[b] under draws[b]. It panics on a
// malformed trial vector (see checkLanes).
func (x Exec) Verdicts(dis []*lang.DecisionInstance, d Decider, draws []localrand.Draw) [][]bool {
	if len(dis) == 0 {
		return nil
	}
	if err := x.checkLanes(dis, draws); err != nil {
		panic(err.Error())
	}
	k, n := len(dis), dis[0].G.N()
	slab, out := x.verdictStore(k, n)
	// Row path: an LCL decider whose language defines the whole-row Bad
	// predicate skips view assembly entirely. Each lane's outputs decode
	// once into a scratch column, the bad row is pure comparisons over
	// the graph's adjacency, and only flagged nodes flip their coin —
	// reading exactly the tape bits View.Tape would hand the view path.
	// Verdicts are identical to the view path's by the BadRow contract.
	// A lane repeating the previous lane's instance (the estimators'
	// shape: one instance, many draws) copies its bad row.
	if ld, ok := d.(*LCLDecider); ok && ld.L.BadRow != nil && (ld.P == 0 || draws != nil) {
		col := x.colStore(n)
		for b, di := range dis {
			if b > 0 && di == dis[b-1] {
				copy(out[b], out[b-1])
			} else {
				ld.L.BadRow(di, out[b], col)
			}
		}
		for i, bad := range slab[:k*n] {
			slab[i] = !bad
		}
		if ld.P != 0 {
			var t localrand.Tape
			for b, di := range dis {
				for v, ok := range out[b] {
					if !ok {
						draws[b].TapeInto(&t, di.ID[v])
						out[b][v] = ld.coin(&t)
					}
				}
			}
		}
		return out
	}
	if err := x.batch(dis).ForEachDecisionViews(dis, d.Radius(), draws, func(b, v int, view *local.View) {
		slab[b*n+v] = d.Verdict(view)
	}); err != nil {
		panic(err.Error())
	}
	return out
}

// verdictStore stages the verdict slab and row headers of one
// evaluation: from the Mem's double buffer when one is attached (zero
// steady-state allocations), freshly allocated and caller-owned
// otherwise. Every (lane, node) cell is written by the evaluation, so a
// reused slab's stale contents are never read.
func (x Exec) verdictStore(k, n int) ([]bool, [][]bool) {
	var slab []bool
	var rows [][]bool
	if x.Mem != nil {
		mb := x.Mem.next(k, n)
		slab, rows = mb.slab, mb.rows
	} else {
		slab = make([]bool, k*n)
		rows = make([][]bool, k)
	}
	for b := 0; b < k; b++ {
		rows[b] = slab[b*n : (b+1)*n : (b+1)*n]
	}
	return slab, rows
}

// Accepts reports, per lane, whether every node outputs true — the
// acceptance rule of §2.2.1.
func (x Exec) Accepts(dis []*lang.DecisionInstance, d Decider, draws []localrand.Draw) []bool {
	verdicts := x.Verdicts(dis, d, draws)
	acc := x.accStore(len(verdicts))
	for b, row := range verdicts {
		acc[b] = allTrue(row)
	}
	return acc
}

// colStore stages the row path's decode scratch: Mem-backed or freshly
// allocated.
func (x Exec) colStore(n int) []int32 {
	if x.Mem == nil {
		return make([]int32, n)
	}
	if cap(x.Mem.col) < n {
		x.Mem.col = make([]int32, n)
	}
	return x.Mem.col[:n]
}

// accStore stages the acceptance row: Mem-backed (the same buffer the
// preceding Verdicts wrote) or freshly allocated.
func (x Exec) accStore(k int) []bool {
	if x.Mem != nil {
		return x.Mem.lastAcc(k)
	}
	return make([]bool, k)
}

// AcceptsFarFrom reports, per lane, whether the decider outputs true at
// every node at distance greater than far from u — "D accepts (G,(x,y))
// far from u" in §3. The distance column of u comes from the plan's
// cache, so trial sweeps pay the BFS once per source.
func (x Exec) AcceptsFarFrom(dis []*lang.DecisionInstance, d Decider, draws []localrand.Draw, u, far int) []bool {
	if len(dis) == 0 {
		return nil
	}
	x.Bt = x.batch(dis)
	dist := x.Bt.Plan().DistFrom(u)
	verdicts := x.Verdicts(dis, d, draws)
	acc := x.accStore(len(verdicts))
	for b, row := range verdicts {
		acc[b] = true
		for v, ok := range row {
			if dist[v] > far && !ok {
				acc[b] = false
				break
			}
		}
	}
	return acc
}

// allTrue reports whether every verdict in the row is true.
func allTrue(row []bool) bool {
	for _, ok := range row {
		if !ok {
			return false
		}
	}
	return true
}
