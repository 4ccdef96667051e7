//go:build !race

package decide

import (
	"testing"

	"rlnc/internal/graph"
	"rlnc/internal/lang"
	"rlnc/internal/local"
	"rlnc/internal/localrand"
)

// TestCoinRowAllocFloor gates the coin row path's allocation floor: a
// warm Exec{Bt, Mem}.Accepts of the Corollary 1 decider on 32 lanes of
// C_96 makes zero allocations per call — the bad row, the decode column
// and the verdict store are reused, and each flagged node's tape is a
// stack value reseeded in place. Skipped under -race, whose
// instrumentation changes allocation counts.
func TestCoinRowAllocFloor(t *testing.T) {
	const n, lanes = 96, 32
	g := graph.Cycle(n)
	colors := make([]int, n)
	for v := range colors {
		colors[v] = v % 3
	}
	colors[7] = colors[6] // plant two bad balls, so coins are drawn
	di := coloringInstance(t, g, colors...)
	d := NewResilientDecider(lang.ProperColoring(3), 2)
	if bad := d.L.CountBadBalls(di.Config()); bad == 0 {
		t.Fatal("fixture has no bad balls, so no coin is drawn")
	}
	dis := make([]*lang.DecisionInstance, lanes)
	draws := make([]localrand.Draw, lanes)
	space := localrand.NewTapeSpace(31)
	for b := range dis {
		dis[b] = di
		draws[b] = space.Draw(uint64(b))
	}
	x := Exec{Bt: local.MustPlan(g).NewBatch(lanes), Mem: &Mem{}}
	x.Accepts(dis, d, draws) // warm the Mem
	allocs := testing.AllocsPerRun(100, func() { x.Accepts(dis, d, draws) })
	t.Logf("coin row Accepts, %d lanes of C_%d: %.1f allocs/op", lanes, n, allocs)
	if allocs != 0 {
		t.Errorf("coin row Accepts allocates %.1f/op; want 0", allocs)
	}
}
