//go:build !race

package lang

import "testing"

// TestCountBadBallsAllocFloor gates the row path's allocation floor: a
// warm ProperColoring(3).CountBadBalls on C_2400 makes at most one
// allocation per call — its scratch comes from a pool, not from one
// labeled ball per node. Skipped under -race, whose instrumentation
// changes allocation counts.
func TestCountBadBallsAllocFloor(t *testing.T) {
	l := ProperColoring(3)
	c := countBenchConfig()
	l.CountBadBalls(c) // warm the pool
	allocs := testing.AllocsPerRun(100, func() { l.CountBadBalls(c) })
	t.Logf("CountBadBalls on C_%d: %.1f allocs/op", c.G.N(), allocs)
	if allocs > 1 {
		t.Errorf("CountBadBalls allocates %.1f/op; want ≤ 1", allocs)
	}
}
