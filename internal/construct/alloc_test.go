//go:build !race

package construct

import (
	"runtime"
	"testing"

	"rlnc/internal/graph"
	"rlnc/internal/ids"
	"rlnc/internal/lang"
	"rlnc/internal/local"
	"rlnc/internal/localrand"
)

// ringInstance is C_n with empty inputs and consecutive identities.
func ringInstance(n int) *lang.Instance {
	return &lang.Instance{G: graph.Cycle(n), X: lang.EmptyInputs(n), ID: ids.ConsecutiveFrom(n, 1)}
}

// TestRetryVecWarmAllocFloor pins the vector kernel's state contract on
// the E2 shape: a warm 32-lane batch on C_4800 (8 slab blocks of 4
// lanes) alternating two retry colorings that differ only in T allocates
// nothing per run. The kernel's state is the batch's flat word slab, so
// a parameter change reuses it as is. Skipped under -race, whose
// instrumentation changes allocation counts.
func TestRetryVecWarmAllocFloor(t *testing.T) {
	const width = 32
	in := ringInstance(4800)
	bt := local.MustPlan(in.G).NewBatch(width)
	algos := []local.WireAlgorithm{RetryMessage(3, 3), RetryMessage(3, 5)}
	space := localrand.NewTapeSpace(41)
	draws := make([]localrand.Draw, width)
	trial := 0
	run := func() {
		for i := range draws {
			draws[i] = space.Draw(uint64(trial*width + i))
		}
		if _, err := bt.Run(in, algos[trial%2], draws, local.RunOptions{}); err != nil {
			t.Fatal(err)
		}
		trial++
	}
	run()
	run() // warm both arena buffers under both algorithms
	if got := testing.AllocsPerRun(20, run); got != 0 {
		t.Errorf("warm 32-lane retry batch alternating T allocates %.1f/run; want 0", got)
	}
}

// TestVecColdAllocsFlatInN pins that a kernel keeps no per-node
// objects: a cold batch's first run allocates slabs, worker rows, and
// arenas — a fixed number of objects (about 33) — so quadrupling the
// ring adds none. The slack of a few objects absorbs the runtime's own
// occasional allocation; a per-node table would add thousands. Width 4
// runs both rings in 4-lane blocks, and width 1 pins that a one-lane
// run steps the kernel too. Skipped under -race.
func TestVecColdAllocsFlatInN(t *testing.T) {
	cold := func(n, width int, algo local.WireAlgorithm, random bool) float64 {
		in := ringInstance(n)
		plan := local.MustPlan(in.G)
		var draws []localrand.Draw
		if random {
			space := localrand.NewTapeSpace(43)
			draws = make([]localrand.Draw, width)
			for i := range draws {
				draws[i] = space.Draw(uint64(i))
			}
		}
		ins := make([]*lang.Instance, width)
		for i := range ins {
			ins[i] = in
		}
		return testing.AllocsPerRun(5, func() {
			if _, err := plan.NewBatch(width).RunInstances(ins, algo, draws, local.RunOptions{}); err != nil {
				t.Fatal(err)
			}
		})
	}
	for _, c := range []struct {
		algo   local.WireAlgorithm
		random bool
	}{
		{RetryMessage(3, 5), true},
		{ColeVishkin{MaxIDBits: 16}, false},
	} {
		for _, width := range []int{4, 1} {
			small, big := cold(1200, width, c.algo, c.random), cold(4800, width, c.algo, c.random)
			if big > small+4 || big > 64 {
				t.Errorf("%s width %d: cold batch run allocates %.0f objects on C_1200 and %.0f on C_4800; want no growth with n and at most 64",
					c.algo.Name(), width, small, big)
			}
		}
	}
}

// TestOutputColumnBytes pins that a run's outputs are bytes, not one
// slice header per output: a cold 32-lane batch's first two retry
// coloring runs on C_4800 — which fill both buffers of its output arena
// and size every slab — allocate less in total than k·n·24 bytes, what
// one buffer of per-output headers alone would take. Skipped under
// -race.
func TestOutputColumnBytes(t *testing.T) {
	const width, n = 32, 4800
	in := ringInstance(n)
	plan := local.MustPlan(in.G)
	space := localrand.NewTapeSpace(47)
	draws := make([]localrand.Draw, width)
	for i := range draws {
		draws[i] = space.Draw(uint64(i))
	}
	algo := RetryColoring{Q: 3, T: 4}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	bt := plan.NewBatch(width)
	for range 2 {
		ys, err := Exec{Bt: bt}.Run(algo, in, draws)
		if err != nil {
			t.Fatal(err)
		}
		if len(ys) != width || ys[width-1].Len() != n {
			t.Fatalf("%d lanes, last of %d outputs", len(ys), ys[width-1].Len())
		}
	}
	runtime.ReadMemStats(&after)
	got, headers := after.TotalAlloc-before.TotalAlloc, uint64(width*n*24)
	t.Logf("cold 32-lane batch, two runs on C_%d: %d bytes allocated (one buffer of output headers: %d)", n, got, headers)
	if got >= headers {
		t.Errorf("two cold runs allocate %d bytes, not less than the %d of k·n slice headers", got, headers)
	}
}
