//go:build !race

package linial

import "testing"

// TestColorableAllocsFlat gates the solver's allocation floor: a
// Colorable call allocates a fixed number of slabs, not one slice per
// vertex, so refuting B(8,1) (336 vertices) allocates at most two more
// times than coloring B(4,1) (24 vertices). Skipped under -race, whose
// instrumentation changes allocation counts.
func TestColorableAllocsFlat(t *testing.T) {
	allocs := func(n int) float64 {
		g := mustNG(t, n, 1)
		return testing.AllocsPerRun(5, func() {
			if _, _, err := Colorable(g, 3, 0); err != nil {
				t.Fatal(err)
			}
		})
	}
	small, big := allocs(4), allocs(8)
	t.Logf("Colorable allocs/op: B(4,1) %.0f, B(8,1) %.0f", small, big)
	if big > small+2 {
		t.Errorf("Colorable on B(8,1) allocates %.0f/op, B(4,1) %.0f; want at most 2 more", big, small)
	}
}
