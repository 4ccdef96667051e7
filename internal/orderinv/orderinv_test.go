package orderinv

import (
	"strings"
	"testing"

	"rlnc/internal/graph"
	"rlnc/internal/ids"
	"rlnc/internal/lang"
	"rlnc/internal/local"
)

// idParityAlgo outputs the parity of the maximum identity in the ball —
// deliberately order-SENSITIVE.
type idParityAlgo struct{ t int }

func (a idParityAlgo) Name() string { return "id-parity" }
func (a idParityAlgo) Radius() int  { return a.t }
func (a idParityAlgo) Output(v *local.View) []byte {
	max := v.IDs[0]
	for _, id := range v.IDs {
		if id > max {
			max = id
		}
	}
	return []byte{byte(max % 2)}
}

// rankAlgo outputs the center's rank in the ball — order-invariant.
type rankAlgo struct{ t int }

func (a rankAlgo) Name() string { return "rank" }
func (a rankAlgo) Radius() int  { return a.t }
func (a rankAlgo) Output(v *local.View) []byte {
	r := 0
	for _, id := range v.IDs {
		if id < v.IDs[0] {
			r++
		}
	}
	return []byte{byte(r)}
}

func TestCheckInvarianceAcceptsInvariant(t *testing.T) {
	if err := CheckInvarianceRandom(rankAlgo{t: 2}, graph.Cycle(10), 5, 3); err != nil {
		t.Errorf("rank algorithm flagged: %v", err)
	}
}

func TestCheckInvarianceRejectsSensitive(t *testing.T) {
	// Parity of the max id changes under the pool remap (odd-spaced pool).
	g := graph.Cycle(8)
	in, err := lang.NewInstance(g, lang.EmptyInputs(8), ids.Consecutive(8))
	if err != nil {
		t.Fatal(err)
	}
	// An all-even pool forces constant parity 0, whereas the original
	// consecutive identities alternate max-parity around the ring.
	pool := []int64{100, 102, 104, 106, 108, 110, 112, 114}
	if err := CheckInvariance(idParityAlgo{t: 1}, in, pool); err == nil {
		t.Error("order-sensitive algorithm not flagged")
	} else if !strings.Contains(err.Error(), "not order-invariant") {
		t.Errorf("unexpected error: %v", err)
	}
}

func TestRingInventoryRadius1(t *testing.T) {
	inv, err := RingInventory(1)
	if err != nil {
		t.Fatal(err)
	}
	// Radius-1 balls on cycles: C3 (triangle minus the frontier edge — a
	// path), C4 and larger give the 3-node path; C3's ball has the two
	// neighbors adjacent at distance 1... enumerate and sanity-check
	// sizes instead of hardcoding the census: all shapes have 3 nodes.
	for _, s := range inv.Shapes {
		if s.Size != 3 {
			t.Errorf("radius-1 ring ball with %d nodes", s.Size)
		}
	}
	if inv.Nu < 1 || inv.Nu > 2 {
		t.Errorf("ν = %d, want 1 or 2", inv.Nu)
	}
	if inv.OrderedBalls != int64(inv.Nu)*6 {
		t.Errorf("N = %d, want %d (ν · 3!)", inv.OrderedBalls, inv.Nu*6)
	}
	if inv.Beta() <= 0 || inv.Beta() > 1 {
		t.Errorf("β = %v out of range", inv.Beta())
	}
}

func TestRingInventoryRadius2(t *testing.T) {
	inv, err := RingInventory(2)
	if err != nil {
		t.Fatal(err)
	}
	// Shapes: from C3, C4, C5 (degenerate) and the generic 5-node path.
	if inv.Nu < 2 {
		t.Errorf("ν = %d, want at least 2 distinct shapes", inv.Nu)
	}
	// The generic shape has 5 nodes; some degenerate shapes are smaller.
	foundGeneric := false
	for _, s := range inv.Shapes {
		if s.Size == 5 {
			foundGeneric = true
		}
		if s.Size > 5 {
			t.Errorf("radius-2 ring ball with %d > 5 nodes", s.Size)
		}
	}
	if !foundGeneric {
		t.Error("generic 5-node path ball missing")
	}
}

func TestExtractOnOrderInvariantAlgorithmIsFast(t *testing.T) {
	inv, err := RingInventory(1)
	if err != nil {
		t.Fatal(err)
	}
	// An already order-invariant algorithm is consistent on any ids: the
	// greedy extraction accepts the first candidates it sees.
	ext, err := Extract(rankAlgo{t: 1}, inv, 5, 50)
	if err != nil {
		t.Fatal(err)
	}
	if len(ext.U) != 5 {
		t.Errorf("|U| = %d, want 5", len(ext.U))
	}
	for i := range ext.U {
		if ext.U[i] != int64(i+1) {
			t.Errorf("U = %v, expected the first candidates 1..5", ext.U)
			break
		}
	}
}

func TestExtractOnParityAlgorithm(t *testing.T) {
	inv, err := RingInventory(1)
	if err != nil {
		t.Fatal(err)
	}
	// Max-id parity must be constant over all 3-subsets of U. The max of
	// a 3-subset is always at least the third-smallest element of U, so
	// the consistency requirement is exactly: every element of U except
	// the two smallest shares one parity.
	ext, err := Extract(idParityAlgo{t: 1}, inv, 5, 200)
	if err != nil {
		t.Fatal(err)
	}
	parity := ext.U[2] % 2
	for _, u := range ext.U[2:] {
		if u%2 != parity {
			t.Errorf("extracted U = %v has mixed-parity maxima", ext.U)
			break
		}
	}
	// Direct verification: every ordered ball evaluates constantly on U.
	for bi, ob := range orderedBallsOf(inv) {
		var first string
		seen := false
		forEachSubset(ext.U, ob.shape.Size, func(sub []int64) bool {
			out := evalOnIDs(idParityAlgo{t: 1}, ob, sub)
			if !seen {
				first, seen = out, true
				return true
			}
			if out != first {
				t.Errorf("ordered ball %d: output varies over U", bi)
				return false
			}
			return true
		})
	}
}

func TestSimulationIsOrderInvariantAndAgreesOnU(t *testing.T) {
	inv, err := RingInventory(1)
	if err != nil {
		t.Fatal(err)
	}
	inner := idParityAlgo{t: 1}
	ext, err := Extract(inner, inv, 8, 200)
	if err != nil {
		t.Fatal(err)
	}
	sim := &Simulation{Inner: inner, U: ext.U}

	// (a) A' is order-invariant.
	if err := CheckInvarianceRandom(sim, graph.Cycle(8), 5, 9); err != nil {
		t.Errorf("A' not order-invariant: %v", err)
	}

	// (b) A' agrees with A on instances whose identities come from U.
	g := graph.Cycle(8)
	idAssign := ids.FromSlice(ext.U[:8])
	in, err := lang.NewInstance(g, lang.EmptyInputs(8), idAssign)
	if err != nil {
		t.Fatal(err)
	}
	ya := local.RunView(in, inner, nil)
	yb := local.RunView(in, sim, nil)
	for v := range ya.Len() {
		if string(ya.At(v)) != string(yb.At(v)) {
			t.Errorf("node %d: A=%v A'=%v on U-instance", v, ya.At(v), yb.At(v))
		}
	}
}

func TestSimulationPanicsOnSmallU(t *testing.T) {
	sim := &Simulation{Inner: rankAlgo{t: 2}, U: []int64{1, 2}}
	g := graph.Cycle(9)
	in, _ := lang.NewInstance(g, lang.EmptyInputs(9), ids.Consecutive(9))
	defer func() {
		if recover() == nil {
			t.Error("expected panic for |U| smaller than the ball")
		}
	}()
	local.RunView(in, sim, nil)
}

func TestExtractRejectsBadParams(t *testing.T) {
	inv, _ := RingInventory(1)
	if _, err := Extract(rankAlgo{t: 1}, inv, 0, 10); err == nil {
		t.Error("wantSize 0 accepted")
	}
}

func TestExtractPoolExhaustion(t *testing.T) {
	inv, _ := RingInventory(1)
	// Tiny pool cannot yield 10 ids.
	if _, err := Extract(idParityAlgo{t: 1}, inv, 10, 6); err == nil {
		t.Error("expected pool-exhaustion error")
	}
}

// orderedBallsOf mirrors Extract's enumeration for verification.
func orderedBallsOf(inv *Inventory) []orderedBall {
	var balls []orderedBall
	for _, shape := range inv.Shapes {
		for _, perm := range permutations(shape.Size) {
			balls = append(balls, orderedBall{shape: shape, perm: perm})
		}
	}
	return balls
}

func TestFactorial(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want int64
	}{{0, 1}, {1, 1}, {3, 6}, {5, 120}} {
		if got := factorial(tc.n); got != tc.want {
			t.Errorf("factorial(%d) = %d, want %d", tc.n, got, tc.want)
		}
	}
}
