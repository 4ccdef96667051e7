// Package orderinv implements the order-invariance machinery of the paper:
// the invariance checker used to validate order-invariant algorithms
// (§2.1.1), the ball inventory that makes the count N = Σ nᵢ! of the proof
// of Claim 2 concrete, and a finite form of the Ramsey extraction from the
// proof of Claim 1 (Appendix A) that converts an arbitrary constant-time
// algorithm into an order-invariant one.
//
// Substitution note (E13's table records it, internal/exp/e13_ramsey.go):
// the paper's Appendix A uses the infinite Ramsey theorem over a
// countably infinite identity universe. The proof only ever consumes
// finitely many elements of the extracted set U (nodes relabel their
// balls with the smallest values of U), so a finite pool {1..M} with a
// greedy consistency-checked extraction certifies the same property on
// every instance whose identities come from U.
package orderinv

import (
	"fmt"

	"rlnc/internal/graph"
	"rlnc/internal/ids"
	"rlnc/internal/lang"
	"rlnc/internal/local"
)

// CheckInvariance verifies that an algorithm's outputs are unchanged under
// an order-preserving remapping of the instance identities. It returns an
// error naming the first differing node, or nil. This is the operational
// definition of order-invariance from §2.1.1.
func CheckInvariance(algo local.ViewAlgorithm, in *lang.Instance, pool []int64) error {
	remapped, err := in.ID.RemapPreservingOrder(pool)
	if err != nil {
		return fmt.Errorf("orderinv: %w", err)
	}
	inB := &lang.Instance{G: in.G, X: in.X, ID: remapped}
	ya := local.RunView(in, algo, nil)
	yb := local.RunView(inB, algo, nil)
	for v := range ya {
		if string(ya[v]) != string(yb[v]) {
			return fmt.Errorf("orderinv: %s is not order-invariant: node %d output %q vs %q under remap",
				algo.Name(), v, ya[v], yb[v])
		}
	}
	return nil
}

// CheckInvarianceRandom runs CheckInvariance over several random
// instances on the given graph, with pools spread far from the original
// identity range.
func CheckInvarianceRandom(algo local.ViewAlgorithm, g *graph.Graph, rounds int, seed uint64) error {
	n := g.N()
	for r := 0; r < rounds; r++ {
		id := ids.RandomPerm(n, seed+uint64(r))
		in, err := lang.NewInstance(g, lang.EmptyInputs(n), id)
		if err != nil {
			return err
		}
		pool := make([]int64, n)
		for i := range pool {
			pool[i] = int64(10_000+1_000*r) + int64(i)*7
		}
		if err := CheckInvariance(algo, in, pool); err != nil {
			return err
		}
	}
	return nil
}

// BallShape is one structural ball of the inventory: the unlabeled ball of
// the proof of Claim 2 ("there is a finite number of balls of radius t in
// a graph of maximum degree k").
type BallShape struct {
	Ball *graph.Ball
	// Key is the canonical form under center-fixing isomorphism.
	Key string
	// Size is the number of nodes.
	Size int
}

// Inventory is the finite census behind β = 1/N in Claim 2.
type Inventory struct {
	Shapes []BallShape
	// Nu is ν, the number of pairwise non-isomorphic balls.
	Nu int
	// OrderedBalls is N = Σ nᵢ!, the number of ordered balls, i.e. the
	// number of (shape, identity-order) pairs an order-invariant
	// algorithm can distinguish. The count of order-invariant algorithms
	// with palette q is q^N.
	OrderedBalls int64
}

// RingInventory enumerates the radius-t balls of the cycle family
// {C_n : n >= 3}: one generic path-shaped ball for large n, plus the
// degenerate shapes arising when the cycle is smaller than the ball
// radius. Inputs are empty in this family.
func RingInventory(t int) (*Inventory, error) {
	seen := make(map[string]*graph.Ball)
	var order []string
	for n := 3; n <= 2*t+3; n++ {
		b := graph.Cycle(n).BallAround(0, t)
		key, err := b.CanonicalKey(nil)
		if err != nil {
			return nil, err
		}
		if _, ok := seen[key]; !ok {
			seen[key] = b
			order = append(order, key)
		}
	}
	inv := &Inventory{}
	for _, key := range order {
		b := seen[key]
		inv.Shapes = append(inv.Shapes, BallShape{Ball: b, Key: key, Size: b.Size()})
		inv.OrderedBalls += factorial(b.Size())
	}
	inv.Nu = len(inv.Shapes)
	return inv, nil
}

func factorial(n int) int64 {
	f := int64(1)
	for i := 2; i <= n; i++ {
		f *= int64(i)
	}
	return f
}

// Beta returns β = 1/N, the failure probability Claim 2 extracts for at
// least one order-invariant algorithm.
func (inv *Inventory) Beta() float64 {
	return 1 / float64(inv.OrderedBalls)
}
