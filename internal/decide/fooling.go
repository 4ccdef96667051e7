package decide

import (
	"fmt"

	"rlnc/internal/graph"
	"rlnc/internal/ids"
	"rlnc/internal/lang"
)

// This file implements the indistinguishability argument of §2.3.1: amos
// cannot be deterministically decided in D/2 − 1 rounds on graphs of
// diameter D, "because no node can decide whether or not two nodes at
// distance D are selected". The engine makes the argument executable for
// an arbitrary deterministic decider: on a long path, the configuration
// with both endpoints selected is locally indistinguishable from the two
// legal single-endpoint configurations, so any decider accepting both
// legal configurations must accept the illegal one.

// FoolingReport records the outcome of the argument for one decider.
type FoolingReport struct {
	Radius  int
	PathLen int
	// Acceptance of the three configurations: left endpoint selected,
	// right endpoint selected, both selected.
	AcceptsLeft, AcceptsRight, AcceptsBoth bool
	// TransferConsistent confirms the indistinguishability prediction:
	// at every node, the verdict on the double configuration equals the
	// verdict on whichever single configuration presents the same view.
	TransferConsistent bool
	// Fails is true when the decider provably does not decide amos on
	// this instance family (it rejects a legal configuration or accepts
	// the illegal one).
	Fails bool
	// Reason explains the failure mode.
	Reason string
}

// AMOSFooling runs the indistinguishability argument against a
// deterministic decider on a path of pathLen nodes with consecutive
// identities. pathLen must be at least 2*Radius+3 so that the two
// endpoints are invisible to each other's radius-t views.
func AMOSFooling(d Decider, pathLen int) (*FoolingReport, error) {
	t := d.Radius()
	if pathLen < 2*t+3 {
		return nil, fmt.Errorf("decide: path of %d nodes too short for radius %d (need >= %d)", pathLen, t, 2*t+3)
	}
	g := graph.Path(pathLen)
	id := ids.Consecutive(pathLen)
	mk := func(selected ...int) *lang.DecisionInstance {
		y := make([][]byte, pathLen)
		for v := range y {
			y[v] = lang.EncodeSelected(false)
		}
		for _, v := range selected {
			y[v] = lang.EncodeSelected(true)
		}
		return &lang.DecisionInstance{G: g, X: lang.EmptyInputs(pathLen), Y: lang.ColumnOf(y), ID: id}
	}
	left := mk(0)
	right := mk(pathLen - 1)
	both := mk(0, pathLen-1)

	vs := Exec{}.Verdicts([]*lang.DecisionInstance{left, right, both}, d, nil)
	vLeft, vRight, vBoth := vs[0], vs[1], vs[2]

	rep := &FoolingReport{
		Radius:             t,
		PathLen:            pathLen,
		AcceptsLeft:        allTrue(vLeft),
		AcceptsRight:       allTrue(vRight),
		AcceptsBoth:        allTrue(vBoth),
		TransferConsistent: true,
	}
	// Check the transfer prediction node by node: a node that cannot see
	// the right endpoint has the same view in `both` as in `left`, and
	// symmetrically; every node is in at least one of the two cases when
	// pathLen >= 2t+3.
	for v := 0; v < pathLen; v++ {
		distRight := pathLen - 1 - v
		distLeft := v
		if distRight > t && vBoth[v] != vLeft[v] {
			rep.TransferConsistent = false
		}
		if distLeft > t && vBoth[v] != vRight[v] {
			rep.TransferConsistent = false
		}
	}
	switch {
	case !rep.AcceptsLeft || !rep.AcceptsRight:
		rep.Fails = true
		rep.Reason = "rejects a legal single-selection configuration"
	case rep.AcceptsBoth:
		rep.Fails = true
		rep.Reason = "accepts the illegal double-selection configuration"
	default:
		// Unreachable for a genuinely local deterministic decider; kept
		// for deciders that cheat (e.g. non-determinism or global state).
		rep.Reason = "decider escaped the fooling argument (non-local behavior?)"
	}
	return rep, nil
}
