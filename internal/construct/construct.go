// Package construct implements the construction algorithms of the paper's
// experiment suite: the trivial zero-round randomized colorings of §1.1,
// conflict-retry colorings, Cole–Vishkin 3-coloring of oriented cycles
// (the Ω(log* n)-matching upper bound of [25, 27]), Linial-style
// polynomial color reduction for general bounded-degree graphs, Luby's
// randomized MIS, randomized maximal matching, weak 2-coloring via MIS,
// a distributed Moser–Tardos resampler for the LLL language, and the
// corpus of order-invariant algorithms used by the Claim-2/Section-4
// lower-bound experiments.
package construct

import (
	"fmt"

	"rlnc/internal/lang"
	"rlnc/internal/local"
	"rlnc/internal/localrand"
)

// Algorithm is a construction algorithm for a distributed task: given an
// instance (G, x, id) and (for Monte-Carlo algorithms) a draw σ from its
// tape space, it produces the global output column y. Implementations
// wrap either the ball-view or the message-passing interface of package
// local.
type Algorithm interface {
	Name() string
	Run(in *lang.Instance, draw *localrand.Draw) (lang.Column, error)
}

// Exec is the package's one execution handle: the Run verb dispatches a
// construction algorithm to the batch the handle holds, or runs every
// lane single-shot through Algorithm.Run when Bt is nil (the zero Exec).
// A batch built by local.Plan.NewShardedBatch sends message runs across
// its shards by itself. Algorithms without an engine fast path run their
// lanes single-shot. Outputs are byte-identical across shapes at equal
// draws.
type Exec struct {
	// Bt, when set, runs the whole lane vector through the batch.
	Bt *local.Batch
}

// Run executes len(draws) independent trials of a on one shared
// instance — the standard Monte-Carlo chunk shape. Lane b runs in under
// draws[b]; out[b] is lane b's global output column. Lanes run on a
// batch live in its output arena and follow its retention contract
// (local.Batch.Run): valid while the next run on the batch executes.
func (x Exec) Run(a Algorithm, in *lang.Instance, draws []localrand.Draw) ([]lang.Column, error) {
	ins := make([]*lang.Instance, len(draws))
	for b := range ins {
		ins[b] = in
	}
	return x.RunInstances(a, ins, draws)
}

// RunInstances is Run with per-lane instances (all over the handle's
// plan graph); pipelines use it to thread lane-varying inputs between
// stages. nil draws run every lane deterministically.
func (x Exec) RunInstances(a Algorithm, ins []*lang.Instance, draws []localrand.Draw) ([]lang.Column, error) {
	if r, ok := a.(laneRunner); ok {
		return r.runInstances(x, ins, draws)
	}
	return runLanes(a, ins, draws)
}

// laneRunner is the engine fast path of a construction algorithm:
// runInstances runs lane b on ins[b] under draws[b] in the shape x
// holds, with every lane's output byte-identical to a single-shot Run
// of the same (instance, draw).
type laneRunner interface {
	runInstances(x Exec, ins []*lang.Instance, draws []localrand.Draw) ([]lang.Column, error)
}

// runLanes runs the lanes one at a time through the single-shot Run.
func runLanes(a Algorithm, ins []*lang.Instance, draws []localrand.Draw) ([]lang.Column, error) {
	ys := make([]lang.Column, len(ins))
	for b, in := range ins {
		var sub *localrand.Draw
		if draws != nil {
			sub = &draws[b]
		}
		y, err := a.Run(in, sub)
		if err != nil {
			return nil, err
		}
		ys[b] = y
	}
	return ys, nil
}

// ViewConstruction adapts a ball-view algorithm.
type ViewConstruction struct {
	Algo local.ViewAlgorithm
}

// Name implements Algorithm.
func (a ViewConstruction) Name() string { return a.Algo.Name() }

// Run implements Algorithm.
func (a ViewConstruction) Run(in *lang.Instance, draw *localrand.Draw) (lang.Column, error) {
	return local.RunView(in, a.Algo, draw), nil
}

// runInstances implements laneRunner.
func (a ViewConstruction) runInstances(x Exec, ins []*lang.Instance, draws []localrand.Draw) ([]lang.Column, error) {
	if x.Bt == nil {
		return runLanes(a, ins, draws)
	}
	return x.Bt.RunViewInstances(ins, a.Algo, draws)
}

// MessageConstruction adapts a message-passing algorithm.
type MessageConstruction struct {
	Algo local.WireAlgorithm
	Opts local.RunOptions
}

// Name implements Algorithm.
func (a MessageConstruction) Name() string { return a.Algo.Name() }

// Run implements Algorithm.
func (a MessageConstruction) Run(in *lang.Instance, draw *localrand.Draw) (lang.Column, error) {
	res, err := local.RunMessage(in, a.Algo, draw, a.Opts)
	if err != nil {
		return lang.Column{}, err
	}
	return res.Y, nil
}

// runInstances implements laneRunner: the lane vector runs through the
// batch (across its shards, when it holds any).
func (a MessageConstruction) runInstances(x Exec, ins []*lang.Instance, draws []localrand.Draw) ([]lang.Column, error) {
	if x.Bt == nil {
		return runLanes(a, ins, draws)
	}
	rs, err := x.Bt.RunInstances(ins, a.Algo, draws, a.Opts)
	if err != nil {
		return nil, err
	}
	ys := make([]lang.Column, len(rs))
	for b, r := range rs {
		ys[b] = r.Y
	}
	return ys, nil
}

// Pipeline chains algorithms: the output of stage i becomes the input x
// of stage i+1 (the original input is visible only to stage 1). Each
// stage receives an independent sub-draw so stages do not share
// randomness.
type Pipeline struct {
	PipeName string
	Stages   []Algorithm
}

// Name implements Algorithm.
func (p Pipeline) Name() string {
	if p.PipeName != "" {
		return p.PipeName
	}
	name := "pipeline("
	for i, s := range p.Stages {
		if i > 0 {
			name += " | "
		}
		name += s.Name()
	}
	return name + ")"
}

// Run implements Algorithm.
func (p Pipeline) Run(in *lang.Instance, draw *localrand.Draw) (lang.Column, error) {
	var draws []localrand.Draw
	if draw != nil {
		draws = []localrand.Draw{*draw}
	}
	ys, err := p.runInstances(Exec{}, []*lang.Instance{in}, draws)
	if err != nil {
		return lang.Column{}, err
	}
	return ys[0], nil
}

// runInstances implements laneRunner: every stage runs its whole lane
// vector in the shape x holds, stage i's lane outputs become stage i+1's
// lane inputs (as row views of the output columns), and lane b's stage
// i runs under the sub-draw draws[b].Derive(i).
func (p Pipeline) runInstances(x Exec, ins []*lang.Instance, draws []localrand.Draw) ([]lang.Column, error) {
	if len(p.Stages) == 0 {
		return nil, fmt.Errorf("construct: empty pipeline")
	}
	cur := make([]*lang.Instance, len(ins))
	copy(cur, ins)
	var subs []localrand.Draw
	if draws != nil {
		subs = make([]localrand.Draw, len(draws))
	}
	var ys []lang.Column
	for i, stage := range p.Stages {
		for b := range subs {
			subs[b] = draws[b].Derive(uint64(i))
		}
		y, err := x.RunInstances(stage, cur, subs)
		if err != nil {
			return nil, fmt.Errorf("construct: stage %d (%s): %w", i, stage.Name(), err)
		}
		ys = y
		for b := range cur {
			cur[b] = &lang.Instance{G: cur[b].G, X: y[b].Rows(), ID: cur[b].ID}
		}
	}
	return ys, nil
}
