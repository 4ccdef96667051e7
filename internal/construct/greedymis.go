package construct

import (
	"fmt"

	"rlnc/internal/lang"
	"rlnc/internal/local"
)

// GreedyMISFromColoring converts a proper Q-coloring (provided as the
// 1-byte input of every node) into a maximal independent set in exactly Q
// rounds: color classes are processed in order, and a node joins when its
// class comes up and no neighbor joined earlier. Properness of the input
// coloring guarantees that two adjacent nodes never decide in the same
// round, so independence holds by construction and maximality because a
// non-joining node witnessed a joined neighbor.
type GreedyMISFromColoring struct {
	Q int
}

// Name implements local.WireAlgorithm.
func (g GreedyMISFromColoring) Name() string { return fmt.Sprintf("greedy-mis-from-%d-coloring", g.Q) }

// MsgWords implements local.WireAlgorithm: the only message is the
// payload-free "joined" announcement, a zero-word signal.
func (g GreedyMISFromColoring) MsgWords(int) int { return 0 }

// NewWireProcess implements local.WireAlgorithm.
func (g GreedyMISFromColoring) NewWireProcess() local.WireProcess { return &greedyMISProc{q: g.Q} }

type greedyMISProc struct {
	q       int
	color   int
	joined  bool
	blocked bool
	decided bool
}

// ResetProcess implements local.ResetProcess, keeping the palette size
// while dropping all execution state.
func (p *greedyMISProc) ResetProcess() { *p = greedyMISProc{q: p.q} }

// decodeGreedyJoin rejects any join announcement carrying payload words.
func decodeGreedyJoin(words []uint64) bool { return len(words) == 0 }

func (p *greedyMISProc) Start(info local.NodeInfo, out *local.Outbox) {
	c, err := lang.DecodeColor(info.Input)
	if err != nil || c >= p.q {
		panic(fmt.Sprintf("construct: greedy MIS needs a proper %d-coloring as input (got %v)", p.q, info.Input))
	}
	p.color = c
	// Round 1 decisions: color-0 nodes join immediately.
	if p.color == 0 {
		p.joined = true
		p.decided = true
		out.SignalAll()
	}
}

func (p *greedyMISProc) Step(round int, in *local.Inbox, out *local.Outbox) bool {
	for port := 0; port < in.Degree(); port++ {
		if !in.Has(port) {
			continue
		}
		if !decodeGreedyJoin(in.Words(port)) {
			panic("construct: greedy MIS received a malformed join announcement")
		}
		p.blocked = true
	}
	if round >= p.q {
		return true
	}
	// Nodes of color `round` decide now.
	if !p.decided && p.color == round {
		p.decided = true
		if !p.blocked {
			p.joined = true
			out.SignalAll()
		}
	}
	return false
}

func (p *greedyMISProc) Output() []byte { return lang.EncodeSelected(p.joined) }

// DeterministicRingMIS composes Cole–Vishkin with the greedy conversion:
// a fully deterministic MIS on oriented cycles in Θ(log* n) + 3 rounds.
func DeterministicRingMIS(maxIDBits int) Algorithm {
	return Pipeline{
		PipeName: "deterministic-ring-mis",
		Stages: []Algorithm{
			ColeVishkinColoring(maxIDBits),
			MessageConstruction{Algo: GreedyMISFromColoring{Q: 3}},
		},
	}
}

// DeterministicRingWeakColoring derives a deterministic weak 2-coloring
// of oriented cycles from the deterministic MIS.
func DeterministicRingWeakColoring(maxIDBits int) Algorithm {
	return Pipeline{
		PipeName: "deterministic-ring-weak-2-coloring",
		Stages: []Algorithm{
			DeterministicRingMIS(maxIDBits),
			ViewConstruction{Algo: local.ViewFunc{
				AlgoName: "mis-to-color",
				R:        0,
				F: func(v *local.View) []byte {
					sel, err := lang.DecodeSelected(v.X[0])
					if err != nil || !sel {
						return lang.EncodeColor(1)
					}
					return lang.EncodeColor(0)
				},
			}},
		},
	}
}
