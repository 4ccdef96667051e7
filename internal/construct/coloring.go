package construct

import (
	"fmt"
	"math/bits"

	"rlnc/internal/lang"
	"rlnc/internal/local"
	"rlnc/internal/localrand"
)

// RandomColoring is the trivial zero-round Monte-Carlo algorithm of §1.1:
// "every node picks independently uniformly at random a color 1, 2, or 3".
// It guarantees that in expectation a constant fraction of nodes is
// properly colored — which is exactly what the ε-slack relaxation needs
// and the f-resilient relaxation cannot use.
func RandomColoring(q int) Algorithm {
	return ViewConstruction{Algo: local.ViewFunc{
		AlgoName: fmt.Sprintf("random-%d-coloring", q),
		R:        0,
		F: func(v *local.View) []byte {
			return lang.EncodeColor(v.Tape().Intn(q))
		},
	}}
}

// RetryColoring is the t-round randomized refinement of RandomColoring:
// every node starts with a uniform color; in each of the T retry rounds,
// nodes in conflict with a neighbor resample uniformly. The conflicted
// fraction decays geometrically in T (measured by experiment E2), so for
// every fixed ε a constant number of rounds — independent of n — meets the
// ε-slack budget. This is the witness that randomization helps for
// ε-slack relaxations.
type RetryColoring struct {
	Q int
	T int
}

// Name implements Algorithm.
func (r RetryColoring) Name() string { return fmt.Sprintf("retry-%d-coloring(T=%d)", r.Q, r.T) }

// Run implements Algorithm.
func (r RetryColoring) Run(in *lang.Instance, draw *localrand.Draw) (lang.Column, error) {
	return r.message().Run(in, draw)
}

// runInstances implements laneRunner.
func (r RetryColoring) runInstances(x Exec, ins []*lang.Instance, draws []localrand.Draw) ([]lang.Column, error) {
	return r.message().runInstances(x, ins, draws)
}

// message is the retry coloring as a message-passing construction.
func (r RetryColoring) message() MessageConstruction {
	return MessageConstruction{Algo: retryAlgo{q: r.Q, t: r.T}}
}

// RetryMessage exposes the retry coloring's message-passing core as a
// local.WireAlgorithm, for harnesses that drive engines directly — the
// shard-equivalence suite above all.
func RetryMessage(q, t int) local.WireAlgorithm { return retryAlgo{q: q, t: t} }

type retryAlgo struct{ q, t int }

func (a retryAlgo) Name() string { return fmt.Sprintf("retry-%d-coloring(T=%d)", a.q, a.t) }

// MsgWords implements local.WireAlgorithm: one word, the current color.
func (a retryAlgo) MsgWords(int) int { return 1 }

// NewWireProcess implements local.WireAlgorithm.
func (a retryAlgo) NewWireProcess() local.WireProcess {
	return &retryProc{q: a.q, t: a.t}
}

type retryProc struct {
	q, t  int
	tape  *localrand.Tape
	color int
}

// decodeRetryColor rejects anything but a single word holding a color
// below q.
func decodeRetryColor(words []uint64, q int) (int, bool) {
	if len(words) != 1 || words[0] >= uint64(q) {
		return 0, false
	}
	return int(words[0]), true
}

// ResetProcess implements local.ResetProcess, keeping the palette and
// round configuration while dropping all execution state.
func (p *retryProc) ResetProcess() { *p = retryProc{q: p.q, t: p.t} }

func (p *retryProc) Start(info local.NodeInfo, out *local.Outbox) {
	p.tape = info.Tape
	p.color = p.tape.Intn(p.q)
	out.Broadcast(uint64(p.color))
}

func (p *retryProc) Step(round int, in *local.Inbox, out *local.Outbox) bool {
	// Past the last retry round nothing can change the color any more, so
	// the node halts without scanning its final arrivals (whose only
	// possible effect is a conflict bit nobody reads).
	if round > p.t {
		return true
	}
	conflicted := false
	for port := 0; port < in.Degree(); port++ {
		if !in.Has(port) {
			continue
		}
		c, ok := decodeRetryColor(in.Words(port), p.q)
		if !ok {
			panic("construct: retry coloring received a malformed color word")
		}
		if c == p.color {
			conflicted = true
			break
		}
	}
	if conflicted {
		p.color = p.tape.Intn(p.q)
	}
	out.Broadcast(uint64(p.color))
	return false
}

func (p *retryProc) Output() []byte { return lang.EncodeColor(p.color) }

// VecWords implements local.VecAlgorithm: one state word per lane, the
// current color, kept as the wire word so broadcasts need no conversion.
func (a retryAlgo) VecWords() int { return 1 }

// StartVec implements local.VecAlgorithm: retryProc.Start on every lane
// of the range.
func (a retryAlgo) StartVec(r *local.VecRange) {
	for v := r.Lo; v < r.Hi; v++ {
		color := r.State(v, 0)
		for b := range color {
			color[b] = uint64(r.Tape(v, b).Intn(a.q))
		}
		r.BroadcastRow(v, color, r.Active(v))
	}
}

// StepVec implements local.VecAlgorithm: retryProc.Step on every active
// lane of the range, with the lanes still scanning for a conflict as one
// mask.
func (a retryAlgo) StepVec(r *local.VecRange, round int) {
	q := uint64(a.q)
	for v := r.Lo; v < r.Hi; v++ {
		act := r.Active(v)
		if act == 0 {
			continue
		}
		// Past the last retry round the lanes halt without scanning,
		// exactly like the scalar Step's early return.
		if round > a.t {
			r.Finish(v, act)
			continue
		}
		color := r.State(v, 0)
		// A conflicted lane stops scanning, like the scalar break — later
		// ports go unvalidated either way.
		scan := act
		for p, deg := 0, r.Degree(v); p < deg && scan != 0; p++ {
			lens, words, stride := r.Recv(v, p)
			for b, l := range lens {
				if scan>>b&1 == 0 || l == 0 {
					continue
				}
				c := words[b*stride]
				if l != 2 || c >= q {
					panic("construct: retry coloring received a malformed color word")
				}
				if c == color[b] {
					scan &^= 1 << b
				}
			}
		}
		for conf := act &^ scan; conf != 0; conf &= conf - 1 {
			b := bits.TrailingZeros64(conf)
			color[b] = uint64(r.Tape(v, b).Intn(a.q))
		}
		r.BroadcastRow(v, color, act)
	}
}

// OutputVec implements local.VecAlgorithm.
func (a retryAlgo) OutputVec(r *local.VecRange, v, b int) []byte {
	return lang.EncodeColor(int(r.State(v, 0)[b]))
}
