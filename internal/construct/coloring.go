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

// VecWords implements local.VecAlgorithm: one state word per lane, the
// current color, kept as the wire word so broadcasts need no conversion.
func (a retryAlgo) VecWords() int { return 1 }

// StartVec implements local.VecAlgorithm: every lane of every node
// draws a uniform color and broadcasts it.
func (a retryAlgo) StartVec(r *local.VecRange) {
	for v := r.Lo; v < r.Hi; v++ {
		color := r.State(v, 0)
		for b := range color {
			color[b] = uint64(r.Tape(v, b).Intn(a.q))
		}
		r.BroadcastRow(v, color, r.Active(v))
	}
}

// decodeRetryColor reads one lane's arrival as a kernel sees it — l is
// its lens entry (0 = no message, n+1 = an n-word payload), w its first
// slab word — and rejects anything but a single word holding a color
// below q.
func decodeRetryColor(l int32, w, q uint64) (uint64, bool) {
	return w, l == 2 && w < q
}

// StepVec implements local.VecAlgorithm: in each of the T retry rounds
// every active lane in conflict with a neighbor resamples, with the
// lanes still scanning for a conflict as one mask. A color word that is
// not one word below q is a broken invariant.
func (a retryAlgo) StepVec(r *local.VecRange, round int) {
	q := uint64(a.q)
	for v := r.Lo; v < r.Hi; v++ {
		act := r.Active(v)
		if act == 0 {
			continue
		}
		// Past the last retry round nothing can change the color any
		// more, so the lanes halt without scanning their final arrivals
		// (whose only possible effect is a conflict bit nobody reads).
		if round > a.t {
			r.Finish(v, act)
			continue
		}
		color := r.State(v, 0)
		// A conflicted lane stops scanning: its later ports go
		// unvalidated.
		scan := act
		for p, deg := 0, r.Degree(v); p < deg && scan != 0; p++ {
			lens, words, stride := r.Recv(v, p)
			for b, l := range lens {
				if scan>>b&1 == 0 || l == 0 {
					continue
				}
				c, ok := decodeRetryColor(l, words[b*stride], q)
				if !ok {
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
