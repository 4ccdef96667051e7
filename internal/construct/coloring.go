package construct

import (
	"fmt"

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
func (r RetryColoring) Run(in *lang.Instance, draw *localrand.Draw) ([][]byte, error) {
	return r.message().Run(in, draw)
}

// runInstances implements laneRunner.
func (r RetryColoring) runInstances(x Exec, ins []*lang.Instance, draws []localrand.Draw) ([][][]byte, error) {
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

// NewVecProcess implements local.VecAlgorithm: one SoA process per node
// steps every lane of a batch in a single call per round.
func (a retryAlgo) NewVecProcess() local.VecProcess { return &retryVec{q: a.q, t: a.t} }

// retryVec is retryProc across all lanes as struct-of-arrays; colors are
// kept as wire words so the broadcast row needs no conversion pass.
type retryVec struct {
	q, t  int
	tapes []*localrand.Tape
	color []uint64
	act   []bool // scratch: lanes this call acts for
	conf  []bool // scratch: conflicted lanes
	scan  []bool // scratch: lanes still scanning (act and not yet conflicted)
}

// ResetVec implements local.ResetVecProcess, keeping the palette and
// round configuration while dropping the tape references into the
// engine's per-run slab.
func (p *retryVec) ResetVec() { clear(p.tapes) }

func (p *retryVec) ensure(k int) {
	p.tapes = vecRow(p.tapes, k)
	p.color = vecRow(p.color, k)
	p.act = vecRow(p.act, k)
	p.conf = vecRow(p.conf, k)
	p.scan = vecRow(p.scan, k)
}

func (p *retryVec) StartVec(info *local.VecNodeInfo, out *local.OutboxVec) {
	k := info.Lanes()
	p.ensure(k)
	for b := 0; b < k; b++ {
		t := info.Tape(b)
		p.tapes[b] = t
		p.color[b] = uint64(t.Intn(p.q))
		p.act[b] = true
	}
	out.BroadcastRow(p.color, p.act)
}

func (p *retryVec) StepVec(round int, in *local.InboxVec, out *local.OutboxVec, done []bool) {
	k, mask := in.Lanes(), in.Mask()
	act, conf, scan := p.act[:k], p.conf[:k], p.scan[:k]
	// Past the last retry round the lanes halt without scanning, exactly
	// like the scalar Step's early return.
	if round > p.t {
		for b := 0; b < k; b++ {
			if !done[b] && (mask == nil || !mask[b]) {
				done[b] = true
			}
		}
		return
	}
	for b := 0; b < k; b++ {
		a := !done[b] && (mask == nil || !mask[b])
		act[b] = a
		conf[b] = false
		// A conflicted lane skips the rest of the scan, like the scalar
		// break — later ports go unvalidated either way — so the scan
		// predicate folds act and not-yet-conflicted into one branch.
		scan[b] = a
	}
	q, color := uint64(p.q), p.color[:k]
	for port := 0; port < in.Degree(); port++ {
		lens := in.LensRow(port)
		words, stride := in.WordBlock(port)
		if stride == 1 && len(words) >= k {
			// MsgWords is 1, so every port's block is stride-1: the lane's
			// word is words[b] and the bounds checks vanish from the loop.
			w := words[:k]
			for b := 0; b < k; b++ {
				if !scan[b] {
					continue
				}
				l := lens[b]
				if l == 0 {
					continue
				}
				c := w[b]
				if l != 2 || c >= q {
					panic("construct: retry coloring received a malformed color word")
				}
				if c == color[b] {
					conf[b] = true
					scan[b] = false
				}
			}
			continue
		}
		for b := 0; b < k; b++ {
			if !scan[b] {
				continue
			}
			l := lens[b]
			if l == 0 {
				continue
			}
			c := words[b*stride]
			if l != 2 || c >= q {
				panic("construct: retry coloring received a malformed color word")
			}
			if c == color[b] {
				conf[b] = true
				scan[b] = false
			}
		}
	}
	for b := 0; b < k; b++ {
		if act[b] && conf[b] {
			p.color[b] = uint64(p.tapes[b].Intn(p.q))
		}
	}
	out.BroadcastRow(p.color, act)
}

func (p *retryVec) OutputVec(b int) []byte { return lang.EncodeColor(int(p.color[b])) }
