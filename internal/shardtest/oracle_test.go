package shardtest

import (
	"fmt"
	"math/bits"

	"rlnc/internal/construct"
	"rlnc/internal/lang"
	"rlnc/internal/local"
	"rlnc/internal/localrand"
)

// This file is the frozen scalar oracle of the two kernel-only ring
// algorithms: retry coloring and Cole–Vishkin as per-node WireProcesses,
// exactly as they stepped before their kernels became their one stepping
// path. The processes are kept verbatim — panic texts included, so a
// kernel must fail exactly where its process failed — and the vec
// differential matrix pins the kernels against them byte for byte.

// retryRef is construct.RetryMessage(q, t) as a ProcessAlgorithm.
type retryRef struct{ q, t int }

func (a retryRef) Name() string     { return fmt.Sprintf("retry-%d-coloring(T=%d)", a.q, a.t) }
func (a retryRef) MsgWords(int) int { return 1 }
func (a retryRef) NewWireProcess() local.WireProcess {
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

// cvRef is construct.ColeVishkin{MaxIDBits} as a ProcessAlgorithm.
type cvRef struct{ maxIDBits int }

func (cv cvRef) Name() string     { return fmt.Sprintf("cole-vishkin(b=%d)", cv.maxIDBits) }
func (cv cvRef) MsgWords(int) int { return 1 }
func (cv cvRef) NewWireProcess() local.WireProcess {
	return &cvProc{reductions: construct.ReductionRounds(cv.maxIDBits)}
}

type cvProc struct {
	reductions int
	color      uint64
	phase2At   int // round index where shift-down begins
}

// Cycle port convention (see graph.Cycle): port 0 = successor,
// port 1 = predecessor.
const (
	succPort = 0
	predPort = 1
)

// cvStep performs one reduction: the lowest differing bit position i
// against the successor, recolored to 2i + ownBit.
func cvStep(own, succ uint64) uint64 {
	diff := own ^ succ
	if diff == 0 {
		panic("construct: Cole-Vishkin invariant broken (equal adjacent colors)")
	}
	i := uint(bits.TrailingZeros64(diff))
	bit := (own >> i) & 1
	return uint64(2*i) + bit
}

// smallestFree returns the smallest color in {0,1,2} differing from both
// arguments; it exists because only two values are excluded.
func smallestFree(a, b uint64) uint64 {
	for c := uint64(0); c <= 2; c++ {
		if c != a && c != b {
			return c
		}
	}
	panic("construct: no free color in {0,1,2}")
}

// decodeCVColor rejects anything but a single color word.
func decodeCVColor(words []uint64) (uint64, bool) {
	if len(words) != 1 {
		return 0, false
	}
	return words[0], true
}

// mustCVColor is decodeCVColor for the round loop, where a missing or
// malformed neighbor color is a broken invariant (the ring is
// synchronous: both neighbors send every round until the common halt).
func mustCVColor(in *local.Inbox, port int) uint64 {
	c, ok := decodeCVColor(in.Words(port))
	if !ok {
		panic("construct: Cole-Vishkin received a malformed color word")
	}
	return c
}

// ResetProcess implements local.ResetProcess, keeping the reduction
// schedule while dropping all execution state.
func (p *cvProc) ResetProcess() { *p = cvProc{reductions: p.reductions} }

func (p *cvProc) Start(info local.NodeInfo, out *local.Outbox) {
	if info.Degree != 2 {
		panic("construct: Cole-Vishkin requires a cycle (degree 2 everywhere)")
	}
	p.color = uint64(info.ID)
	p.phase2At = p.reductions + 1
	// Every round sends the current color both ways; only the successor's
	// value is used during reduction, both during shift-down.
	out.Broadcast(p.color)
}

func (p *cvProc) Step(round int, in *local.Inbox, out *local.Outbox) bool {
	succC := mustCVColor(in, succPort)
	predC := mustCVColor(in, predPort)
	switch {
	case round <= p.reductions:
		p.color = cvStep(p.color, succC)
	default:
		// Shift-down: rounds phase2At, phase2At+1, phase2At+2 remove
		// colors 5, 4, 3 in that order.
		target := uint64(5 - (round - p.phase2At))
		if p.color == target {
			p.color = smallestFree(predC, succC)
		}
		if round >= p.phase2At+2 {
			return true
		}
	}
	out.Broadcast(p.color)
	return false
}

func (p *cvProc) Output() []byte {
	return lang.EncodeColor(int(p.color))
}
