package lang

import (
	"fmt"
	"sync"

	"rlnc/internal/graph"
)

// LabeledBall is a radius-t ball together with the inputs and outputs of
// its nodes, indexed ball-locally (index 0 = center). LCL bad-ball
// predicates examine labeled balls and must not depend on identities —
// language membership is identity-free (§2.2.1).
type LabeledBall struct {
	Ball *graph.Ball
	X    [][]byte
	Y    [][]byte
}

// LabeledBallAround extracts the labeled ball B_G(v,t) from a
// configuration.
func LabeledBallAround(c *Config, v, t int) *LabeledBall {
	b := c.G.BallAround(v, t)
	x := make([][]byte, b.Size())
	y := make([][]byte, b.Size())
	for i, u := range b.Nodes {
		x[i] = c.X[u]
		y[i] = c.Y.At(u)
	}
	return &LabeledBall{Ball: b, X: x, Y: y}
}

// LCL is a locally checkable labeling language (§4): a language defined by
// the exclusion of a collection Bad(L) of balls of radius Radius. A
// configuration belongs to the language iff no node's ball is bad.
type LCL struct {
	LangName string
	Radius   int
	// Bad reports whether the ball violates the specification. It is the
	// membership test of Bad(L).
	Bad func(b *LabeledBall) bool
	// BadRow, when non-nil, is Bad evaluated for every center of one
	// labeled configuration at once over the global columns, without
	// assembling per-node views: after the call, bad[v] must equal
	// Bad(B(v, Radius)) for every node v — byte-for-byte the same
	// predicate, including the treatment of malformed outputs and the
	// neighbor scan order (the direct-neighbor order of a radius-1 ball
	// is the graph's port order). Only languages of radius at most 1
	// whose predicate reads the outputs of the center and its direct
	// neighbors can define it. CountBadBalls, BadNodes and Contains
	// evaluate it on every configuration whose X and Y cover exactly the
	// graph's nodes, and LCL deciders, with or without a coin, dispatch to
	// it on the hot trial path (decide.Exec.Verdicts); per-ball
	// evaluation of Bad is the fallback for languages without a row form
	// and, when counting, for shape-mismatched configurations. BadRow
	// never reads identities. len(bad) is the node count; scratch is
	// caller-provided per-node scratch of the same length, typically a
	// decode-once column so each output is validated once instead of
	// once per adjacent center.
	BadRow func(di *DecisionInstance, bad []bool, scratch []int32)
}

// Name implements Language.
func (l *LCL) Name() string { return l.LangName }

// Contains implements Language: no ball may be bad.
func (l *LCL) Contains(c *Config) (bool, error) {
	if err := c.Validate(); err != nil {
		return false, err
	}
	return l.CountBadBalls(c) == 0, nil
}

// CountBadBalls returns |F(G)| in the notation of Corollary 1's proof:
// the number of nodes v with B_G(v,t) ∈ Bad(L).
func (l *LCL) CountBadBalls(c *Config) int {
	count := 0
	if l.evalRow(c, func(bad []bool) {
		for _, b := range bad {
			if b {
				count++
			}
		}
	}) {
		return count
	}
	for v := 0; v < c.G.N(); v++ {
		if l.Bad(LabeledBallAround(c, v, l.Radius)) {
			count++
		}
	}
	return count
}

// BadNodes returns the centers of all bad balls.
func (l *LCL) BadNodes(c *Config) []int {
	var out []int
	if l.evalRow(c, func(bad []bool) {
		for v, b := range bad {
			if b {
				out = append(out, v)
			}
		}
	}) {
		return out
	}
	for v := 0; v < c.G.N(); v++ {
		if l.Bad(LabeledBallAround(c, v, l.Radius)) {
			out = append(out, v)
		}
	}
	return out
}

// rowScratch is the per-call working set of the row path. One *LCL is
// shared by every Monte-Carlo worker, so the scratch lives in a package
// pool rather than on the language.
type rowScratch struct {
	di  DecisionInstance
	bad []bool
	col []int32
}

var rowPool = sync.Pool{New: func() any { return new(rowScratch) }}

// evalRow runs BadRow over c and hands f the per-node bad row, which f
// must not retain. It reports false, without calling f, when the
// language has no row form or c's X and Y do not cover exactly the
// graph's nodes; the caller then evaluates Bad ball by ball.
func (l *LCL) evalRow(c *Config, f func(bad []bool)) bool {
	n := c.G.N()
	if l.BadRow == nil || len(c.X) != n || c.Y.Len() != n {
		return false
	}
	s := rowPool.Get().(*rowScratch)
	if cap(s.bad) < n {
		s.bad = make([]bool, n)
		s.col = make([]int32, n)
	}
	s.di = DecisionInstance{G: c.G, X: c.X, Y: c.Y}
	l.BadRow(&s.di, s.bad[:n], s.col[:n])
	f(s.bad[:n])
	s.di = DecisionInstance{} // drop the caller's graph and columns
	rowPool.Put(s)
	return true
}

// centerColor decodes the center's color; ok is false when the output is
// malformed or outside [0, q).
func centerColor(b *LabeledBall, q int) (int, bool) {
	col, err := DecodeColor(b.Y[0])
	if err != nil || col >= q {
		return 0, false
	}
	return col, true
}

// ProperColoring returns the LCL of proper q-colorings: the excluded balls
// of radius 1 are those whose center shares its color with a neighbor (or
// carries no valid color).
func ProperColoring(q int) *LCL {
	return &LCL{
		LangName: fmt.Sprintf("%d-coloring", q),
		Radius:   1,
		Bad: func(b *LabeledBall) bool {
			col, ok := centerColor(b, q)
			if !ok {
				return true
			}
			for _, u := range b.Ball.G.Neighbors(0) {
				nc, err := DecodeColor(b.Y[u])
				if err != nil {
					return true
				}
				if nc == col {
					return true
				}
			}
			return false
		},
		BadRow: func(di *DecisionInstance, bad []bool, col []int32) {
			decodeColorRow(di.Y, col)
			g := di.G
			for v := range bad {
				cv := col[v]
				// The center must carry a valid color below q; neighbors
				// need only decode — an out-of-palette neighbor is its own
				// center's violation, exactly as in Bad.
				if cv < 0 || int(cv) >= q {
					bad[v] = true
					continue
				}
				b := false
				for _, u := range g.Neighbors(v) {
					if cu := col[u]; cu < 0 || cu == cv {
						b = true
						break
					}
				}
				bad[v] = b
			}
		},
	}
}

// decodeColorRow decodes every node's output color once into col:
// -1 for a malformed output, the raw decoded value otherwise (range
// checks stay with the caller — Bad treats center and neighbor ranges
// differently). A fixed-form width-1 column is read as one color per
// byte.
func decodeColorRow(y Column, col []int32) {
	if w, fixed := y.Width(); fixed && w == 1 {
		for v, c := range y.data[:len(col)] {
			col[v] = int32(c)
		}
		return
	}
	for v := range col {
		if c, err := DecodeColor(y.At(v)); err != nil {
			col[v] = -1
		} else {
			col[v] = int32(c)
		}
	}
}

// decodeSelectedRow decodes every node's selection mark once into sel:
// 1 selected, 0 not selected, -1 malformed — DecodeSelected's verdicts,
// read as bytes from a fixed-form width-1 column.
func decodeSelectedRow(y Column, sel []int32) {
	if w, fixed := y.Width(); fixed && w == 1 {
		for v, c := range y.data[:len(sel)] {
			switch c {
			case Selected:
				sel[v] = 1
			case NotSelected:
				sel[v] = 0
			default:
				sel[v] = -1
			}
		}
		return
	}
	for v := range sel {
		if s, err := DecodeSelected(y.At(v)); err != nil {
			sel[v] = -1
		} else if s {
			sel[v] = 1
		} else {
			sel[v] = 0
		}
	}
}

// WeakColoring returns the LCL of weak q-colorings (§1.1, [28]): every
// node must have at least one neighbor with a different color.
func WeakColoring(q int) *LCL {
	return &LCL{
		LangName: fmt.Sprintf("weak-%d-coloring", q),
		Radius:   1,
		Bad: func(b *LabeledBall) bool {
			col, ok := centerColor(b, q)
			if !ok {
				return true
			}
			for _, u := range b.Ball.G.Neighbors(0) {
				nc, err := DecodeColor(b.Y[u])
				if err != nil {
					return true
				}
				if nc != col {
					return false // found a differing neighbor
				}
			}
			return true // no differing neighbor (or isolated center)
		},
		BadRow: func(di *DecisionInstance, bad []bool, col []int32) {
			decodeColorRow(di.Y, col)
			g := di.G
			for v := range bad {
				cv := col[v]
				if cv < 0 || int(cv) >= q {
					bad[v] = true
					continue
				}
				// The neighbor scan is order-sensitive: a differing
				// neighbor before the first malformed one acquits the
				// center, exactly as Bad's early return does.
				b := true
				for _, u := range g.Neighbors(v) {
					cu := col[u]
					if cu < 0 {
						break // malformed neighbor: bad
					}
					if cu != cv {
						b = false // found a differing neighbor
						break
					}
				}
				bad[v] = b
			}
		},
	}
}

// MIS returns the LCL of maximal independent sets: a selected node may not
// have a selected neighbor; an unselected node must have one.
func MIS() *LCL {
	return &LCL{
		LangName: "mis",
		Radius:   1,
		Bad: func(b *LabeledBall) bool {
			sel, err := DecodeSelected(b.Y[0])
			if err != nil {
				return true
			}
			anySelected := false
			for _, u := range b.Ball.G.Neighbors(0) {
				nsel, err := DecodeSelected(b.Y[u])
				if err != nil {
					return true
				}
				if nsel {
					anySelected = true
				}
			}
			if sel {
				return anySelected // independence violated
			}
			return !anySelected // domination violated
		},
		BadRow: func(di *DecisionInstance, bad []bool, sel []int32) {
			decodeSelectedRow(di.Y, sel)
			g := di.G
			for v := range bad {
				sv := sel[v]
				if sv < 0 {
					bad[v] = true
					continue
				}
				nbrErr, anySelected := false, false
				for _, u := range g.Neighbors(v) {
					switch sel[u] {
					case -1:
						nbrErr = true
					case 1:
						anySelected = true
					}
				}
				if sv == 1 {
					bad[v] = nbrErr || anySelected // independence violated
				} else {
					bad[v] = nbrErr || !anySelected // domination violated
				}
			}
		},
	}
}

// NoneSelected returns the radius-0 LCL "no node is selected": a ball is
// bad iff its center decodes as selected (malformed marks count as not
// selected). Its f = 1 relaxation is amos (§2.3.1).
func NoneSelected() *LCL {
	return &LCL{
		LangName: "none-selected",
		Radius:   0,
		Bad: func(b *LabeledBall) bool {
			sel, err := DecodeSelected(b.Y[0])
			return err == nil && sel
		},
		BadRow: func(di *DecisionInstance, bad []bool, sel []int32) {
			decodeSelectedRow(di.Y, sel)
			for v, s := range sel {
				bad[v] = s == 1
			}
		},
	}
}

// MaximalMatching returns the LCL of maximal matchings. Outputs encode
// "matched through host port p" or the unmatched sentinel; the excluded
// balls of radius 1 are those where the center's claimed partner does not
// reciprocate, the port is invalid, or both the center and a neighbor are
// unmatched (maximality).
func MaximalMatching() *LCL {
	return &LCL{
		LangName: "maximal-matching",
		Radius:   1,
		Bad:      badMatchingBall,
	}
}

func badMatchingBall(b *LabeledBall) bool {
	port, matched, err := DecodeMatchPort(b.Y[0])
	if err != nil {
		return true
	}
	if matched {
		// Find the local neighbor reached through the claimed host port.
		partner := -1
		for j, hostPort := range b.Ball.Ports[0] {
			if hostPort == port {
				partner = int(b.Ball.G.Neighbors(0)[j])
				break
			}
		}
		if partner == -1 {
			return true // port does not exist at the center
		}
		// The partner must point back at the center through its own port.
		pPort, pMatched, err := DecodeMatchPort(b.Y[partner])
		if err != nil || !pMatched {
			return true
		}
		for j, hostPort := range b.Ball.Ports[partner] {
			if hostPort == pPort {
				return int(b.Ball.G.Neighbors(partner)[j]) != 0
			}
		}
		return true // partner's port points outside the ball, hence not at center
	}
	// Maximality: an unmatched center may not have an unmatched neighbor.
	for _, u := range b.Ball.G.Neighbors(0) {
		_, nMatched, err := DecodeMatchPort(b.Y[u])
		if err != nil {
			return true
		}
		if !nMatched {
			return true
		}
	}
	return false
}

// MinimalDominatingSet returns the LCL of minimal dominating sets, with
// radius 2: domination is a radius-1 condition; minimality of a selected
// center needs its neighbors' neighborhoods.
func MinimalDominatingSet() *LCL {
	return &LCL{
		LangName: "minimal-dominating-set",
		Radius:   2,
		Bad:      badMDSBall,
	}
}

func badMDSBall(b *LabeledBall) bool {
	selAt := func(local int) (bool, bool) {
		s, err := DecodeSelected(b.Y[local])
		return s, err == nil
	}
	sel, ok := selAt(0)
	if !ok {
		return true
	}
	neighbors := b.Ball.G.Neighbors(0)
	if !sel {
		// Domination: some neighbor must be selected.
		for _, u := range neighbors {
			if s, ok := selAt(int(u)); !ok {
				return true
			} else if s {
				return false
			}
		}
		return true
	}
	// Minimality: the selected center is redundant — and the ball bad — if
	// the center is dominated without itself (some selected neighbor) and
	// every neighbor is dominated without the center.
	centerCovered := false
	for _, u := range neighbors {
		s, ok := selAt(int(u))
		if !ok {
			return true
		}
		if s {
			centerCovered = true
		}
	}
	if !centerCovered {
		return false // center is the only dominator of itself: not redundant
	}
	for _, u := range neighbors {
		uCovered := false
		if s, _ := selAt(int(u)); s {
			uCovered = true
		}
		for j, w := range b.Ball.G.Neighbors(int(u)) {
			_ = j
			if int(w) == 0 {
				continue // coverage by the center does not count
			}
			if s, ok := selAt(int(w)); ok && s {
				uCovered = true
				break
			}
		}
		if !uCovered {
			return false // u needs the center: center not redundant
		}
	}
	return true // center redundant: minimality violated
}

// FrugalColoring returns the LCL of c-frugal proper q-colorings (§4):
// proper coloring with the extra constraint that no color appears more
// than c times in the neighborhood of any node.
func FrugalColoring(q, c int) *LCL {
	proper := ProperColoring(q)
	return &LCL{
		LangName: fmt.Sprintf("%d-frugal-%d-coloring", c, q),
		Radius:   1,
		Bad: func(b *LabeledBall) bool {
			if proper.Bad(b) {
				return true
			}
			counts := make(map[int]int)
			for _, u := range b.Ball.G.Neighbors(0) {
				nc, err := DecodeColor(b.Y[u])
				if err != nil {
					return true
				}
				counts[nc]++
				if counts[nc] > c {
					return true
				}
			}
			return false
		},
	}
}
