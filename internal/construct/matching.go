package construct

import (
	"rlnc/internal/lang"
	"rlnc/internal/local"
	"rlnc/internal/localrand"
)

// EdgeLubyMatching computes a maximal matching by running Luby's
// algorithm on the line graph: in every phase each active edge gets a
// random totally ordered value (drawn by its higher-identity endpoint and
// shipped across), endpoints exchange their incident value lists, and an
// edge whose value is the strict minimum among all adjacent edges joins
// the matching. Matched nodes announce themselves; edges touching matched
// nodes deactivate. Maximality: an edge between two unmatched nodes stays
// active, and Luby's argument guarantees every active edge is eventually
// resolved (O(log n) phases with high probability).
//
// Outputs use the port encoding of lang.MaximalMatching: the host port of
// the matched edge, or the unmatched sentinel.
type EdgeLubyMatching struct{}

// Name implements local.WireAlgorithm.
func (EdgeLubyMatching) Name() string { return "edge-luby-matching" }

// MsgWords implements local.WireAlgorithm: the widest message is a share
// list of up to degree edge values at three words each (a draw is one
// value, an announcement is a zero-word signal).
func (EdgeLubyMatching) MsgWords(degree int) int { return 3 * degree }

// NewWireProcess implements local.WireAlgorithm.
func (EdgeLubyMatching) NewWireProcess() local.WireProcess { return &matchProc{} }

// matchVal totally orders edges: random word, then the drawing endpoint's
// identity and port for tie-breaking.
type matchVal struct {
	R     uint64
	HID   int64
	HPort int
}

func (a matchVal) less(b matchVal) bool {
	switch {
	case a.R != b.R:
		return a.R < b.R
	case a.HID != b.HID:
		return a.HID < b.HID
	default:
		return a.HPort < b.HPort
	}
}

// Phase messages and their wire codec. Draw: the higher endpoint ships
// the edge value — three words [R, HID, HPort]. Share: each node ships
// the values of all its active edges — 3k words, k >= 1 values in port
// order. Announce: a matched node tells its neighbors — a zero-word
// signal. The three-round phase schedule (round mod 3) determines which
// kind a received payload is.

// appendMatchVal appends one edge value (three words) to port's message.
func appendMatchVal(out *local.Outbox, port int, v matchVal) {
	out.Append(port, v.R)
	out.Append(port, uint64(v.HID))
	out.Append(port, uint64(v.HPort))
}

// matchValAt reads the i-th edge value of a share or draw payload.
func matchValAt(words []uint64, i int) matchVal {
	return matchVal{R: words[3*i], HID: int64(words[3*i+1]), HPort: int(words[3*i+2])}
}

// decodeMatchDraw rejects anything but a single three-word edge value.
func decodeMatchDraw(words []uint64) (matchVal, bool) {
	if len(words) != 3 {
		return matchVal{}, false
	}
	return matchValAt(words, 0), true
}

// decodeMatchShare validates a share list: a positive multiple of three
// words. It returns the value count; values are read via matchValAt.
func decodeMatchShare(words []uint64) (int, bool) {
	if len(words) == 0 || len(words)%3 != 0 {
		return 0, false
	}
	return len(words) / 3, true
}

// decodeMatchAnnounce rejects any announcement carrying payload words.
func decodeMatchAnnounce(words []uint64) bool { return len(words) == 0 }

type matchProc struct {
	tape    *localrand.Tape
	id      int64
	active  []bool
	edgeVal []matchVal
	pending []matchVal // own candidates for the current phase
	matched int        // matched port, or -1
}

// sendDraws draws fresh candidates for the active ports (in port order,
// one tape word each) and ships them.
func (p *matchProc) sendDraws(out *local.Outbox) {
	for port, a := range p.active {
		if !a {
			continue
		}
		cand := matchVal{R: p.tape.Uint64(), HID: p.id, HPort: port}
		p.pending[port] = cand
		out.Send(port, cand.R)
		out.Append(port, uint64(cand.HID))
		out.Append(port, uint64(cand.HPort))
	}
}

// ResetProcess implements local.ResetProcess: the per-port buffers keep
// their capacity (Start reinitializes their contents), everything else —
// the tape above all — is dropped.
func (p *matchProc) ResetProcess() {
	p.tape = nil
	p.id = 0
	p.matched = -1
}

// reuseSlice returns s resized to n elements, reusing its backing array
// when the capacity allows; the caller reinitializes the contents.
func reuseSlice[T any](s []T, n int) []T {
	if cap(s) >= n {
		return s[:n]
	}
	return make([]T, n)
}

func (p *matchProc) Start(info local.NodeInfo, out *local.Outbox) {
	p.tape = info.Tape
	p.id = info.ID
	p.active = reuseSlice(p.active, info.Degree)
	for i := range p.active {
		p.active[i] = true
	}
	p.edgeVal = reuseSlice(p.edgeVal, info.Degree)
	clear(p.edgeVal)
	p.pending = reuseSlice(p.pending, info.Degree)
	clear(p.pending)
	p.matched = -1
	// Draw round: both endpoints ship candidates; the higher-identity
	// endpoint's candidate becomes the edge value on both sides.
	p.sendDraws(out)
}

func (p *matchProc) Step(round int, in *local.Inbox, out *local.Outbox) bool {
	deg := in.Degree()
	switch round % 3 {
	case 1: // draw messages arrived; fix edge values, ship share lists
		for port := 0; port < deg; port++ {
			if !in.Has(port) || !p.active[port] {
				continue
			}
			v, ok := decodeMatchDraw(in.Words(port))
			if !ok {
				panic("construct: matching received a malformed draw message")
			}
			if v.HID > p.id {
				p.edgeVal[port] = v // the neighbor is the higher endpoint
			} else {
				p.edgeVal[port] = p.pending[port]
			}
		}
		for port, a := range p.active {
			if !a {
				continue
			}
			for q, aq := range p.active {
				if aq {
					appendMatchVal(out, port, p.edgeVal[q])
				}
			}
		}
		return false
	case 2: // share lists arrived; decide, announce
		best := -1
		for port, a := range p.active {
			if !a {
				continue
			}
			if p.isLocalMin(port, in) {
				best = port
				break // at most one edge at this node can be the local min
			}
		}
		if best >= 0 {
			p.matched = best
			for port, a := range p.active {
				if a {
					out.Signal(port)
				}
			}
			return true
		}
		return false
	default: // case 0: announcements arrived; deactivate, redraw
		for port := 0; port < deg; port++ {
			if !in.Has(port) {
				continue
			}
			if !decodeMatchAnnounce(in.Words(port)) {
				panic("construct: matching received a malformed announcement")
			}
			p.active[port] = false
		}
		if !p.anyActive() {
			return true // unmatched, but no augmenting edge remains
		}
		p.sendDraws(out)
		return false
	}
}

func (p *matchProc) isLocalMin(port int, in *local.Inbox) bool {
	v := p.edgeVal[port]
	// Compare against our own active edges.
	for q, a := range p.active {
		if !a || q == port {
			continue
		}
		if p.edgeVal[q].less(v) {
			return false
		}
	}
	// And against the neighbor's active edges.
	if !in.Has(port) {
		return false // neighbor went silent: treat as unresolved this phase
	}
	words := in.Words(port)
	k, ok := decodeMatchShare(words)
	if !ok {
		panic("construct: matching received a malformed share list")
	}
	for i := 0; i < k; i++ {
		if w := matchValAt(words, i); w != v && w.less(v) {
			return false
		}
	}
	return true
}

func (p *matchProc) anyActive() bool {
	for _, a := range p.active {
		if a {
			return true
		}
	}
	return false
}

func (p *matchProc) Output() []byte {
	return lang.EncodeMatchPort(p.matched, p.matched >= 0)
}

// MaximalMatchingAlgorithm packages the edge-Luby matching.
func MaximalMatchingAlgorithm() Algorithm {
	return MessageConstruction{Algo: EdgeLubyMatching{}}
}
