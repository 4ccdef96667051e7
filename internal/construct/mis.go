package construct

import (
	"rlnc/internal/lang"
	"rlnc/internal/local"
	"rlnc/internal/localrand"
)

// LubyMIS is Luby's randomized maximal-independent-set algorithm, the
// standard O(log n)-round Monte-Carlo construction. Phases take two
// rounds: in the value round every undecided node broadcasts a random
// (value, id) pair and the strict local minimum among undecided nodes
// joins the set; in the announce round joiners notify their neighbors,
// who drop out. The output marks members with the selection byte.
type LubyMIS struct{}

// Name implements local.WireAlgorithm.
func (LubyMIS) Name() string { return "luby-mis" }

// MsgWords implements local.WireAlgorithm: a value message is two words
// (random word, identity); a join announcement is a zero-word signal.
func (LubyMIS) MsgWords(int) int { return 2 }

// NewWireProcess implements local.WireAlgorithm.
func (LubyMIS) NewWireProcess() local.WireProcess { return &lubyProc{} }

type lubyStatus int

const (
	lubyUndecided lubyStatus = iota
	lubyIn
	lubyOut
)

// lubyVal is a totally ordered random value (ties broken by identity).
type lubyVal struct {
	R  uint64
	ID int64
}

func (a lubyVal) less(b lubyVal) bool {
	if a.R != b.R {
		return a.R < b.R
	}
	return a.ID < b.ID
}

// Wire codec. A value message is exactly two words [R, ID]; a join
// announcement is a zero-word signal, so the payload length alone
// distinguishes the two kinds.

// broadcastLubyVal stages a value message on every port.
func broadcastLubyVal(out *local.Outbox, v lubyVal) {
	out.BroadcastVec(v.R, uint64(v.ID))
}

// decodeLubyVal rejects anything but a two-word value message.
func decodeLubyVal(words []uint64) (lubyVal, bool) {
	if len(words) != 2 {
		return lubyVal{}, false
	}
	return lubyVal{R: words[0], ID: int64(words[1])}, true
}

// decodeLubyJoin rejects any join announcement carrying payload words.
func decodeLubyJoin(words []uint64) bool { return len(words) == 0 }

type lubyProc struct {
	tape   *localrand.Tape
	id     int64
	status lubyStatus
	val    lubyVal
}

// ResetProcess implements local.ResetProcess: engines pool Luby process
// tables across trials instead of allocating one per (node, lane) per
// run.
func (p *lubyProc) ResetProcess() { *p = lubyProc{} }

func (p *lubyProc) Start(info local.NodeInfo, out *local.Outbox) {
	p.tape = info.Tape
	p.id = info.ID
	p.val = lubyVal{R: p.tape.Uint64(), ID: p.id}
	broadcastLubyVal(out, p.val)
}

func (p *lubyProc) Step(round int, in *local.Inbox, out *local.Outbox) bool {
	if round%2 == 1 {
		// Value round just completed: join if strictly smaller than every
		// undecided neighbor (decided neighbors are silent).
		isMin := true
		for port := 0; port < in.Degree(); port++ {
			words, has := in.Payload(port)
			if !has {
				continue
			}
			v, ok := decodeLubyVal(words)
			if !ok {
				panic("construct: Luby MIS received a malformed value message")
			}
			if v.less(p.val) {
				isMin = false
				break
			}
		}
		if isMin {
			p.status = lubyIn
			// Final act: announce membership, then stop.
			out.SignalAll()
			return true
		}
		return false
	}
	// Announce round just completed: drop out next to a member.
	for port := 0; port < in.Degree(); port++ {
		words, has := in.Payload(port)
		if !has {
			continue
		}
		if !decodeLubyJoin(words) {
			panic("construct: Luby MIS received a malformed join announcement")
		}
		p.status = lubyOut
		return true
	}
	// Still undecided: draw a fresh value for the next phase.
	p.val = lubyVal{R: p.tape.Uint64(), ID: p.id}
	broadcastLubyVal(out, p.val)
	return false
}

func (p *lubyProc) Output() []byte {
	return lang.EncodeSelected(p.status == lubyIn)
}

// LubyMISAlgorithm packages Luby's MIS as a construction algorithm.
func LubyMISAlgorithm() Algorithm {
	return MessageConstruction{Algo: LubyMIS{}}
}

// WeakColoringViaMIS composes MIS with the zero-round map selected -> 0,
// unselected -> 1. The result is a weak 2-coloring on graphs with minimum
// degree >= 1: members have only non-members around them (independence),
// and every non-member has a member neighbor (maximality). This replaces
// the Naor–Stockmeyer constant-time odd-degree construction; E8's table
// notes the substitution (internal/exp/e08_zoo.go).
func WeakColoringViaMIS() Algorithm {
	return Pipeline{
		PipeName: "weak-2-coloring(mis)",
		Stages: []Algorithm{
			LubyMISAlgorithm(),
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
