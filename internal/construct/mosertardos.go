package construct

import (
	"fmt"

	"rlnc/internal/lang"
	"rlnc/internal/local"
	"rlnc/internal/localrand"
)

// MoserTardosLLL is a distributed Moser–Tardos resampler for the paper's
// LLL example language (lang.LLL): every node holds one bit, and the bad
// event at v is that v's closed star is monochromatic. Following the
// distributed constructive LLL of Chung–Pettie–Su [6] in spirit, each
// phase
//
//  1. broadcasts bits (1 round),
//  2. detects violated events and floods them to radius 2 (2 rounds),
//  3. selects an independent set of violated events — identity-minimal
//     among violated events within distance 2, so selected stars are
//     disjoint — and resamples exactly those stars (1 round of resample
//     commands; owners redraw their bits from their own tapes).
//
// The algorithm runs a fixed number of phases; experiment E3/E10 measures
// the surviving bad events, and the f-resilient relaxation of the
// language is what Corollary 1 proves cannot be constructed in O(1)
// rounds. Phases = 0 degenerates to the plain zero-round random
// assignment.
type MoserTardosLLL struct {
	Phases int
}

// Name implements local.WireAlgorithm.
func (m MoserTardosLLL) Name() string { return fmt.Sprintf("moser-tardos-lll(phases=%d)", m.Phases) }

// MsgWords implements local.WireAlgorithm: the widest message is the
// second violation wave, the union of the node's own violated event
// (at most one) with one event per neighbor — degree+1 words. Bit
// broadcasts are one word; resample commands are zero-word signals.
func (m MoserTardosLLL) MsgWords(degree int) int { return degree + 1 }

// NewWireProcess implements local.WireAlgorithm.
func (m MoserTardosLLL) NewWireProcess() local.WireProcess { return &mtProc{phases: m.Phases} }

// Wire codec. The four-round phase schedule determines the message kind:
// bit broadcasts (one word, 0 or 1) arrive in phase round 1, violated
// event lists (one word per event identity, any count including zero) in
// phase rounds 2 and 3, resample commands (zero-word signals) in phase
// round 4.

// decodeMTBit rejects anything but a single 0/1 word.
func decodeMTBit(words []uint64) (byte, bool) {
	if len(words) != 1 || words[0] > 1 {
		return 0, false
	}
	return byte(words[0]), true
}

// broadcastEvents ships the violated-event set on every port. Event
// identities are words; a violated list may be empty, which still
// transmits (an empty announcement is how "nothing violated here"
// propagates, exactly as the boxed mtViolated{} did).
func broadcastEvents(out *local.Outbox, events map[int64]bool) {
	for port := 0; port < out.Degree(); port++ {
		out.Signal(port)
		for e := range events {
			out.Append(port, uint64(e))
		}
	}
}

// gatherEvents unions a violated payload into the seen set.
func gatherEvents(seen map[int64]bool, words []uint64) {
	for _, w := range words {
		seen[int64(w)] = true
	}
}

// decodeMTResample rejects any resample command carrying payload words.
func decodeMTResample(words []uint64) bool { return len(words) == 0 }

type mtProc struct {
	phases int
	tape   *localrand.Tape
	id     int64
	bit    byte
	nbrBit []byte

	violated   bool
	seenEvents map[int64]bool
}

// ResetProcess implements local.ResetProcess: the neighbor-bit buffer
// and the event set keep their storage (Start reinitializes them), the
// tape and execution state are dropped.
func (p *mtProc) ResetProcess() {
	p.tape = nil
	p.id = 0
	p.bit = 0
	p.violated = false
}

func (p *mtProc) Start(info local.NodeInfo, out *local.Outbox) {
	p.tape = info.Tape
	p.id = info.ID
	if p.tape.Bool() {
		p.bit = 1
	}
	p.nbrBit = reuseSlice(p.nbrBit, info.Degree)
	clear(p.nbrBit)
	if p.seenEvents == nil {
		p.seenEvents = make(map[int64]bool, info.Degree+1)
	} else {
		clear(p.seenEvents)
	}
	if p.phases == 0 {
		return
	}
	out.Broadcast(uint64(p.bit))
}

func (p *mtProc) Step(round int, in *local.Inbox, out *local.Outbox) bool {
	if p.phases == 0 {
		return true
	}
	deg := in.Degree()
	phaseRound := (round-1)%4 + 1
	phase := (round-1)/4 + 1
	switch phaseRound {
	case 1: // bits arrived: detect own violation, announce violated events
		p.violated = true
		for port := 0; port < deg; port++ {
			b, ok := decodeMTBit(in.Words(port))
			if !ok {
				panic("construct: Moser-Tardos received a malformed bit")
			}
			p.nbrBit[port] = b
			if b != p.bit {
				p.violated = false
			}
		}
		if deg == 0 {
			p.violated = false
		}
		clear(p.seenEvents)
		if p.violated {
			p.seenEvents[p.id] = true
		}
		broadcastEvents(out, p.seenEvents)
		return false
	case 2: // first violation wave: gather, forward (reaches radius 2)
		for port := 0; port < deg; port++ {
			if !in.Has(port) {
				panic("construct: Moser-Tardos missing a violation wave")
			}
			gatherEvents(p.seenEvents, in.Words(port))
		}
		broadcastEvents(out, p.seenEvents)
		return false
	case 3: // second violation wave: select local minima, command resample
		for port := 0; port < deg; port++ {
			if !in.Has(port) {
				panic("construct: Moser-Tardos missing a violation wave")
			}
			gatherEvents(p.seenEvents, in.Words(port))
		}
		selected := p.violated
		if selected {
			for e := range p.seenEvents {
				if e < p.id {
					selected = false
					break
				}
			}
		}
		if selected {
			// Resample own bit and command the star to resample.
			if p.tape.Bool() {
				p.bit = 1
			} else {
				p.bit = 0
			}
			out.SignalAll()
		}
		return false
	default: // case 0 mod 4: resample commands arrived; redraw, next phase
		for port := 0; port < deg; port++ {
			if !in.Has(port) {
				continue
			}
			if !decodeMTResample(in.Words(port)) {
				panic("construct: Moser-Tardos received a malformed resample command")
			}
			if p.tape.Bool() {
				p.bit = 1
			} else {
				p.bit = 0
			}
			break // disjoint stars: at most one command possible
		}
		if phase >= p.phases {
			return true
		}
		out.Broadcast(uint64(p.bit))
		return false
	}
}

func (p *mtProc) Output() []byte { return lang.EncodeColor(int(p.bit)) }

// MoserTardosAlgorithm packages the resampler.
func MoserTardosAlgorithm(phases int) Algorithm {
	return MessageConstruction{Algo: MoserTardosLLL{Phases: phases}}
}
