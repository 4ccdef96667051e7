package local

import (
	"fmt"
	"reflect"
)

// This file defines the wire-format message contract, the only one the
// message engine has: messages are sequences of fixed-width 64-bit words
// staged straight into the engine's [slot][lane] send slabs — no
// per-round slices, no interface boxing — so one round loop (batch.go
// runVec) executes every algorithm with zero allocations per round, and
// every engine shape — Batch, Sharded, the fault pass, the TCP
// and shard-worker links — carries the same words.

// WireProcess is the per-node state machine of a message-passing
// algorithm. The engine creates one WireProcess per node (and lane); a
// process must not share mutable state with other processes, because
// they run concurrently. Received messages are read from the Inbox as
// fixed-width 64-bit words; outgoing messages are staged into the
// Outbox, which writes directly into the engine's send slab for the
// node's directed-edge slots.
//
// Inbox and Outbox are engine-owned scratch, valid only for the duration
// of the call that hands them over — a WireProcess must not retain them.
// Word payloads read through Inbox.Words are likewise valid only during
// the call and must be treated as read-only.
type WireProcess interface {
	// Start receives the node's static information and stages the
	// messages of round 1 into out (staging nothing sends nothing).
	Start(info NodeInfo, out *Outbox)
	// Step reads the messages that arrived in round r from in and stages
	// the messages of round r+1 into out. Returning done = true fixes the
	// node's output; the node sends nothing afterwards but neighbors may
	// keep running.
	Step(round int, in *Inbox, out *Outbox) (done bool)
	// Output returns the node's final output string. It is called once
	// the execution finishes and must be valid as soon as done was
	// returned (or when the engine's round budget is exhausted for
	// fixed-round algorithms).
	Output() []byte
}

// WireAlgorithm is the message contract every engine shape (Batch,
// Sharded, remote shard workers) executes: a distributed algorithm in
// which "all nodes perform the same instructions" (§2.1.1), named, with
// the slab capacity its messages need. It steps through exactly one of
// two extensions: a ProcessAlgorithm creates one WireProcess per (node,
// lane), a VecAlgorithm (vec.go) is a kernel stepping a whole node range
// of every lane. An algorithm implementing both, or neither, is refused
// when a run starts.
type WireAlgorithm interface {
	Name() string
	// MsgWords bounds the number of 64-bit words of any single message a
	// node of the given degree stages in one round. The engine sizes the
	// per-slot slab capacity from it (it must be a pure function of the
	// degree); Outbox panics if a message exceeds the bound.
	MsgWords(degree int) int
}

// ProcessAlgorithm is a WireAlgorithm stepped through per-node state
// machines: one factory, one WireProcess per (node, lane).
type ProcessAlgorithm interface {
	WireAlgorithm
	NewWireProcess() WireProcess
}

// checkStepping refuses an algorithm that implements both VecAlgorithm
// and ProcessAlgorithm, or neither: every execution shape calls it when
// a run starts, before a pass could meet the ambiguity.
func checkStepping(wa WireAlgorithm) error {
	_, vec := wa.(VecAlgorithm)
	_, proc := wa.(ProcessAlgorithm)
	switch {
	case vec && proc:
		return fmt.Errorf("local: %s implements both VecAlgorithm and NewWireProcess; an algorithm steps one way", wa.Name())
	case !vec && !proc:
		return fmt.Errorf("local: %s implements neither VecAlgorithm nor NewWireProcess", wa.Name())
	}
	return nil
}

// ResetProcess is an optional extension of WireProcess: a process that
// can return to its just-created state. When every process of a
// ProcessAlgorithm implements it, engines pool the per-(node, lane) process
// table across back-to-back executions of that algorithm — the dominant
// remaining per-trial allocation on message paths — resetting each entry
// in place instead of allocating n×lanes fresh processes per run.
// Outputs must stay byte-identical: ResetProcess followed by Start must
// behave exactly like NewWireProcess followed by Start. Because a pooled
// process serves many trials, the slice Output returns must remain valid
// after the process is reset and reused — return freshly allocated or
// immutable storage (the lang.Encode* tables), never a per-process
// buffer a later trial would overwrite.
type ResetProcess interface {
	WireProcess
	// ResetProcess restores the process to its pre-Start state. It must
	// drop every reference the previous execution planted — tapes,
	// message payloads, neighbor scratch — so a pooled table does not
	// keep a finished trial's state alive.
	ResetProcess()
}

// sameAlgo reports whether two process algorithms are the same value; it
// is how a batch detects back-to-back runs of one algorithm when
// deciding to pool the process table. Uncomparable dynamic types
// (closures inside adapter structs) never compare equal — they simply
// never pool.
func sameAlgo(a, b ProcessAlgorithm) bool {
	if a == nil || b == nil {
		return false
	}
	ta := reflect.TypeOf(a)
	if ta != reflect.TypeOf(b) || !ta.Comparable() {
		return false
	}
	return a == b
}

// Inbox is the received side of one node in one round: one message per
// port, read as fixed-width words. The port-to-slot indirection and the
// lens/words slabs are engine-owned; an Inbox is valid only for the
// duration of the Step call it is passed to.
type Inbox struct {
	deg  int
	b, B int     // lane and lane stride
	slot []int32 // per-port receive slot (the node's RevSlot window)
	lens []int32 // [slot*B+b]: 0 = no message, n+1 = n payload words
	word []uint64
	offW []int32 // per-slot word offsets (lane-0 base, in words)
	capW []int32 // per-slot word capacities
}

// Degree returns the number of ports (the node's degree).
func (in *Inbox) Degree() int { return in.deg }

// Has reports whether a message arrived on port. Zero-word messages
// (pure signals) are present but have no payload.
func (in *Inbox) Has(port int) bool {
	return in.lens[int(in.slot[port])*in.B+in.b] > 0
}

// Len returns the payload word count of the message on port, or -1 if no
// message arrived.
func (in *Inbox) Len(port int) int {
	return int(in.lens[int(in.slot[port])*in.B+in.b]) - 1
}

// Word returns the first payload word of the message on port; ok is
// false if no message arrived or the message has no payload.
func (in *Inbox) Word(port int) (word uint64, ok bool) {
	s := int(in.slot[port])
	if in.lens[s*in.B+in.b] < 2 {
		return 0, false
	}
	return in.word[int(in.offW[s])*in.B+int(in.capW[s])*in.b], true
}

// Words returns the payload words of the message on port — nil if no
// message arrived or the message has no payload (Has distinguishes the
// two). The slice is engine-owned scratch: read-only, valid only for the
// duration of the call it was handed over in.
func (in *Inbox) Words(port int) []uint64 {
	s := int(in.slot[port])
	n := int(in.lens[s*in.B+in.b]) - 1
	if n <= 0 {
		return nil
	}
	base := int(in.offW[s])*in.B + int(in.capW[s])*in.b
	return in.word[base : base+n : base+n]
}

// Payload returns the payload words of the message on port together
// with a presence flag — one lens load instead of the Has+Words pair,
// which matters in per-port receive loops on the hot path. ok is true
// whenever a message arrived, including zero-word signals (whose
// payload is nil). The slice is engine-owned scratch: read-only, valid
// only for the duration of the call it was handed over in.
func (in *Inbox) Payload(port int) (words []uint64, ok bool) {
	s := int(in.slot[port])
	n := int(in.lens[s*in.B+in.b]) - 1
	if n < 0 {
		return nil, false
	}
	if n == 0 {
		return nil, true
	}
	base := int(in.offW[s])*in.B + int(in.capW[s])*in.b
	return in.word[base : base+n : base+n], true
}

// Outbox is the sending side of one node in one round: it stages
// messages for the node's ports by writing words directly into the
// engine's send slab. Staging is cumulative within the round — Send
// starts (or restarts) a message, Append extends it — and a port with
// nothing staged sends nothing. An Outbox is engine-owned scratch, valid
// only for the duration of the Start/Step call it is passed to.
type Outbox struct {
	deg    int
	b, B   int // lane and lane stride
	slotLo int // the node's first directed slot
	lens   []int32
	word   []uint64
	offW   []int32
	capW   []int32
	// stage is the engine's sender-side message accounting: every staging
	// operation that turns an empty port into a staged one increments
	// stage[b], and Reset decrements per staged port it clears, so after a
	// pass stage[b] holds exactly the number of messages lane b staged.
	// Each staged message is read by exactly one receiver next round,
	// which makes staged-at-round-r identical to delivered-at-round-r+1 —
	// the invariant that lets the fault-free round loop skip the
	// receiver-side arrival count entirely. Always non-nil on engine
	// paths (a per-worker row); loopback pairs bind a throwaway row.
	stage []int64
}

// Degree returns the number of ports (the node's degree).
func (out *Outbox) Degree() int { return out.deg }

// Signal stages a zero-word message on port: presence without payload
// (the wire form of an empty announcement struct).
func (out *Outbox) Signal(port int) {
	li := (out.slotLo+port)*out.B + out.b
	if out.lens[li] == 0 {
		out.stage[out.b]++
	}
	out.lens[li] = 1
}

// Send stages a one-word message on port, replacing anything staged
// there this round.
func (out *Outbox) Send(port int, word uint64) {
	s := out.slotLo + port
	if out.capW[s] < 1 {
		panic("local: Send on a zero-capacity wire slot (MsgWords bound too small)")
	}
	li := s*out.B + out.b
	if out.lens[li] == 0 {
		out.stage[out.b]++
	}
	out.word[int(out.offW[s])*out.B+int(out.capW[s])*out.b] = word
	out.lens[li] = 2
}

// Append appends one payload word to the message staged on port,
// starting a fresh one-word message if nothing is staged yet. It panics
// when the message would exceed the algorithm's MsgWords bound.
func (out *Outbox) Append(port int, word uint64) {
	s := out.slotLo + port
	li := s*out.B + out.b
	n := int(out.lens[li])
	if n == 0 {
		out.stage[out.b]++
		n = 1
	}
	if n-1 >= int(out.capW[s]) {
		panic("local: wire message exceeds the algorithm's MsgWords bound")
	}
	out.word[int(out.offW[s])*out.B+int(out.capW[s])*out.b+n-1] = word
	out.lens[li] = int32(n + 1)
}

// Broadcast stages the same one-word message on every port.
func (out *Outbox) Broadcast(word uint64) {
	for p := 0; p < out.deg; p++ {
		out.Send(p, word)
	}
}

// BroadcastVec stages the same multi-word message on every port,
// replacing anything staged there this round. It is the hoisted form of
// a per-port Send+Append chain: the bounds check and slot math run once
// per port instead of once per word, which matters for algorithms that
// broadcast a fixed tuple every round. It panics when the message
// exceeds the algorithm's MsgWords bound.
func (out *Outbox) BroadcastVec(words ...uint64) {
	n := len(words)
	for p := 0; p < out.deg; p++ {
		s := out.slotLo + p
		if n > int(out.capW[s]) {
			panic("local: wire message exceeds the algorithm's MsgWords bound")
		}
		li := s*out.B + out.b
		if out.lens[li] == 0 {
			out.stage[out.b]++
		}
		base := int(out.offW[s])*out.B + int(out.capW[s])*out.b
		copy(out.word[base:base+n], words)
		out.lens[li] = int32(n + 1)
	}
}

// SignalAll stages a zero-word message on every port.
func (out *Outbox) SignalAll() {
	for p := 0; p < out.deg; p++ {
		out.Signal(p)
	}
}

// Reset clears everything staged this round (all ports).
func (out *Outbox) Reset() {
	for p := 0; p < out.deg; p++ {
		s := out.slotLo + p
		li := s*out.B + out.b
		if out.lens[li] != 0 {
			out.stage[out.b]--
		}
		out.lens[li] = 0
	}
}

// NewLoopback builds a connected Outbox/Inbox pair over a single node of
// the given degree and per-message word capacity: a message staged on
// outbox port p reads back on inbox port p. It exists so wire codec
// tests (encode → decode round-trips) can exercise the exact staging and
// reading machinery the engine uses without running an engine.
func NewLoopback(deg, msgWords int) (*Outbox, *Inbox) {
	lens := make([]int32, deg)
	words := make([]uint64, deg*msgWords)
	offW := make([]int32, deg)
	capW := make([]int32, deg)
	slots := make([]int32, deg)
	for i := 0; i < deg; i++ {
		offW[i] = int32(i * msgWords)
		capW[i] = int32(msgWords)
		slots[i] = int32(i)
	}
	out := &Outbox{deg: deg, B: 1, lens: lens, word: words, offW: offW, capW: capW, stage: make([]int64, 1)}
	in := &Inbox{deg: deg, B: 1, slot: slots, lens: lens, word: words, offW: offW, capW: capW}
	return out, in
}
