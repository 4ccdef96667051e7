package local

import (
	"math/bits"

	"rlnc/internal/localrand"
)

// This file is the range-kernel seam of the message engine: every pass
// steps a worker's whole node range of every lane in one kernel call,
// over state the batch owns. The slabs store messages [slot][lane]-major
// (batch.go), so a slot's lanes are adjacent in memory. A VecAlgorithm
// is a stateless kernel on the algorithm value: the engine hands each
// worker's node range to StartVec/StepVec once per pass through a
// VecRange, whose concrete, inlinable methods resolve the port→slot
// indirection and the base-offset arithmetic once per (node, port) and
// hand the kernel whole lane rows.
//
// Range kernels send one-word messages: a run refuses a VecAlgorithm
// whose MsgWords is not 1 when it lays its slabs out (layoutWire), so
// slot s's k-lane lens row and word row both start at s·B, and Recv and
// BroadcastRow need no per-slot capacity or offset lookup.
//
// A range kernel's only send is BroadcastRow, so a fault-free,
// unwindowed run lays its slabs out with one send slot per node instead
// of one per directed edge: node v's broadcast is staged once, in slot
// v, and every neighbor reads it there. The layout is data, not a second
// code path — layoutWire picks two tables, and VecRange reads through
// them alike:
//
//	send offsets  — the topology offsets (edge slots), or the identity
//	                0…n (node slots): node v stages into slots
//	                [soff[v], soff[v+1]);
//	receive table — RevSlot (edge slots), or Nbrs (node slots): node v's
//	                port p reads slot rev[off[v]+p].
//
// A node slot holds half the slab bytes of a ring's two edge slots, so
// the slab budget fits twice the lanes per pass (msgSlabBudget). An
// armed fault plan keeps edge slots, because the fault pass suppresses a
// delivery in place at the receiver's slot, which only that receiver
// may read; so do shard windows, whose cut frames carry edge slots; and
// a process kernel's Outbox stages per port.
//
// Every algorithm steps one way, whatever the lane count — a width-1
// batch, a one-lane slab block and a ragged one-lane tail included:
//
//	VecAlgorithm      — its own kernel, over the state slab
//	ProcessAlgorithm  — procKernel (procs.go), the engine's kernel over
//	                    its per-(node, lane) WireProcess table
//
// so the start, round, fault and collect passes each have one body. An
// algorithm implementing both or neither is refused at run start
// (checkStepping).
//
// State is flat: VecWords uint64 words per (node, lane), laid out
// [node][word][lane] in one batch-owned slab that no pointer-carrying
// value ever enters, so it is reused across runs whatever the
// algorithm's parameters and costs the garbage collector nothing to
// scan. Lane sets are uint64 masks (layoutWire caps a block at 64
// lanes): finished lanes (vdone) and crashed lanes (vdown) on every
// path. The engine keeps everything that is not the algorithm's own
// arithmetic: slot and reverse-slot math, sender-side stage counting,
// fin counting, and the fault plan's crash masks. Tapes are read from
// the batch's tape slab when the kernel asks for them, so no tape
// pointer outlives a pass.

// VecAlgorithm is a WireAlgorithm stepped by its own kernel: a
// stateless kernel that steps one worker's node range of every lane per
// call, on every pass of every execution shape. An algorithm is a
// VecAlgorithm or a ProcessAlgorithm, never both. Its messages are one
// word: MsgWords must return 1 for every degree, and a run refuses a
// kernel that reports anything else with an error.
type VecAlgorithm interface {
	WireAlgorithm
	// VecWords is the number of state words the kernel keeps per (node,
	// lane); VecRange.State(v, j) is word j's lane row of node v.
	VecWords() int
	// StartVec initializes every lane of every node of r's range and
	// stages the round-1 messages. Every lane is active.
	StartVec(r *VecRange)
	// StepVec advances every active (node, lane) of r's range one round:
	// it reads the round's arrivals, stages the next round's sends, and
	// finishes lanes (fixing their outputs) through r.Finish. Inactive
	// lanes — finished, or crashed under a fault plan and possibly
	// recovering later — must be skipped entirely: no reads, no sends,
	// no state changes.
	StepVec(r *VecRange, round int)
	// OutputVec writes the final output of every (node, lane) of r's
	// range through r.Output, read from the state rows, in any order. It
	// returns false as soon as r.Output refuses an entry (an output of
	// another width than the open block's), and true otherwise.
	OutputVec(r *VecRange) bool
}

// VecRange is one worker's node range [Lo, Hi) of one pass, bound to the
// batch's slabs: the kernel's only view of messages, state, tapes, and
// halting. It is engine-owned scratch, valid only for the duration of
// the call it is passed to; rows it hands out alias the live slabs.
type VecRange struct {
	Lo, Hi int

	k, B, words int
	lanes       uint64  // the pass's k lanes
	off         []int32 // topology offsets: node v's global ports
	soff        []int32 // send offsets: node v's send slots (layoutWire)
	base        int     // slotBase: global slot s lives at local s-base
	rev         []int32 // receive table: port p of v reads rev[off[v]-base+p]
	lens        []int32 // receive slabs (cur)
	word        []uint64
	slens       []int32 // send slabs (cur at start, next afterwards)
	sword       []uint64
	state       []uint64
	done        []uint64 // per-node finished lanes
	down        []uint64 // per-node crashed lanes (fault pass), else nil
	stage       []int64
	fin         []int
	src         *laneSrc
	in          *Inbox  // the worker's, bound to cur (procKernel's)
	out         *Outbox // the worker's, bound to the send slabs
	// The collect pass's open output block (Output): entry (b, v) at
	// index b*ostride+v-ooff, written as ow bytes into ofix, or, when ow
	// is negative, kept as a slice in orows.
	ofix          []byte
	orows         [][]byte
	ow            int
	ostride, ooff int
}

// Lanes returns the pass's lane count k; state and lens rows have k
// entries.
func (r *VecRange) Lanes() int { return r.k }

// Degree returns node v's degree (ports 0..Degree(v)-1).
func (r *VecRange) Degree(v int) int { return int(r.off[v+1] - r.off[v]) }

// Active returns the lanes node v steps this pass: not finished and,
// under a fault plan, not crashed.
func (r *VecRange) Active(v int) uint64 {
	act := r.lanes &^ r.done[v]
	if r.down != nil {
		act &^= r.down[v]
	}
	return act
}

// State returns word j's k-lane row of node v's state.
func (r *VecRange) State(v, j int) []uint64 {
	i := (v*r.words + j) * r.B
	return r.state[i : i+r.k : i+r.k]
}

// Recv returns port p's arrivals at node v: the k-entry lens row in the
// slab's raw encoding (0 = no message, n+1 = an n-word payload; a
// kernel's slots hold at most one word) and the k-entry word row, lane
// b's word at words[b]. Read-only.
func (r *VecRange) Recv(v, p int) (lens []int32, words []uint64) {
	lo := int(r.rev[int(r.off[v])-r.base+p]) * r.B
	hi := lo + r.k
	return r.lens[lo:hi:hi], r.word[lo:hi:hi]
}

// Tape returns the private random tape of node v in lane b, or nil for a
// deterministic run.
func (r *VecRange) Tape(v, b int) *localrand.Tape {
	if !r.src.hasTapes() {
		return nil
	}
	return r.src.tape(b, v)
}

// ID returns node v's identity in lane b's instance.
func (r *VecRange) ID(v, b int) int64 { return r.src.instance(b).ID[v] }

// Finish fixes the outputs of node v's lanes in mask; they are inactive
// from then on.
func (r *VecRange) Finish(v int, mask uint64) {
	fresh := mask &^ r.done[v]
	r.done[v] |= fresh
	for ; fresh != 0; fresh &= fresh - 1 {
		r.fin[bits.TrailingZeros64(fresh)]++
	}
}

// BroadcastRow stages the one-word message words[b] on every port of
// node v for the lanes b in mask, replacing anything staged there this
// round (the lane-vectorized Broadcast). Every port is staged alike, so
// the node's first send slot is staged lane by lane and copied to its
// others — under node slots it has no others — and that slot's lens row
// alone decides which lanes stage afresh: each counts Degree(v)
// messages, the Outbox's sender-side accounting, whatever the layout.
func (r *VecRange) BroadcastRow(v int, words []uint64, mask uint64) {
	deg := int64(r.Degree(v))
	if deg == 0 {
		return
	}
	lo, hi := int(r.soff[v])-r.base, int(r.soff[v+1])-r.base
	row := r.slens[lo*r.B : lo*r.B+r.k]
	dst, ws, stage := r.sword[lo*r.B:][:len(row)], words[:len(row)], r.stage[:len(row)]
	for b, l := range row {
		if mask>>(b&63)&1 != 0 {
			if l == 0 {
				stage[b] += deg
			}
			dst[b], row[b] = ws[b], 2
		}
	}
	for s := lo + 1; s < hi; s++ {
		srow, sdst := r.slens[s*r.B:][:len(row)], r.sword[s*r.B:][:len(row)]
		for b := range row {
			srow[b], sdst[b] = row[b], dst[b]
		}
	}
}

// Output writes y as the output of node v in lane b into the collect
// pass's open block, reporting false, and writing nothing, when y is not
// the block's width. y is read at once in a fixed-width block but may be
// kept in a ragged one: it must stay valid after the batch runs again.
func (r *VecRange) Output(v, b int, y []byte) bool {
	if r.ow == 1 && len(y) == 1 {
		r.ofix[b*r.ostride+v-r.ooff] = y[0]
		return true
	}
	return r.outputSlow(b*r.ostride+v-r.ooff, y)
}

// outputSlow is Output at any other width, and in a ragged block.
func (r *VecRange) outputSlow(i int, y []byte) bool {
	switch {
	case r.ow < 0:
		r.orows[i] = y
	case len(y) != r.ow:
		return false
	default:
		copy(r.ofix[i*r.ow:], y)
	}
	return true
}

// bindRange points worker w's VecRange at nodes [vlo, vhi) of the
// current pass, staging into the given send slabs (cur for the start
// pass, next for the round passes), and binds the worker's Inbox and
// Outbox to the same slabs for a process kernel. The crash masks are
// cleared — only the fault pass arms them.
func (bt *Batch) bindRange(w, vlo, vhi int, slens []int32, sword []uint64) *VecRange {
	ws := &bt.wk[w]
	ws.in = Inbox{B: bt.block, lens: bt.curLens, word: bt.curWords, offW: bt.offW, capW: bt.capW}
	ws.out = Outbox{B: bt.block, lens: slens, word: sword, offW: bt.offW, capW: bt.capW, stage: bt.wkStage[w]}
	r := &ws.vr
	*r = VecRange{
		Lo: vlo, Hi: vhi,
		k: bt.rk, B: bt.block, words: bt.kern.VecWords(),
		lanes: ^uint64(0) >> (64 - bt.rk),
		off:   bt.plan.topo.Offsets, soff: bt.sendOff, base: bt.slotBase, rev: bt.revTab,
		lens: bt.curLens, word: bt.curWords, slens: slens, sword: sword,
		state: bt.vstate, done: bt.vdone,
		stage: bt.wkStage[w], fin: bt.wkFin[w],
		src: &bt.rsrc,
		in:  &ws.in, out: &ws.out,
	}
	return r
}

// rangeSlots returns the local send-slot window of nodes [vlo, vhi):
// a range's slots are consecutive, so clearing it is one memclr.
func (bt *Batch) rangeSlots(vlo, vhi int) (lo, hi int) {
	return int(bt.sendOff[vlo]) - bt.slotBase, int(bt.sendOff[vhi]) - bt.slotBase
}
