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
// indirection, the lens lookup and the base-offset arithmetic once per
// (node, port) and hand the kernel whole lane rows.
//
// Every algorithm steps one way, whatever the lane count — a width-1
// batch, a one-lane slab block and a ragged one-lane tail included:
//
//	VecAlgorithm      — its own kernel, over the state slab
//	ProcessAlgorithm  — procKernel (procs.go), the engine's kernel over
//	                    its per-(node, lane) WireProcess table
//
// so the start, round and fault passes each have one body. An algorithm
// implementing both or neither is refused at run start (checkStepping).
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
// VecAlgorithm or a ProcessAlgorithm, never both.
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
	// OutputVec returns lane b's final output of node v, read from the
	// state rows; the slice must stay valid after the batch runs again.
	OutputVec(r *VecRange, v, b int) []byte
}

// VecRange is one worker's node range [Lo, Hi) of one pass, bound to the
// batch's slabs: the kernel's only view of messages, state, tapes, and
// halting. It is engine-owned scratch, valid only for the duration of
// the call it is passed to; rows it hands out alias the live slabs.
type VecRange struct {
	Lo, Hi int

	k, B, words int
	lanes       uint64  // the pass's k lanes
	off         []int32 // topology offsets: node v's global slots
	base        int     // slotBase: global slot s lives at local s-base
	rev         []int32 // receive slots, local coordinates
	lens        []int32 // receive slabs (cur)
	word        []uint64
	slens       []int32 // send slabs (cur at start, next afterwards)
	sword       []uint64
	offW, capW  []int32
	state       []uint64
	done        []uint64 // per-node finished lanes
	down        []uint64 // per-node crashed lanes (fault pass), else nil
	stage       []int64
	fin         []int
	src         *laneSrc
	in          *Inbox  // the worker's, bound to cur (procKernel's)
	out         *Outbox // the worker's, bound to the send slabs
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
// slab's raw encoding (0 = no message, n+1 = an n-word payload) and the
// word block, where lane b's payload starts at words[b*stride] (stride
// is the sender's MsgWords). Read-only.
func (r *VecRange) Recv(v, p int) (lens []int32, words []uint64, stride int) {
	s := int(r.rev[int(r.off[v])-r.base+p])
	stride = int(r.capW[s])
	lo, w := s*r.B, int(r.offW[s])*r.B
	return r.lens[lo : lo+r.k : lo+r.k], r.word[w : w+stride*r.k], stride
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

// stageCount credits the lanes in mask that stage afresh on node v and
// returns the node's local send-slot range. BroadcastRow stages every
// port alike, so all of a node's ports share one staged lane set and
// port 0's lens row alone decides which lanes are fresh: each counts
// Degree(v) messages, the sender-side accounting of the Outbox.
func (r *VecRange) stageCount(v int, mask uint64) (lo, hi int) {
	lo, hi = int(r.off[v])-r.base, int(r.off[v+1])-r.base
	if lo == hi {
		return lo, hi
	}
	deg := int64(hi - lo)
	for b, l := range r.slens[lo*r.B : lo*r.B+r.k] {
		if mask>>b&1 != 0 && l == 0 {
			r.stage[b] += deg
		}
	}
	return lo, hi
}

// BroadcastRow stages the one-word message words[b] on every port of
// node v for the lanes b in mask, replacing anything staged there this
// round (the lane-vectorized Broadcast). It panics when the algorithm's
// MsgWords bound cannot hold one word.
func (r *VecRange) BroadcastRow(v int, words []uint64, mask uint64) {
	lo, hi := r.stageCount(v, mask)
	k, B := r.k, r.B
	ws := words[:k]
	for s := lo; s < hi; s++ {
		stride := int(r.capW[s])
		if stride < 1 {
			panic("local: wire message exceeds the algorithm's MsgWords bound")
		}
		row := r.slens[s*B : s*B+k]
		base := int(r.offW[s]) * B
		if stride == 1 {
			// One-word slots (MsgWords == 1 algorithms): the lane's word
			// sits at base+b, a row copy with no stride multiply, guarded
			// only when some lane sits out.
			dst := r.sword[base : base+k]
			if mask == r.lanes {
				for b := range dst {
					dst[b] = ws[b]
					row[b] = 2
				}
				continue
			}
			for b := range dst {
				if mask>>b&1 != 0 {
					dst[b] = ws[b]
					row[b] = 2
				}
			}
			continue
		}
		for b := range row {
			if mask>>b&1 != 0 {
				r.sword[base+stride*b] = ws[b]
				row[b] = 2
			}
		}
	}
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
		off:   bt.plan.topo.Offsets, base: bt.slotBase, rev: bt.revTab,
		lens: bt.curLens, word: bt.curWords, slens: slens, sword: sword,
		offW: bt.offW, capW: bt.capW,
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
	off := bt.plan.topo.Offsets
	return int(off[vlo]) - bt.slotBase, int(off[vhi]) - bt.slotBase
}
