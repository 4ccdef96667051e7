package local

import "rlnc/internal/localrand"

// This file is the lane-vectorized stepping seam of the message engine:
// the optional fast path where ONE process instance owns a node's state
// for every lane of the batch as struct-of-arrays and steps all lanes in
// a single call per node per round. The slabs already store messages
// [slot][lane]-major (batch.go), so a slot's lanes are adjacent in
// memory; the scalar path still walks them through B per-(node, lane)
// WireProcess objects, re-deriving the port→slot indirection, the lens
// lookup, the base-offset arithmetic, and the decode validation B times
// per node per round. A VecProcess hoists all of that out of the lane
// loop: InboxVec hands it each port's contiguous lens row and word block
// once, and the inner loop over lanes is a tight walk over adjacent
// memory.
//
// The layering mirrors the wire core exactly:
//
//	VecProcess    — SoA per-node state, one Step call across lanes
//	WireProcess   — the scalar fallback (and every one-lane pass)
//
// An algorithm opts in by implementing VecAlgorithm next to its
// WireAlgorithm; armVec arms the vector path per pass, when the pass has
// two or more lanes — a one-lane pass (every Engine, a one-lane slab
// block, a ragged one-lane tail) steps the scalar WireProcess.
// Everything underneath — process-table pooling, the fault pass,
// sharded windows, sender-side message accounting — is unchanged: the
// vec passes fill the same lens/word slabs and the same per-worker
// counter rows the scalar passes do, and the contract is byte-identical
// outputs and Stats at equal seeds on both paths.

// VecAlgorithm is the lane-vectorized extension of a WireAlgorithm: an
// algorithm that can also step one node's whole lane vector through a
// single SoA process. Executors use the vector path automatically for
// every pass of two or more lanes; the WireAlgorithm methods step every
// one-lane pass (the width-1 Engine path included), and both paths must
// produce byte-identical outputs and Stats at equal seeds.
type VecAlgorithm interface {
	WireAlgorithm
	// NewVecProcess creates one SoA process owning a single node's state
	// for all lanes of a batch. The engine creates one per node (not per
	// node per lane) and calls StartVec/StepVec with the lane count of
	// the current run.
	NewVecProcess() VecProcess
}

// VecProcess is the SoA per-node state machine of a lane-vectorized
// algorithm: one instance holds a node's state for every lane, as
// parallel slices indexed by lane (grown to info.Lanes() on StartVec).
//
// InboxVec and OutboxVec are engine-owned scratch, valid only for the
// duration of the call that hands them over; word rows read through
// InboxVec are read-only. State slices must be per-lane independent:
// lane b's outputs must be byte-identical to a scalar WireProcess run of
// the same (instance, draw) pair.
type VecProcess interface {
	// StartVec initializes every lane's state from info (identities,
	// inputs, and tapes are per-lane) and stages the round-1 messages of
	// all lanes into out.
	StartVec(info *VecNodeInfo, out *OutboxVec)
	// StepVec advances every running lane one round: it reads the round's
	// arrivals from in, stages the next round's sends into out, and sets
	// done[b] = true to finish lane b (fixing its output). Lanes with
	// done[b] already true are finished and must be skipped entirely — no
	// reads, no sends, no state changes — as must lanes masked by
	// in.Mask() (crashed under a fault plan, possibly recovering later).
	StepVec(round int, in *InboxVec, out *OutboxVec, done []bool)
	// OutputVec returns lane b's final output, under the same retention
	// rules as WireProcess.Output (and ResetProcess when pooled): the
	// slice must stay valid after the process is reset and reused.
	OutputVec(lane int) []byte
}

// ResetVecProcess is the pooling extension of VecProcess, mirroring
// ResetProcess: when an algorithm's vec processes implement it, the
// per-node process table is kept across back-to-back runs and reset in
// place instead of reallocated. ResetVec must drop every reference the
// previous run planted — tape pointers above all, which alias the
// engine's per-run tape slab.
type ResetVecProcess interface {
	VecProcess
	ResetVec()
}

// VecNodeInfo is the vectorized NodeInfo: one node's static data for
// every lane of the run. Identities, inputs, and tapes vary per lane
// (RunInstances gives lanes distinct instances); the degree does not.
type VecNodeInfo struct {
	deg, k, v int
	src       *laneSrc
	hasTapes  bool
}

// Degree returns the node's degree (ports 0..Degree()-1).
func (info *VecNodeInfo) Degree() int { return info.deg }

// Lanes returns the run's lane count k; state slices grow to it.
func (info *VecNodeInfo) Lanes() int { return info.k }

// ID returns the node's identity in lane b's instance.
func (info *VecNodeInfo) ID(b int) int64 { return info.src.instance(b).ID[info.v] }

// Input returns the node's input in lane b's instance.
func (info *VecNodeInfo) Input(b int) []byte { return info.src.instance(b).X[info.v] }

// Tape returns the node's private random tape in lane b, or nil for a
// deterministic run. Like NodeInfo.Tape, it stays valid for the whole
// execution (not just the StartVec call).
func (info *VecNodeInfo) Tape(b int) *localrand.Tape {
	if !info.hasTapes {
		return nil
	}
	return info.src.tape(b, info.v)
}

// InboxVec is the received side of one node in one round, lane-major:
// per port, the k lens entries and the word block of all lanes at once,
// straight off the receive slab. It is engine-owned scratch, valid only
// for the duration of the StepVec call it is passed to.
type InboxVec struct {
	deg  int
	k, B int     // lane count and lane stride
	slot []int32 // per-port receive slot (the node's RevSlot window)
	lens []int32
	word []uint64
	offW []int32
	capW []int32
	mask []bool
}

// Degree returns the number of ports (the node's degree).
func (in *InboxVec) Degree() int { return in.deg }

// Lanes returns the run's lane count k.
func (in *InboxVec) Lanes() int { return in.k }

// Mask returns the per-lane fault mask of this round, or nil when no
// lane is masked (every fault-free round). A masked lane is crashed: it
// must not read, send, step, or change state this round — but it is not
// done (it may recover), so the process must leave its lane state
// untouched rather than finishing it.
func (in *InboxVec) Mask() []bool { return in.mask }

// LensRow returns the port's k contiguous lens entries, in the slab's
// raw encoding: 0 = no message arrived, n+1 = an n-word payload. Lane
// b's entry is row[b]. Read-only engine-owned scratch.
func (in *InboxVec) LensRow(port int) []int32 {
	s := int(in.slot[port])
	lo := s * in.B
	return in.lens[lo : lo+in.k : lo+in.k]
}

// WordBlock returns the port's payload word block and its per-lane
// stride: lane b's payload words (LensRow(port)[b]-1 of them) start at
// block[b*stride]. The stride is the slot's MsgWords capacity; a
// zero-capacity slot (pure-signal algorithms) returns an empty block.
// Read-only engine-owned scratch.
func (in *InboxVec) WordBlock(port int) (block []uint64, stride int) {
	s := int(in.slot[port])
	stride = int(in.capW[s])
	lo := int(in.offW[s]) * in.B
	hi := lo + stride*in.B
	return in.word[lo:hi:hi], stride
}

// OutboxVec is the sending side of one node in one round, lane-major:
// its staging operations write whole lane rows per port, so the slot
// math, capacity check, and base offset resolve once per port instead of
// once per (port, lane). Staging feeds the same sender-side message
// accounting as the scalar Outbox (every 0→staged lens transition
// increments the lane's stage count). Engine-owned scratch, valid only
// for the duration of the StartVec/StepVec call it is passed to.
type OutboxVec struct {
	deg    int
	k, B   int // lane count and lane stride
	slotLo int // the node's first directed slot (local coordinates)
	lens   []int32
	word   []uint64
	offW   []int32
	capW   []int32
	stage  []int64
}

// Degree returns the number of ports (the node's degree).
func (out *OutboxVec) Degree() int { return out.deg }

// Lanes returns the run's lane count k.
func (out *OutboxVec) Lanes() int { return out.k }

// SignalRow stages a zero-word message on every port for each lane with
// send[b] true (the lane-vectorized SignalAll).
func (out *OutboxVec) SignalRow(send []bool) {
	k, B := out.k, out.B
	for p := 0; p < out.deg; p++ {
		lo := (out.slotLo + p) * B
		row := out.lens[lo : lo+k]
		for b := 0; b < k; b++ {
			if !send[b] {
				continue
			}
			if row[b] == 0 {
				out.stage[b]++
			}
			row[b] = 1
		}
	}
}

// BroadcastRow stages the one-word message words[b] on every port for
// each lane with send[b] true, replacing anything staged there this
// round (the lane-vectorized Broadcast). It panics when the algorithm's
// MsgWords bound cannot hold one word.
func (out *OutboxVec) BroadcastRow(words []uint64, send []bool) {
	k, B := out.k, out.B
	ws := words[:k]
	for p := 0; p < out.deg; p++ {
		s := out.slotLo + p
		stride := int(out.capW[s])
		if stride < 1 {
			panic("local: wire message exceeds the algorithm's MsgWords bound")
		}
		lo := s * B
		row := out.lens[lo : lo+k]
		base := int(out.offW[s]) * B
		if stride == 1 {
			// One-word slots (MsgWords == 1 algorithms): the lane's word
			// sits at base+b, so the write loop is a guarded row copy with
			// no stride multiply and no per-store bounds check.
			dst := out.word[base : base+k]
			for b := 0; b < k; b++ {
				if !send[b] {
					continue
				}
				if row[b] == 0 {
					out.stage[b]++
				}
				dst[b] = ws[b]
				row[b] = 2
			}
			continue
		}
		for b := 0; b < k; b++ {
			if !send[b] {
				continue
			}
			if row[b] == 0 {
				out.stage[b]++
			}
			out.word[base+stride*b] = ws[b]
			row[b] = 2
		}
	}
}

// BroadcastRow2 stages the two-word message (w0[b], w1[b]) on every port
// for each lane with send[b] true, replacing anything staged there this
// round. It panics when the algorithm's MsgWords bound cannot hold two
// words.
func (out *OutboxVec) BroadcastRow2(w0, w1 []uint64, send []bool) {
	k, B := out.k, out.B
	for p := 0; p < out.deg; p++ {
		s := out.slotLo + p
		if out.capW[s] < 2 {
			panic("local: wire message exceeds the algorithm's MsgWords bound")
		}
		lo := s * B
		row := out.lens[lo : lo+k]
		base := int(out.offW[s]) * B
		stride := int(out.capW[s])
		for b := 0; b < k; b++ {
			if !send[b] {
				continue
			}
			if row[b] == 0 {
				out.stage[b]++
			}
			wb := base + stride*b
			out.word[wb] = w0[b]
			out.word[wb+1] = w1[b]
			row[b] = 3
		}
	}
}

// ScalarOnly strips algo of its lane-vectorized fast path: executions
// step it one lane at a time through its scalar WireProcess, exactly as
// a batch of width 1 would. Outputs and Stats are byte-identical to the
// vector path at equal seeds — ScalarOnly is the reference baseline the
// vec differential tests and benchmarks compare against.
func ScalarOnly(algo WireAlgorithm) WireAlgorithm {
	return scalarOnly{wa: algo}
}

// scalarOnly forwards the WireAlgorithm surface and deliberately does
// not implement VecAlgorithm, so no pass ever arms the vector path.
type scalarOnly struct{ wa WireAlgorithm }

func (a scalarOnly) Name() string                { return a.wa.Name() }
func (a scalarOnly) MsgWords(deg int) int        { return a.wa.MsgWords(deg) }
func (a scalarOnly) NewWireProcess() WireProcess { return a.wa.NewWireProcess() }

// startVecPass is startPass on the vector path: per node, one contiguous
// clear of the lanes' send state and the done row, then ONE pooled (or
// fresh) VecProcess whose StartVec initializes and stages every lane at
// once. Pass parameters arrive via rk/rsrc exactly like the scalar pass.
func (bt *Batch) startVecPass(w, vlo, vhi int) {
	topo := bt.plan.topo
	k, B, va := bt.rk, bt.block, bt.vecAlgo
	src, pool := &bt.rsrc, bt.rpool
	vprocs, vresets, done := bt.vprocs, bt.vresets, bt.done
	curLens := bt.curLens
	out := &bt.voutboxes[w]
	bt.bindOutboxVec(out, k, bt.wkStage[w], bt.curLens, bt.curWords)
	info := &bt.vinfos[w]
	info.k, info.src, info.hasTapes = k, src, src.hasTapes()
	for v := vlo; v < vhi; v++ {
		lo, hi := topo.Slots(v)
		deg := hi - lo
		slo, shi := lo-bt.slotBase, hi-bt.slotBase
		out.deg, out.slotLo = deg, slo
		clear(curLens[slo*B : shi*B])
		clear(done[v*B : v*B+k])
		p := vprocs[v]
		if pool && vresets[v] != nil {
			vresets[v].ResetVec()
		} else {
			p = va.NewVecProcess()
			vprocs[v] = p
			if rp, ok := p.(ResetVecProcess); ok {
				vresets[v] = rp
			}
		}
		info.deg, info.v = deg, v
		p.StartVec(info, out)
	}
}

// roundVecPass is the fault-free roundPass on the vector path: the same
// fused deliver + step walk with one StepVec call per node instead of k
// Step calls. Finished lanes are skipped inside the process via the done
// row (a dead lane's nodes are all done, so the scalar path's alive
// check is subsumed); newly finished lanes are diffed against the
// pre-step done row into the worker's fin counters.
func (bt *Batch) roundVecPass(w, vlo, vhi int) {
	topo := bt.plan.topo
	k, B, round := bt.rk, bt.block, bt.rround
	finRow := bt.wkFin[w][:k]
	in, out := &bt.vinboxes[w], &bt.voutboxes[w]
	bt.bindInboxVec(in, k)
	bt.bindOutboxVec(out, k, bt.wkStage[w], bt.nextLens, bt.nextWord)
	nextLens := bt.nextLens
	done, vprocs := bt.done, bt.vprocs
	prev := bt.wkPrev[w][:k]
	base := bt.slotBase
	for v := vlo; v < vhi; v++ {
		lo, hi := topo.Slots(v)
		deg := hi - lo
		rev := bt.revTab[lo-base : hi-base]
		in.deg, in.slot = deg, rev
		out.deg, out.slotLo = deg, lo-base
		clear(nextLens[(lo-base)*B : (hi-base)*B])
		doneRow := done[v*B : v*B+k]
		left := 0
		for b, d := range doneRow {
			prev[b] = d
			if !d {
				left++
			}
		}
		if left == 0 {
			continue
		}
		vprocs[v].StepVec(round, in, out, doneRow)
		for b, d := range doneRow {
			if d && !prev[b] {
				finRow[b]++
			}
		}
	}
}

// collectVecPass is collectPass on the vector path.
func (bt *Batch) collectVecPass(vlo, vhi int) {
	k, n := bt.rk, bt.plan.g.N()
	ys, vprocs := bt.rys, bt.vprocs
	for v := vlo; v < vhi; v++ {
		p := vprocs[v]
		for b := 0; b < k; b++ {
			ys[b*n+v] = p.OutputVec(b)
		}
	}
}

// outputOf returns lane b's node-v output under the current run's
// stepping mode — the shared collection accessor of the sharded
// orchestrator and the shard-worker protocol.
func (bt *Batch) outputOf(v, b int) []byte {
	if bt.vecAlgo != nil {
		return bt.vprocs[v].OutputVec(b)
	}
	return bt.procs[v*bt.block+b].Output()
}

// bindInboxVec points a worker's InboxVec at the current receive slabs;
// the per-node fields (deg, slot window) are set in the loop. The mask
// is cleared — only the fault pass arms it, per node.
func (bt *Batch) bindInboxVec(in *InboxVec, k int) {
	in.k = k
	in.B = bt.block
	in.lens = bt.curLens
	in.word = bt.curWords
	in.offW = bt.offW
	in.capW = bt.capW
	in.mask = nil
}

// bindOutboxVec points a worker's OutboxVec at the given staging slabs:
// the start pass stages into cur, the round passes into next — exactly
// like the scalar boxes.
func (bt *Batch) bindOutboxVec(out *OutboxVec, k int, stage []int64, lens []int32, words []uint64) {
	out.k = k
	out.B = bt.block
	out.lens = lens
	out.word = words
	out.offW = bt.offW
	out.capW = bt.capW
	out.stage = stage
}
