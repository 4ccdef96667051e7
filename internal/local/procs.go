package local

import "math/bits"

// This file steps a ProcessAlgorithm through the same range-kernel seam
// as a VecAlgorithm: procKernel is the engine-internal kernel over the
// batch's per-(node, lane) process table, so every pass — start, round
// and fault — has one body for every algorithm, and finished and
// crashed lanes are the same per-node uint64 masks (vdone, vdown) on
// every path.

// rangeKernel is the one stepping interface of the passes: the run's
// own VecAlgorithm, or the batch's procKernel over a ProcessAlgorithm.
type rangeKernel interface {
	VecWords() int
	StartVec(r *VecRange)
	StepVec(r *VecRange, round int)
	OutputVec(r *VecRange) bool
}

// procKernel steps the processes of pa, one WireProcess per (node,
// lane) at procs[v*B+b], through the worker's Inbox and Outbox, which
// the range binds to the pass's slabs. It keeps no state words: its
// state is the process table, pooled across back-to-back runs of one
// algorithm when the processes implement ResetProcess (preparePools).
type procKernel struct {
	bt   *Batch
	pa   ProcessAlgorithm
	pool bool
}

// VecWords implements rangeKernel: the state is the process table.
func (pk *procKernel) VecWords() int { return 0 }

// StartVec obtains every (node, lane) process of the range — pooled and
// reset in place when the algorithm supports it, freshly created
// otherwise — and lets Start stage the round-1 messages.
func (pk *procKernel) StartVec(r *VecRange) {
	bt, B, out := pk.bt, r.B, r.out
	procs, resets := bt.procs, bt.resets
	hasTapes := r.src.hasTapes()
	for v := r.Lo; v < r.Hi; v++ {
		deg := r.Degree(v)
		out.deg, out.slotLo = deg, int(r.off[v])-r.base
		for b := 0; b < r.k; b++ {
			in := r.src.instance(b)
			p := procs[v*B+b]
			if pk.pool && resets[v*B+b] != nil {
				resets[v*B+b].ResetProcess()
			} else {
				p = pk.pa.NewWireProcess()
				procs[v*B+b] = p
				if rp, ok := p.(ResetProcess); ok {
					resets[v*B+b] = rp
				}
			}
			info := NodeInfo{ID: in.ID[v], Degree: deg, Input: in.X[v]}
			if hasTapes {
				info.Tape = r.src.tape(b, v)
			}
			out.b = b
			p.Start(info, out)
		}
	}
}

// StepVec steps every active (node, lane) process of the range one
// round: the Inbox reads the arrivals in place, the Outbox stages the
// next round's sends, and a process reporting done finishes its lane.
func (pk *procKernel) StepVec(r *VecRange, round int) {
	procs, B := pk.bt.procs, r.B
	in, out := r.in, r.out
	for v := r.Lo; v < r.Hi; v++ {
		act := r.Active(v)
		if act == 0 {
			continue
		}
		lo := int(r.off[v]) - r.base
		deg := r.Degree(v)
		in.deg, in.slot = deg, r.rev[lo:lo+deg]
		out.deg, out.slotLo = deg, lo
		var fin uint64
		for m := act; m != 0; m &= m - 1 {
			b := bits.TrailingZeros64(m)
			in.b, out.b = b, b
			if procs[v*B+b].Step(round, in, out) {
				fin |= 1 << b
			}
		}
		if fin != 0 {
			r.Finish(v, fin)
		}
	}
}

// OutputVec writes the output of every (node, lane) process of the
// range.
func (pk *procKernel) OutputVec(r *VecRange) bool {
	procs, B := pk.bt.procs, r.B
	for v := r.Lo; v < r.Hi; v++ {
		for b, p := range procs[v*B : v*B+r.k] {
			if !r.Output(v, b, p.Output()) {
				return false
			}
		}
	}
	return true
}

// armKernel arms the stepping path of a run of wa: its own kernel, or
// the procKernel over its processes. The run start refused an algorithm
// stepping both ways or neither (checkStepping), so exactly one applies.
func (bt *Batch) armKernel(wa WireAlgorithm) {
	if va, ok := wa.(VecAlgorithm); ok {
		bt.kern, bt.pk.pa = va, nil
		return
	}
	bt.pk.bt, bt.pk.pa = bt, wa.(ProcessAlgorithm)
	bt.kern = &bt.pk
}

// preparePools decides whether this run's process table can be pooled:
// when the algorithm changed since the last run, the stale table is
// dropped and one probe process determines whether the new algorithm's
// processes implement ResetProcess. Steady-state trial loops (same
// algorithm back to back) skip the probe entirely and reuse the table.
// A kernel algorithm has no process table: its state slab is reused as
// is.
func (bt *Batch) preparePools() {
	pa := bt.pk.pa
	if pa == nil {
		return
	}
	if !sameAlgo(bt.procAlgo, pa) {
		clear(bt.procs)
		clear(bt.resets)
		bt.procAlgo = nil
		if _, ok := pa.NewWireProcess().(ResetProcess); ok {
			bt.procAlgo = pa
		}
	}
	bt.pk.pool = bt.procAlgo != nil
}
