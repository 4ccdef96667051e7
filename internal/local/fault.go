package local

import (
	"math"

	"rlnc/internal/graph"
	"rlnc/internal/localrand"
)

// This file is the engine's fault seam: FaultPlan describes lossy links
// (per-delivery drop and one-round delay), node crash/recovery schedules,
// and mid-run topology surgery, and the round core applies the plan as a
// receiver-side pass over the wire slabs — the fixed-width [slot][lane]
// send state of batch.go — rather than as a separate transport. Every
// execution shape honors the same plan byte-identically: the unsharded
// Batch (width-1 single executions included), the in-process Sharded,
// and the shard-worker processes, which receive the plan inside runSpec
// (remote.go) and rebuild identical fault state from it.
//
// Determinism is positional. All fault decisions come from a dedicated
// localrand.FaultTape — a pure function of event coordinates, never a
// consumed stream — keyed by shape-invariant quantities only: the round,
// the receiver's GLOBAL directed slot (Topology.Slots is global even on a
// shard's compacted window), and the lane's fault identity (its draw
// seed, which survives the process boundary as runSpec.Draws). Batch
// width, shard count, worker count, and iteration order therefore cannot
// perturb a faulty run, which is what lets the shardtest differential pin
// faulty sharded runs lane-byte-identical to faulty unsharded ones.
//
// A nil (or all-zero) plan is provably free: beginPass disarms the fault
// state and roundPass dispatches to the exact pre-fault loop.

// FaultPlan describes the faults injected into an execution. The zero
// value injects nothing and runs the engine's unperturbed fast path; a
// plan is armed per run, either through RunOptions.Fault or as an
// executor default (Batch.SetFault / Sharded.SetFault), with the run
// option taking precedence.
type FaultPlan struct {
	// Seed identifies the fault tape. Equal seeds reproduce equal faults
	// on every execution shape; distinct seeds give independent fault
	// patterns. The fault tape is independent of the algorithms' tape
	// spaces, so arming a plan never perturbs Rand(A) draws.
	Seed uint64
	// Drop is the per-delivery loss probability of a lossy link: each
	// (round, receiver port, lane) delivery is lost independently with
	// this probability, decided on the receiver side before the message
	// is counted or read.
	Drop float64
	// Delay is the probability that a surviving delivery is held one
	// round: the message is removed from the current round and delivered
	// in the next — unless a fresh message occupies the same port then,
	// in which case the stale held message is discarded (fresh wins).
	Delay float64
	// CrashP selects each (node, lane) pair for crashing independently
	// with this probability. A selected node runs normally until
	// CrashFrom, then goes down: it neither reads nor counts deliveries,
	// stages no sends, and does not step.
	CrashP float64
	// CrashFrom is the first round a selected node is down (values < 1
	// mean round 1). Messages the node staged before crashing still
	// deliver — crashes take effect at round boundaries.
	CrashFrom int
	// CrashUntil, when positive, is the recovery round: a crashed node
	// resumes stepping at this round with its pre-crash state frozen in
	// place. Zero means crashed nodes never return; they are finalized
	// with their frozen output so the halting consensus can complete.
	CrashUntil int
	// Surgery lists mid-run topology edits: from EdgeCut.Round onward the
	// edge {U, Z} carries no messages in either direction. CutForSubdivision
	// derives entries that model graph.SubdivideTwice on the live run.
	Surgery []EdgeCut
}

// EdgeCut severs one edge of the running topology from a given round on:
// both directed slots of {U, Z} deliver nothing at rounds >= Round. It is
// the engine-side shadow of an offline graph surgery — the structural
// edit itself (fresh relay nodes, rebuilt CSR) happens on a new graph,
// while the running plan sees the direct edge go dark.
type EdgeCut struct {
	Round int
	U, Z  int
}

// Enabled reports whether the plan injects anything; nil and zero plans
// run the engine's unperturbed fast path.
func (f *FaultPlan) Enabled() bool {
	return f != nil && (f.Drop > 0 || f.Delay > 0 || f.CrashP > 0 || len(f.Surgery) > 0)
}

// CutForSubdivision applies graph.SubdivideTwice to the edge {u, z} and
// returns both halves of the surgery: the EdgeCut that models the edit on
// the running topology (from `round` on, the direct edge carries nothing
// — traffic now traverses the two fresh degree-2 relays, which the
// original node set cannot reach within the old round horizon), and the
// SubdivisionResult carrying the post-surgery graph for offline analysis
// or a follow-up run. It errors when {u, z} is not an edge.
func CutForSubdivision(g *graph.Graph, round, u, z int) (EdgeCut, *graph.SubdivisionResult, error) {
	res, err := g.SubdivideTwice(u, z)
	if err != nil {
		return EdgeCut{}, nil, err
	}
	return EdgeCut{Round: round, U: u, Z: z}, res, nil
}

// Fault-tape channels: each fault kind draws from its own coordinate
// namespace so drop, delay, and crash decisions are independent.
const (
	faultDrop uint64 = iota + 1
	faultDelay
	faultCrash
)

// neverSevered marks a slot no surgery touches.
const neverSevered = int32(math.MaxInt32)

// severedTable flattens a surgery schedule into a per-GLOBAL-slot
// first-dead round: entry s is the earliest round from which the directed
// slot s delivers nothing (neverSevered otherwise). Both directions of
// each cut edge are severed. Keying by receiver-global slot makes the
// table identical on every shard and worker, because Topology.Slots
// returns global coordinates even on compacted windows.
func severedTable(topo *graph.Topology, cuts []EdgeCut, prev []int32) []int32 {
	t := sliceFor(prev, topo.NumSlots())
	for i := range t {
		t[i] = neverSevered
	}
	for _, c := range cuts {
		round := c.Round
		if round < 1 {
			round = 1
		}
		sever := func(u, z int) {
			// Kill z's reception from u: z's own directed slot toward u.
			lo, hi := topo.Slots(z)
			for s := lo; s < hi; s++ {
				if int(topo.Nbrs[s]) == u && int32(round) < t[s] {
					t[s] = int32(round)
				}
			}
		}
		sever(c.U, c.Z)
		sever(c.Z, c.U)
	}
	return t
}

// SetFault installs the batch's default fault plan: the effective plan of
// a run is RunOptions.Fault when non-nil, this default otherwise. Passing
// nil (or a zero plan) restores the fault-free fast path. Trial harnesses
// that cannot thread RunOptions through an algorithm's own entry points
// (construct.RetryColoring builds its own options) arm faults here.
// A batch holding a sharded executor arms it too.
func (bt *Batch) SetFault(f *FaultPlan) {
	bt.defFault = f
	if bt.sh != nil {
		bt.sh.SetFault(f)
	}
}

// SetFault installs the sharded executor's default fault plan, mirroring
// Batch.SetFault.
func (s *Sharded) SetFault(f *FaultPlan) { s.defFault = f }

// effectiveFault resolves the plan one run obeys: the run's own when set,
// the executor default def otherwise.
func effectiveFault(opts RunOptions, def *FaultPlan) *FaultPlan {
	if opts.Fault != nil {
		return opts.Fault
	}
	return def
}

// installFault arms (or disarms) the batch's per-run fault state, taking
// lane identities from the run's draws: lane b's fault identity is
// draws[b].Seed() — the word runSpec ships to shard workers, which
// rebuild the draws from it — and 0 for deterministic lanes. Called once
// per lane block, before the slabs are sized; a disabled plan leaves
// roundPass on the exact pre-fault path.
func (bt *Batch) installFault(f *FaultPlan, draws []localrand.Draw, k int) {
	if !f.Enabled() {
		bt.fault = nil
		return
	}
	bt.flane = sliceFor(bt.flane, k)
	for b := 0; b < k; b++ {
		if draws != nil {
			bt.flane[b] = draws[b].Seed()
		} else {
			bt.flane[b] = 0
		}
	}
	bt.armFault(f)
}

// armFault finalizes an enabled plan's run state: the fault tape and the
// severed-slot table (surgery only).
func (bt *Batch) armFault(f *FaultPlan) {
	bt.fault = f
	bt.ftape = localrand.NewFaultTape(f.Seed)
	if len(f.Surgery) > 0 {
		bt.fsev = severedTable(bt.plan.topo, f.Surgery, bt.fsev)
	} else {
		bt.fsev = nil
	}
}

// ensureHeldSlabs sizes the one-round retention slabs a Delay plan needs,
// mirroring the main slabs' [slot][lane] layout; cleared on every run so
// a previous run's holds cannot leak into this one. Plans without Delay
// never allocate them.
func (bt *Batch) ensureHeldSlabs(slots, B int) {
	if bt.fault == nil || bt.fault.Delay <= 0 {
		return
	}
	bt.heldLens = sliceFor(bt.heldLens, slots*B)
	clear(bt.heldLens)
	bt.heldWords = sliceFor(bt.heldWords, bt.totalW*B)
}

// faultPass applies an armed fault plan to worker w's range r of one
// round, before roundPass steps it: receiver-side, before anything is
// counted or read. Per (node, lane), a crashed pair skips reading (and
// counting) entirely; otherwise each arriving port first resolves last
// round's held message (delivered now unless a fresh message occupies
// the port — fresh wins), then the surgery table, then the drop and
// delay draws. Suppression happens strictly before the delivered count,
// so Stats stay shape-identical. All slab writes — a receiver zeroing
// curLens at its sender's slot included — touch slots this worker is
// the unique reader of, so the pass stays data-race-free under the same
// contract as roundPass.
//
// The walk is slot-major: per node, the crash draws resolve once per
// lane, then one pass over the RevSlot window applies the suppression
// chain to each slot's contiguous [s*B, s*B+k) lane range, and the
// node's crashed lanes become its crash mask, which VecRange.Active
// applies when the range steps. Every fault decision is a pure
// positional function of (channel, round, global slot, lane identity),
// so the iteration order cannot perturb a single draw. Down and dead
// lanes skip the suppression chain entirely (held-slab state included).
// Suppression touches only a node's own receive slots and a step reads
// only its own, so walking the whole range before stepping it reads
// exactly what a per-node order would.
func (bt *Batch) faultPass(w int, r *VecRange) {
	topo := bt.plan.topo
	k, B, round := bt.rk, bt.block, bt.rround
	f, ftape, fids, sev := bt.fault, bt.ftape, bt.flane, bt.fsev
	var heldLens []int32
	var heldWords []uint64
	if f.Delay > 0 {
		heldLens, heldWords = bt.heldLens, bt.heldWords
	}
	crashFrom := f.CrashFrom
	if crashFrom < 1 {
		crashFrom = 1
	}
	crashNow := f.CrashP > 0 && round >= crashFrom &&
		(f.CrashUntil == 0 || round < f.CrashUntil)
	// roundPass has credited last pass's stage counts into msgRow and
	// cleared finRow; fault accounting is receiver-side (suppression makes
	// staged ≠ delivered), so the delivered row is recounted here, and the
	// stage counts this pass leaves are never read.
	msgRow := bt.wkMsgs[w][:k]
	clear(msgRow)
	curLens, curWords := bt.curLens, bt.curWords
	alive := bt.alive
	base := bt.slotBase
	offW, capW := bt.offW, bt.capW
	del := bt.wkDel[w][:k]
	down := bt.wkDown[w][:k]
	r.down = bt.vdown
	for v := r.Lo; v < r.Hi; v++ {
		lo, hi := topo.Slots(v) // global coordinates, every shape
		rev := bt.revTab[lo-base : hi-base]
		// Crash draws, once per lane. The round coordinate is pinned to 0
		// so one (node, lane) pair crashes in every round of its window.
		for b := 0; b < k; b++ {
			down[b] = crashNow && alive[b] && ftape.Bernoulli(f.CrashP, faultCrash, 0, uint64(v), fids[b])
		}
		clear(del)
		// The suppression walk, slot-major: each receive slot's k lanes
		// are contiguous in the lens slab. Down and dead lanes are
		// skipped — their held-slab state must stay untouched.
		for pi, s := range rev {
			li0 := int(s) * B
			// The directed edge is keyed by the receiver's own global
			// slot: lo+pi is v's port pi in every execution shape.
			gs := uint64(lo + pi)
			severed := sev != nil && round >= int(sev[lo+pi])
			for b := 0; b < k; b++ {
				if !alive[b] || down[b] {
					continue
				}
				li := li0 + b
				if heldLens != nil {
					if hl := heldLens[li]; hl > 0 {
						if curLens[li] == 0 {
							curLens[li] = hl
							if nw := int(hl) - 1; nw > 0 {
								wb := int(offW[s])*B + int(capW[s])*b
								copy(curWords[wb:wb+nw], heldWords[wb:wb+nw])
							}
						}
						heldLens[li] = 0
					}
				}
				if curLens[li] == 0 {
					continue
				}
				if severed {
					curLens[li] = 0
					continue
				}
				if f.Drop > 0 && ftape.Bernoulli(f.Drop, faultDrop, uint64(round), gs, fids[b]) {
					curLens[li] = 0
					continue
				}
				if heldLens != nil && ftape.Bernoulli(f.Delay, faultDelay, uint64(round), gs, fids[b]) {
					hl := curLens[li]
					heldLens[li] = hl
					if nw := int(hl) - 1; nw > 0 {
						wb := int(offW[s])*B + int(capW[s])*b
						copy(heldWords[wb:wb+nw], curWords[wb:wb+nw])
					}
					curLens[li] = 0
					continue
				}
				del[b]++
			}
		}
		// Credit the deliveries and fold the node's crashed lanes into
		// its crash mask: a down node stages nothing, so it sends nothing
		// next round.
		var crashed uint64
		for b := 0; b < k; b++ {
			if alive[b] {
				msgRow[b] += int64(del[b])
				if down[b] {
					crashed |= 1 << b
				}
			}
		}
		crashed &^= bt.vdone[v]
		if f.CrashUntil == 0 {
			// Permanent crash: finalize with the frozen state so the
			// run's halting consensus can still complete.
			r.Finish(v, crashed)
		}
		bt.vdown[v] = crashed
	}
}
