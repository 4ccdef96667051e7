package local

import (
	"fmt"

	"rlnc/internal/graph"
	"rlnc/internal/ids"
	"rlnc/internal/lang"
	"rlnc/internal/localrand"
)

// Batch executes a vector of independent trials of one algorithm through a
// single engine pass, so the per-round scheduling, the CSR reverse-slot
// gather, the halting checks, and the view assembly amortize across the
// whole vector instead of being paid once per trial. It is the
// structure-of-arrays generalization of Engine: message slabs are indexed
// [slot][lane] (flattened, stride = the batch width B), tape slabs hold one
// row per lane (seeded in one pass by localrand.Draw.TapeVecInto), and the
// cached view skeletons are refilled once per batch with only the
// lane-varying columns (candidate outputs, tapes) swapped per trial. An
// Engine is exactly the B = 1 case of this core.
//
// Lanes are independent: lane b behaves byte-identically to a pooled
// Engine run of the same (instance, draw) pair — outputs, Stats, and error
// behavior included. That equivalence is the contract Monte-Carlo
// harnesses rely on when they hand each worker a contiguous trial chunk
// (mc.Executor with Batch set) instead of one index at a time.
//
// A Batch, like an Engine, is one worker's private scratch: it is NOT safe
// for concurrent use. Concurrency comes from one Batch per worker on a
// shared Plan.
type Batch struct {
	plan  *Plan
	width int

	// win, when non-nil, makes this batch one shard's compacted window:
	// its wire slabs cover only the shard's own slot range plus the
	// remote halo it reads (graph.ShardSlots), indexed by the window's
	// local slot coordinates — global slot s of the own range lives at
	// local s−slotBase, halo slots after the own range. slotBase and
	// revTab are the coordinate shift the passes apply: for a full batch
	// slotBase is 0 and revTab is the topology's global RevSlot table, so
	// the unsharded round loop pays a constant subtract-zero and nothing
	// else. Windowed batches must only ever be driven over the window's
	// node range (the sharded orchestrator does); procs/done/tapes stay
	// globally node-indexed so collection code is shared.
	win      *graph.ShardSlots
	slotBase int
	revTab   []int32

	// Message-path scratch, recomputed per run (the layout depends on the
	// algorithm's MsgWords) and reallocated only on growth. The wire slabs
	// are the double-buffered send state in [slot][lane] layout: the
	// message lane b sends on directed slot s occupies lens index s*B+b
	// (0 = no message, n+1 = n payload words) and the word range starting
	// at offW[s]*B + capW[s]*b, so one slot's lanes are contiguous and the
	// reverse-slot walk of a delivery is shared by every lane of the
	// batch. Each round counts arrivals out of the cur slabs, steps each
	// process with an Inbox reading cur and an Outbox writing next, and
	// swaps. block is the lane count of one message pass (see
	// msgSlabBudget); slabs are sized and strided by it, and wider lane
	// vectors run in successive blocks.
	block    int
	capW     []int32 // per-slot word capacity, from MsgWords by sender degree
	offW     []int32 // per-slot word offsets (lane-0 base), prefix sums of capW
	totalW   int     // words per lane: offW[last] + capW[last]
	useRefs  bool    // algorithm payloads travel through the ref slabs
	curLens  []int32
	nextLens []int32
	curWords []uint64
	nextWord []uint64
	curRefs  []Message
	nextRefs []Message
	procs    []WireProcess  // [v*block+b]
	resets   []ResetProcess // procs' ResetProcess views, filled as created
	done     []bool         // [v*block+b]
	tapes    []localrand.Tape
	alive    []bool  // per-lane: still running
	notDone  []int   // per-lane count of nodes still running
	roundsOf []int   // per-lane Stats.Rounds
	msgsOf   []int64 // per-lane Stats.Messages
	// Per-worker, per-lane round counters, merged serially after each
	// round pass so the hot loop runs without atomics: wkStage holds the
	// messages each worker's nodes staged this pass (the Outbox stage
	// rows — the fault-free path's sender-side message accounting),
	// wkMsgs the receiver-side delivered counts (written only by the
	// fault pass, whose suppression makes staged ≠ delivered), wkFin the
	// newly finished nodes. pending buffers the previous pass's merged
	// stage counts: what was staged at round r-1 is delivered at round r,
	// so runVec adds pending to msgsOf exactly where the receiver-side
	// merge used to happen. Per-worker Inbox/Outbox scratch keeps the
	// round loop allocation-free.
	wkStage  [][]int64
	wkMsgs   [][]int64
	wkFin    [][]int
	pending  []int64
	inboxes  []Inbox
	outboxes []Outbox
	// Per-worker slot-major scratch rows for the fault pass: wkDel
	// accumulates each lane's delivered count during a node's
	// reverse-slot walk (the walk reads each slot's contiguous
	// [s*B, s*B+k) lens range once instead of k stride-B gathers), wkDown
	// holds the per-lane crash decisions. Both are written and read only
	// within one node's iteration.
	wkDel  [][]int32
	wkDown [][]bool
	// roundFn/startFn/collectFn are the bound roundPass/startPass/
	// collectPass methods, built once so the per-round parallelChunks
	// dispatch does not allocate a closure; rk/rround/rwa/rsrc/rys carry
	// the pass parameters to them. The sharded orchestrator drives the
	// same passes directly over a shard's node range (see sharded.go),
	// which is why the parameters live on the batch rather than in
	// closures.
	roundFn   func(w, vlo, vhi int)
	startFn   func(w, vlo, vhi int)
	collectFn func(w, vlo, vhi int)
	rk        int
	rround    int
	rwa       WireAlgorithm
	rsrc      laneSrc
	rys       [][]byte
	// outs is the double-buffered per-run output arena (see arenaPair).
	outs arenaPair
	// procAlgo is the algorithm whose process table survives in procs
	// between runs: non-nil only when its processes implement
	// ResetProcess, in which case startPass resets and reuses them
	// instead of allocating n×lanes fresh processes per trial. rpool is
	// the per-run flag startPass reads.
	procAlgo WireAlgorithm
	rpool    bool

	// Lane-vectorized stepping state (vec.go): vecAlgo is armed once per
	// pass by armVec, when the run's algorithm implements VecAlgorithm
	// and the pass has two or more lanes — the passes then dispatch to
	// their vec twins, which drive ONE SoA process per node (vprocs,
	// pooled via vresets/vprocAlgo under the same rules as the scalar
	// table) through per-worker InboxVec/OutboxVec scratch. wkPrev holds
	// the pre-step done row a pass diffs new finishes out of; wkMask the
	// per-node lane mask the fault pass hands crashed lanes to StepVec
	// with.
	vecAlgo   VecAlgorithm
	vprocs    []VecProcess // [v] — one per node, all lanes
	vresets   []ResetVecProcess
	vprocAlgo WireAlgorithm
	vinboxes  []InboxVec
	voutboxes []OutboxVec
	vinfos    []VecNodeInfo
	wkPrev    [][]bool
	wkMask    [][]bool

	// Fault state (fault.go): defFault is the executor default a run
	// falls back to when RunOptions.Fault is nil; fault is the armed
	// per-run plan (nil = fault-free fast path), ftape its positional
	// randomness, flane the per-lane fault identities (draw seeds), fsev
	// the per-global-slot severed-from rounds of the surgery schedule,
	// and the held slabs the one-round retention state of Delay plans.
	defFault  *FaultPlan
	fault     *FaultPlan
	ftape     localrand.FaultTape
	flane     []uint64
	fsev      []int32
	heldLens  []int32
	heldWords []uint64
	heldRefs  []Message

	// View-path scratch: skeleton views keyed by radius, shared by the
	// construction and decision paths (decision views additionally carry
	// the candidate-output column Y), plus the per-lane column tables and
	// refill flags the batched refill resolves once per pass so the hot
	// (lane × node) loop runs without indirect calls.
	viewSets  map[int]*viewSet
	dviewSets map[int]*viewSet
	colID     []ids.Assignment
	colX      [][][]byte
	colY      [][][]byte
	refill    []colRefill
	// viewOuts is the double-buffered view-path output arena; viewFlip
	// selects the buffer the next view pass writes (same contract as the
	// message path's arenaPair).
	viewOuts [2]viewArena
	viewFlip int
}

// laneSrc supplies the per-lane inputs of one execution vector — lane
// b's instance and the tape of (lane b, node v) — through struct fields
// instead of per-run closures, so binding a run's parameters to the
// batch allocates nothing. Exactly one of shared/ins is set. Randomness
// comes from tapes (row b covers nodes [tlo, tlo+tn), node v at index
// b*tn+(v-tlo) — shard workers hold windowed rows) or, for the
// ball-simulation adapter only, from the tapeFn fallback; both nil
// means deterministic lanes.
type laneSrc struct {
	shared *lang.Instance   // every lane runs this instance...
	ins    []*lang.Instance // ...or lane b runs ins[b]
	tapes  []localrand.Tape
	tlo    int // first node the tape rows cover
	tn     int // tape row stride (nodes per row)
	tapeFn func(b, v int) *localrand.Tape
}

// instance returns lane b's instance.
func (src *laneSrc) instance(b int) *lang.Instance {
	if src.shared != nil {
		return src.shared
	}
	return src.ins[b]
}

// hasTapes reports whether the lanes carry randomness.
func (src *laneSrc) hasTapes() bool { return src.tapes != nil || src.tapeFn != nil }

// tape returns the tape of (lane b, node v); only called when hasTapes.
func (src *laneSrc) tape(b, v int) *localrand.Tape {
	if src.tapes != nil {
		return &src.tapes[b*src.tn+(v-src.tlo)]
	}
	return src.tapeFn(b, v)
}

// runArena is one buffer of a double-buffered per-run output store: the
// flat output slab (lane b's column at [b*n, (b+1)*n)), the Result
// values, and the pointer slice handed to the caller.
type runArena struct {
	ys  [][]byte
	res []Result
	ptr []*Result
}

// arenaPair is the double-buffered per-run output arena of an executor.
// Each run writes one buffer and the pair alternates, so a run's
// returned results stay valid while the NEXT run executes (pipelines
// read stage i's outputs while stage i+1 runs) and are overwritten by
// the run after that. Callers needing longer retention copy out.
type arenaPair struct {
	buf  [2]runArena
	flip int
}

// next returns the buffer the coming run writes, sized for k lanes of n
// nodes, and flips the pair.
func (p *arenaPair) next(k, n int) *runArena {
	ar := &p.buf[p.flip]
	p.flip ^= 1
	ar.ys = sliceFor(ar.ys, k*n)
	ar.res = sliceFor(ar.res, k)
	ar.ptr = sliceFor(ar.ptr, k)
	return ar
}

// viewArena is one buffer of the view path's double-buffered output
// store: the flat per-node output slab and the per-lane row slice,
// under the same alternation contract as arenaPair.
type viewArena struct {
	slab [][]byte
	ys   [][][]byte
}

// colRefill records which of a lane's columns differ from the previous
// lane's (by backing array), i.e. which the per-node refill must rewrite.
type colRefill struct{ id, x, y bool }

// NewBatch returns a fresh batch of the plan with the given width (the
// lane capacity B). Runs may use any 1..width lanes, so ragged tails of a
// trial loop (trials % B != 0) reuse the same batch. Slabs are allocated
// lazily on first use, exactly like an Engine's.
func (p *Plan) NewBatch(width int) *Batch {
	if width < 1 {
		panic(fmt.Sprintf("local: batch width %d, need >= 1", width))
	}
	return &Batch{plan: p, width: width, revTab: p.topo.RevSlot}
}

// newWindowBatch returns a batch whose wire slabs are compacted to one
// shard's slot window plus its halo. Only the sharded orchestrator and
// the shard-worker protocol build these; they drive the passes strictly
// over the window's node range.
func (p *Plan) newWindowBatch(width int, win *graph.ShardSlots) *Batch {
	bt := p.NewBatch(width)
	bt.win = win
	bt.slotBase = int(win.SlotLo)
	bt.revTab = win.Rev
	return bt
}

// localSlots returns the batch's slot-space size: the full topology for
// an unwindowed batch, own range + halo for a shard window.
func (bt *Batch) localSlots() int {
	if bt.win != nil {
		return bt.win.NumLocal()
	}
	return bt.plan.topo.NumSlots()
}

// Plan returns the plan the batch executes on.
func (bt *Batch) Plan() *Plan { return bt.plan }

// Width returns the lane capacity B.
func (bt *Batch) Width() int { return bt.width }

// lanes validates a lane count against the batch width.
func (bt *Batch) lanes(k int) error {
	if k < 1 || k > bt.width {
		return fmt.Errorf("local: %d lanes on a batch of width %d", k, bt.width)
	}
	return nil
}

// checkInstance validates that an instance runs on the batch's plan graph.
func (bt *Batch) checkInstance(in *lang.Instance) error {
	if in.G != bt.plan.g {
		return fmt.Errorf("local: instance graph %v is not the batch's plan graph %v", in.G, bt.plan.g)
	}
	return nil
}

// Run executes one message-passing trial per draw — lane b runs in.ID's
// tapes under draws[b] — through a blocked round loop, returning one
// Result per lane. Successful lane outputs and Stats are byte-identical
// to Engine.Run with the same draw; errors fail fast, so a lane
// exceeding the round budget aborts its whole vector rather than failing
// alone (the repository's algorithms halt within the budget for every
// draw, making the two behaviors indistinguishable in practice).
// len(draws) may be any 1..Width(). Results live in the batch's
// double-buffered output arena: they stay valid while the next run on
// this batch executes and are overwritten by the run after that.
func (bt *Batch) Run(in *lang.Instance, algo MessageAlgorithm, draws []localrand.Draw, opts RunOptions) ([]*Result, error) {
	if err := bt.lanes(len(draws)); err != nil {
		return nil, err
	}
	if err := bt.checkInstance(in); err != nil {
		return nil, err
	}
	return bt.runBlocks(in, nil, len(draws), algo, draws, opts)
}

// RunInstances is Run with per-lane instances (all over the plan's graph):
// lane b executes ins[b] under draws[b]. A nil draws runs every lane
// deterministically; otherwise len(draws) must equal len(ins). Pipelines
// use this form — after the first stage, each lane carries its own inputs.
func (bt *Batch) RunInstances(ins []*lang.Instance, algo MessageAlgorithm, draws []localrand.Draw, opts RunOptions) ([]*Result, error) {
	if err := bt.lanes(len(ins)); err != nil {
		return nil, err
	}
	if draws != nil && len(draws) != len(ins) {
		return nil, fmt.Errorf("local: %d draws for %d lanes", len(draws), len(ins))
	}
	for _, in := range ins {
		if err := bt.checkInstance(in); err != nil {
			return nil, err
		}
	}
	return bt.runBlocks(nil, ins, len(ins), algo, draws, opts)
}

// msgSlabBudget bounds the bytes the two send slabs of one message pass
// may occupy. SoA lanes amortize per-round scheduling, but a round loop
// streams both slabs every round, so the slabs must stay cache-resident
// for the batch to win; lane vectors wider than the budget's block run in
// successive full passes (lanes are independent, so the results are
// identical either way). A slot-lane costs 2×(8·words + 4) bytes — 24
// bytes for the one-word retry coloring of E2, so a ring C_n fits
// 2^20 / (48n) lanes per pass: 32 (the whole vector) at n = 600, 9 at
// 2400, 4 at 4800, 2 at 9600, and 1 from n ≈ 11k up.
//
// The budget was measured end to end on the mc-slack-sweep benchmark
// (full-size E2, batch width 32, per-pass vec dispatch) on a shared
// 2-core Xeon. Five interleaved rounds of 15 s runs at seed 3:
//
//	budget      wall_s median (range)   peak_rss_mb median
//	256 KB      1.90 (1.67–2.10) s      124 MB
//	1 MB        1.71 (1.33–2.20) s      121 MB
//	4 MB        1.43 (1.26–2.13) s      136 MB
//	unbounded   1.60 (1.56–1.67) s      359 MB
//
// Six alternating 30 s pairs at seed 5 then put 1 MB and 4 MB level on
// time (medians 1.31 and 1.34 s) with 4 MB about 10 MB heavier
// (119–124 against 131–136 MB). 1 MB is the smallest budget that
// reaches the larger budgets' speed; the unbounded block pays for a
// 38400-node ring's 32 lanes of slab at once.
const msgSlabBudget = 1 << 20

// layoutWire computes the wire slab layout of one algorithm over the
// plan's topology: per-slot word capacities (MsgWords of the sender's
// degree), their prefix offsets, and the lane count of one message pass
// under msgSlabBudget. Slices are reused across runs; recomputing is
// O(slots) and allocation-free once grown.
func (bt *Batch) layoutWire(wa WireAlgorithm) {
	topo := bt.plan.topo
	vlo, vhi := 0, topo.NumNodes()
	slots := bt.localSlots()
	if bt.win != nil {
		vlo, vhi = bt.win.NodeLo, bt.win.NodeHi
	}
	bt.capW = sliceFor(bt.capW, slots)
	bt.offW = sliceFor(bt.offW, slots)
	total := 0
	for v := vlo; v < vhi; v++ {
		lo, hi := topo.Slots(v)
		if lo == hi {
			continue
		}
		w := wa.MsgWords(hi - lo)
		if w < 0 {
			panic(fmt.Sprintf("local: %s.MsgWords(%d) = %d, need >= 0", wa.Name(), hi-lo, w))
		}
		for s := lo; s < hi; s++ {
			bt.offW[s-bt.slotBase] = int32(total)
			bt.capW[s-bt.slotBase] = int32(w)
			total += w
		}
	}
	if bt.win != nil {
		// Halo slots: their senders live on other shards, so the word
		// capacity comes from the window's recorded sender degrees — the
		// same MsgWords the owning shard computes, keeping both sides of
		// a cut in exact layout agreement.
		own := bt.win.NumOwn()
		for h, deg := range bt.win.HaloDeg {
			w := wa.MsgWords(int(deg))
			if w < 0 {
				panic(fmt.Sprintf("local: %s.MsgWords(%d) = %d, need >= 0", wa.Name(), deg, w))
			}
			bt.offW[own+h] = int32(total)
			bt.capW[own+h] = int32(w)
			total += w
		}
	}
	bt.totalW = total
	bt.useRefs = wantsRefs(wa)
	// Bytes one lane adds to a pass: both double-buffered slabs count.
	bytesPerLane := 2 * (8*total + 4*slots)
	if bt.useRefs {
		bytesPerLane += 2 * 16 * slots
	}
	block := bt.width
	if bytesPerLane > 0 {
		block = msgSlabBudget / bytesPerLane
	}
	if block < 1 {
		block = 1
	}
	if block > bt.width {
		block = bt.width
	}
	bt.block = block
}

// armVec chooses the stepping path of one pass of k lanes of wa, once
// the pass's block is fixed: the vector path when wa steps SoA lanes
// itself and the pass has lanes to share the hoisted per-node work
// across, the scalar WireProcess path otherwise — every Engine, every
// one-lane block, and a ragged one-lane tail. A one-lane VecProcess pays
// the SoA overhead with nothing to amortize it (about 94 against 68 ns
// per lane-step for retry coloring on C_4800, BenchmarkLaneStep at
// -cpu 1). Ref-carried payloads (useRefs, from the current layout) have
// no lane-major form and always step scalar. Both paths are
// byte-identical, so the choice is invisible in outputs and Stats.
func (bt *Batch) armVec(wa WireAlgorithm, k int) {
	bt.vecAlgo = nil
	if va, ok := wa.(VecAlgorithm); ok && k >= 2 && !bt.useRefs {
		bt.vecAlgo = va
	}
}

// SlabBytesFor reports the byte footprint of the double-buffered wire
// slabs one pass of algo streams on this batch — the memory a shard (or
// an unsharded batch) actually pays per lane block under its current
// slot space. It computes the algorithm's layout as a side effect, like
// a run would. The sharded compaction gate compares per-shard windows
// against the full batch through it.
func (bt *Batch) SlabBytesFor(algo MessageAlgorithm) int {
	bt.layoutWire(wireOf(algo))
	return bt.slabBytes()
}

// slabBytes is SlabBytesFor under the already-computed layout.
func (bt *Batch) slabBytes() int {
	slots := bt.localSlots()
	perLane := 2 * (8*bt.totalW + 4*slots)
	if bt.useRefs {
		perLane += 2 * 16 * slots
	}
	return perLane * bt.block
}

// msgLanesFor returns the lane count of one message pass of algo — how
// many lanes of a wide vector share one round loop before the slab
// budget forces a new pass.
func (bt *Batch) msgLanesFor(algo MessageAlgorithm) int {
	bt.layoutWire(wireOf(algo))
	return bt.block
}

// sliceFor returns s resized to n elements, reusing its backing array
// when the capacity allows (contents are then stale — callers
// reinitialize what they read) and allocating otherwise.
func sliceFor[T any](s []T, n int) []T {
	if cap(s) >= n {
		return s[:n]
	}
	return make([]T, n)
}

// runBlocks drives the message core over a lane vector in slab-budget
// blocks: lanes [lo, lo+block) share one round loop per pass. Exactly
// one of shared/ins carries the lane instances. The whole vector's
// outputs land in one arena buffer, so the arena alternates per
// top-level run, not per block — a multi-block run never clobbers its
// own earlier blocks.
func (bt *Batch) runBlocks(shared *lang.Instance, ins []*lang.Instance, k int, algo MessageAlgorithm, draws []localrand.Draw, opts RunOptions) ([]*Result, error) {
	wa := bt.prepareWire(algo)
	n := bt.plan.g.N()
	ar := bt.outs.next(k, n)
	for lo := 0; lo < k; lo += bt.block {
		hi := lo + bt.block
		if hi > k {
			hi = k
		}
		var chunk []localrand.Draw
		if draws != nil {
			chunk = draws[lo:hi]
		}
		src := laneSrc{shared: shared}
		if ins != nil {
			src.ins = ins[lo:hi]
		}
		bt.seedTapes(hi-lo, chunk, &src)
		err := bt.runVec(src, hi-lo, wa, chunk, opts, ar.ys[lo*n:hi*n], ar.res[lo:hi], ar.ptr[lo:hi])
		if err != nil {
			return nil, err
		}
	}
	return ar.ptr[:k], nil
}

// seedTapes reseeds the first k tape rows — row b holds lane b's
// per-node tapes under draws[b], addressed by src's lane instances —
// and points src at them (deterministic vectors leave src tape-free).
func (bt *Batch) seedTapes(k int, draws []localrand.Draw, src *laneSrc) {
	if draws == nil {
		return
	}
	n := bt.plan.g.N()
	// Sized by the pass, not the batch width: a pass holds at most one
	// block of lanes, and the first pass of a vector is its widest.
	bt.tapes = sliceFor(bt.tapes, k*n)
	for b := 0; b < k; b++ {
		draws[b].TapeVecInto(bt.tapes[b*n:(b+1)*n], src.instance(b).ID)
	}
	src.tapes, src.tlo, src.tn = bt.tapes, 0, n
}

// prepareWire resolves an algorithm onto the wire core (wireOf) and
// computes its slab layout; callers hand the returned algorithm to
// runVec, which assumes the layout is current — runBlocks prepares once
// and reuses the layout across every block of a wide lane vector.
func (bt *Batch) prepareWire(algo MessageAlgorithm) WireAlgorithm {
	wa := wireOf(algo)
	bt.layoutWire(wa)
	return wa
}

// runVec is the batched round-loop core shared by every execution path:
// Engine.Run and the single-shot wrappers are the k = 1 case. src
// supplies lane instances and tapes (the caller has validated all lanes
// against the plan), draws carries the lanes' draw identities (read
// only by the fault seam; nil for deterministic lanes), and wa comes
// from prepareWire on this batch (the slab layout must be current).
// ys/res/out are the run's arena destinations — k*n output cells, k
// Result values, k result pointers — typically one block's slices of a
// runBlocks-level arena buffer. The loop runs on the wire core: native
// WireAlgorithms stage fixed-width words straight into the send slabs
// and the steady-state round costs zero allocations; legacy algorithms
// run through the boxing shim on the identical loop with their payloads
// carried by the ref slabs.
func (bt *Batch) runVec(src laneSrc, k int, wa WireAlgorithm, draws []localrand.Draw, opts RunOptions, ys [][]byte, res []Result, out []*Result) error {
	if k > bt.block {
		return fmt.Errorf("local: %d lanes exceed the %d-lane slab block", k, bt.block)
	}
	bt.armVec(wa, k)
	n := bt.plan.g.N()
	maxRounds := opts.MaxRounds
	if maxRounds == 0 {
		maxRounds = 2*n + 64
	}
	if opts.StopAfter > 0 {
		maxRounds = opts.StopAfter
	}
	bt.installFault(bt.effectiveFault(opts), draws, k)
	bt.ensureWireState()
	// endRun drops references into algorithm state when the run ends —
	// on the error paths too — so a pooled batch never keeps a previous
	// execution's processes and messages alive.
	defer bt.endRun()

	workers := maxWorkers(n)
	bt.ensureWorkerScratch(workers)
	for b := 0; b < k; b++ {
		bt.alive[b] = true
		bt.notDone[b] = n
		bt.roundsOf[b] = 0
		bt.msgsOf[b] = 0
	}
	// Zero the worker counter rows before the first pass: the passes no
	// longer self-clear them (the merges below re-zero after reading),
	// so a row left over from a previous run — a fault run's uncaptured
	// stage counts above all — must not replay into this one.
	for w := 0; w < workers; w++ {
		clear(bt.wkStage[w])
		clear(bt.wkMsgs[w])
		clear(bt.wkFin[w])
	}

	// Init + round-1 staging: every (node, lane) clears its lane's send
	// state (the slabs are reused across runs) and lets Start stage into
	// the cur slabs through a per-worker Outbox.
	bt.preparePools(wa)
	bt.rk, bt.rwa, bt.rsrc = k, wa, src
	if bt.startFn == nil {
		bt.startFn = bt.startPass
	}
	parallelChunks(n, bt.startFn)

	// capture merges the worker stage rows into pending — the messages
	// staged this pass, delivered (and credited to msgsOf) next round —
	// re-zeroing the rows for the next pass. Fault runs skip it: their
	// accounting is receiver-side (wkMsgs), and the stage rows are dead
	// weight cleared at the next run's init.
	faulty := bt.fault != nil
	pend := bt.pending[:k]
	capture := func() {
		clear(pend)
		for w := 0; w < workers; w++ {
			stRow := bt.wkStage[w][:k]
			for b := 0; b < k; b++ {
				pend[b] += stRow[b]
			}
			clear(stRow)
		}
	}
	if !faulty {
		capture()
	}

	live := k
	if bt.roundFn == nil {
		// Bind the method value once; rebuilding it per round would
		// allocate a closure in the hot loop.
		bt.roundFn = bt.roundPass
	}
	for round := 1; opts.StopAfter == 0 || round <= opts.StopAfter; round++ {
		if round > maxRounds {
			return fmt.Errorf("%w: %d rounds on %d nodes", ErrNoHalt, maxRounds, n)
		}
		bt.rround = round
		parallelChunks(n, bt.roundFn)
		bt.curLens, bt.nextLens = bt.nextLens, bt.curLens
		bt.curWords, bt.nextWord = bt.nextWord, bt.curWords
		bt.curRefs, bt.nextRefs = bt.nextRefs, bt.curRefs
		// Merge and re-zero the worker rows: a worker index can go idle
		// between runs (GOMAXPROCS shrinks, or ceil-division leaves the
		// last chunk empty), and an idle worker's row must read as zero
		// rather than replay a previous round's counts.
		for w := 0; w < workers; w++ {
			finRow := bt.wkFin[w][:k]
			for b := 0; b < k; b++ {
				bt.notDone[b] -= finRow[b]
			}
			clear(finRow)
		}
		if faulty {
			// Receiver-side accounting: the fault pass counts what
			// survived suppression into the wkMsgs rows.
			for w := 0; w < workers; w++ {
				msgRow := bt.wkMsgs[w][:k]
				for b := 0; b < k; b++ {
					bt.msgsOf[b] += msgRow[b]
				}
				clear(msgRow)
			}
		} else {
			// Sender-side accounting: what the previous pass staged was
			// delivered by this one. The alive gate matches the old
			// receiver-side count exactly — a lane that finished last
			// round no longer counts arrivals, and a lane's final-round
			// stages are never delivered or counted.
			for b := 0; b < k; b++ {
				if bt.alive[b] {
					bt.msgsOf[b] += pend[b]
				}
			}
			capture()
		}
		for b := 0; b < k; b++ {
			if !bt.alive[b] {
				continue
			}
			bt.roundsOf[b] = round
			if bt.notDone[b] == 0 {
				bt.alive[b] = false
				live--
			}
		}
		if live == 0 {
			break
		}
	}

	bt.rys = ys
	if bt.collectFn == nil {
		bt.collectFn = bt.collectPass
	}
	parallelChunks(n, bt.collectFn)
	for b := 0; b < k; b++ {
		res[b] = Result{
			Y:     ys[b*n : (b+1)*n : (b+1)*n],
			Stats: Stats{Rounds: bt.roundsOf[b], Messages: bt.msgsOf[b]},
		}
		out[b] = &res[b]
	}
	return nil
}

// endRun is runVec's deferred cleanup: it drops references into
// algorithm state so a pooled batch never keeps a previous execution's
// processes and messages alive. The process table is the one deliberate
// exception: when the algorithm's processes implement ResetProcess the
// table is kept and reset in place next run. (The output arena is the
// other intended survivor — its retention contract is the documented
// double-buffer alternation.)
func (bt *Batch) endRun() {
	if bt.procAlgo == nil {
		clear(bt.procs)
		clear(bt.resets)
	}
	if bt.vprocAlgo == nil {
		clear(bt.vprocs)
		clear(bt.vresets)
	}
	clear(bt.curRefs)
	clear(bt.nextRefs)
	clear(bt.heldRefs)
	bt.rsrc = laneSrc{}
	bt.rys = nil
	bt.rwa = nil
}

// collectPass is one worker's share of the output gather: lane b's node
// v output lands at rys[b*n+v]. Slot-free, so it walks the process
// table in [node][lane] order directly.
func (bt *Batch) collectPass(w, vlo, vhi int) {
	if bt.vecAlgo != nil {
		bt.collectVecPass(vlo, vhi)
		return
	}
	k, B, n := bt.rk, bt.block, bt.plan.g.N()
	ys, procs := bt.rys, bt.procs
	for v := vlo; v < vhi; v++ {
		row := procs[v*B : v*B+k]
		for b, p := range row {
			ys[b*n+v] = p.Output()
		}
	}
}

// preparePools decides whether this run's process table can be pooled:
// when the algorithm changed since the last run, the stale table is
// dropped and one probe process determines whether the new algorithm's
// processes implement ResetProcess. Steady-state trial loops (same
// algorithm back to back) skip the probe entirely and reuse the table.
func (bt *Batch) preparePools(wa WireAlgorithm) {
	if bt.vecAlgo != nil {
		if !sameAlgo(bt.vprocAlgo, bt.vecAlgo) {
			clear(bt.vprocs)
			clear(bt.vresets)
			bt.vprocAlgo = nil
			if _, ok := bt.vecAlgo.NewVecProcess().(ResetVecProcess); ok {
				bt.vprocAlgo = bt.vecAlgo
			}
		}
		bt.rpool = bt.vprocAlgo != nil
		return
	}
	if !sameAlgo(bt.procAlgo, wa) {
		clear(bt.procs)
		clear(bt.resets)
		bt.procAlgo = nil
		if _, ok := wa.NewWireProcess().(ResetProcess); ok {
			bt.procAlgo = wa
		}
	}
	bt.rpool = bt.procAlgo != nil
}

// startPass is one worker's share of the init + round-1 staging: every
// node clears its lanes' send state slot-major — the node's outgoing
// slots are consecutive, so the whole [lo*B, hi*B) window is ONE
// contiguous clear (lanes ≥ k are unused capacity nobody ever reads, so
// clearing the full block width is output-invisible and lets the clear
// run at memclr bandwidth) — then every (node, lane) obtains a process —
// pooled and reset in place when the algorithm supports it, freshly
// created otherwise — and lets Start stage into the cur slabs through
// the worker's Outbox. Pass parameters arrive via rk/rwa/rsrc, exactly
// like roundPass's.
func (bt *Batch) startPass(w, vlo, vhi int) {
	if bt.vecAlgo != nil {
		bt.startVecPass(w, vlo, vhi)
		return
	}
	topo := bt.plan.topo
	k, B, wa := bt.rk, bt.block, bt.rwa
	src, pool := &bt.rsrc, bt.rpool
	hasTapes := src.hasTapes()
	procs, done := bt.procs, bt.done
	resets := bt.resets
	curLens, curRefs := bt.curLens, bt.curRefs
	out := &bt.outboxes[w]
	bt.bindOutbox(out, bt.curLens, bt.curWords, bt.curRefs)
	out.stage = bt.wkStage[w]
	for v := vlo; v < vhi; v++ {
		lo, hi := topo.Slots(v)
		deg := hi - lo
		slo, shi := lo-bt.slotBase, hi-bt.slotBase
		out.deg, out.slotLo = deg, slo
		clear(curLens[slo*B : shi*B])
		if curRefs != nil {
			clear(curRefs[slo*B : shi*B])
		}
		for b := 0; b < k; b++ {
			in := src.instance(b)
			done[v*B+b] = false
			p := procs[v*B+b]
			if pool && resets[v*B+b] != nil {
				resets[v*B+b].ResetProcess()
			} else {
				p = wa.NewWireProcess()
				procs[v*B+b] = p
				if rp, ok := p.(ResetProcess); ok {
					resets[v*B+b] = rp
				}
			}
			info := NodeInfo{ID: in.ID[v], Degree: deg, Input: in.X[v]}
			if hasTapes {
				info.Tape = src.tape(b, v)
			}
			out.b = b
			p.Start(info, out)
		}
	}
}

// roundPass is one worker's share of one round, fused deliver + step:
// the message lane b's node v sent on port p arrives across the edge at
// the reverse slot, and the Inbox reads payload words from cur in place —
// no receive copy at all. New sends are staged into next through the
// worker's Outbox, whose stage row counts them as they are staged:
// message accounting is sender-side (every staged message is read by
// exactly one receiver next round, so runVec credits the previous pass's
// stage counts as this round's deliveries), which removes the per-round
// arrival-count walk over the RevSlot window entirely. Done nodes still
// receive but stage nothing. Halting counters accumulate into
// worker-indexed scratch and merge serially after the pass, so the hot
// loop carries no atomics — and, on the wire path, no allocations.
//
// An armed fault plan dispatches to faultPass (fault.go), the same walk
// with the plan applied receiver-side (suppression makes staged ≠
// delivered, so the fault pass keeps the arrival count); a fault-free
// run pays exactly one predictable nil check here and nothing else.
func (bt *Batch) roundPass(w, vlo, vhi int) {
	if bt.fault != nil {
		bt.faultPass(w, vlo, vhi)
		return
	}
	if bt.vecAlgo != nil {
		bt.roundVecPass(w, vlo, vhi)
		return
	}
	topo := bt.plan.topo
	k, B, round := bt.rk, bt.block, bt.rround
	finRow := bt.wkFin[w][:k]
	in, out := &bt.inboxes[w], &bt.outboxes[w]
	bt.bindInbox(in, bt.curLens, bt.curWords, bt.curRefs)
	bt.bindOutbox(out, bt.nextLens, bt.nextWord, bt.nextRefs)
	out.stage = bt.wkStage[w]
	nextLens, nextRefs := bt.nextLens, bt.nextRefs
	alive, done, procs := bt.alive, bt.done, bt.procs
	base := bt.slotBase
	for v := vlo; v < vhi; v++ {
		lo, hi := topo.Slots(v)
		deg := hi - lo
		// revTab is already in the batch's local slot coordinates (the
		// global table for a full batch, the window remap for a shard).
		rev := bt.revTab[lo-base : hi-base]
		in.deg, in.slot = deg, rev
		out.deg, out.slotLo = deg, lo-base
		// Reset the node's outgoing slots before staging — next still
		// holds the sends of two rounds ago. The node's slots are
		// consecutive, so the whole window is ONE contiguous clear at
		// memclr bandwidth; dead lanes and the unused capacity lanes
		// ≥ k are cleared along with the live ones: their stale state
		// is never read (they are skipped below and by every receiver),
		// so the wider clear is output-invisible.
		clear(nextLens[(lo-base)*B : (hi-base)*B])
		if nextRefs != nil {
			clear(nextRefs[(lo-base)*B : (hi-base)*B])
		}
		for b := 0; b < k; b++ {
			if !alive[b] || done[v*B+b] {
				continue
			}
			in.b, out.b = b, b
			if procs[v*B+b].Step(round, in, out) {
				done[v*B+b] = true
				finRow[b]++
			}
		}
	}
}

// bindInbox points a worker's Inbox at the current receive slabs; the
// per-node fields (deg, slot window, lane) are set in the loop.
func (bt *Batch) bindInbox(in *Inbox, lens []int32, words []uint64, refs []Message) {
	in.B = bt.block
	in.lens = lens
	in.word = words
	in.offW = bt.offW
	in.capW = bt.capW
	in.refs = refs
	in.box = nil
}

// bindOutbox points a worker's Outbox at the staging slabs.
func (bt *Batch) bindOutbox(out *Outbox, lens []int32, words []uint64, refs []Message) {
	out.B = bt.block
	out.lens = lens
	out.word = words
	out.offW = bt.offW
	out.capW = bt.capW
	out.refs = refs
}

// ensureWireState sizes the round-loop slabs for the current layout,
// reusing backing arrays across runs; steady-state reuse (same algorithm
// layout, any lane count) allocates nothing.
func (bt *Batch) ensureWireState() {
	n := bt.plan.g.N()
	slots := bt.localSlots()
	B := bt.block
	if bt.revTab == nil {
		// Engines embed a zero-value Batch; a full batch's delivery table
		// is the topology's global one.
		bt.revTab = bt.plan.topo.RevSlot
	}
	bt.curLens = sliceFor(bt.curLens, slots*B)
	bt.nextLens = sliceFor(bt.nextLens, slots*B)
	bt.curWords = sliceFor(bt.curWords, bt.totalW*B)
	bt.nextWord = sliceFor(bt.nextWord, bt.totalW*B)
	bt.ensureHeldSlabs(slots, B)
	if bt.useRefs {
		bt.curRefs = sliceFor(bt.curRefs, slots*B)
		bt.nextRefs = sliceFor(bt.nextRefs, slots*B)
	} else {
		// Hand the run nil refs so the hot loop skips ref clearing; a
		// later shim run re-allocates them.
		bt.curRefs, bt.nextRefs = nil, nil
	}
	// Only the pass's own process table is sized: a vector pass never
	// touches the n×B scalar table, a scalar pass never the per-node
	// vector one.
	if bt.vecAlgo != nil {
		bt.vprocs = sliceFor(bt.vprocs, n)
		bt.vresets = sliceFor(bt.vresets, n)
	} else {
		bt.procs = sliceFor(bt.procs, n*B)
		bt.resets = sliceFor(bt.resets, n*B)
	}
	bt.done = sliceFor(bt.done, n*B)
	if bt.alive == nil {
		bt.alive = make([]bool, bt.width)
		bt.notDone = make([]int, bt.width)
		bt.roundsOf = make([]int, bt.width)
		bt.msgsOf = make([]int64, bt.width)
	}
	if bt.pending == nil {
		bt.pending = make([]int64, bt.width)
	}
}

// ensureWorkerScratch sizes the per-worker round counters and wire
// in/outbox scratch for the current worker count (GOMAXPROCS may change
// between runs).
func (bt *Batch) ensureWorkerScratch(workers int) {
	for len(bt.wkMsgs) < workers {
		bt.wkStage = append(bt.wkStage, make([]int64, bt.width))
		bt.wkMsgs = append(bt.wkMsgs, make([]int64, bt.width))
		bt.wkFin = append(bt.wkFin, make([]int, bt.width))
		bt.wkDel = append(bt.wkDel, make([]int32, bt.width))
		bt.wkDown = append(bt.wkDown, make([]bool, bt.width))
	}
	for len(bt.wkPrev) < workers {
		bt.wkPrev = append(bt.wkPrev, make([]bool, bt.width))
		bt.wkMask = append(bt.wkMask, make([]bool, bt.width))
	}
	if len(bt.inboxes) < workers {
		bt.inboxes = sliceFor(bt.inboxes, workers)
		bt.outboxes = sliceFor(bt.outboxes, workers)
	}
	if len(bt.vinboxes) < workers {
		bt.vinboxes = sliceFor(bt.vinboxes, workers)
		bt.voutboxes = sliceFor(bt.voutboxes, workers)
		bt.vinfos = sliceFor(bt.vinfos, workers)
	}
}

// viewSet is one radius's cached view skeletons, the per-node lane draw
// they are currently bound to, and the per-node tape accessors reading it.
type viewSet struct {
	views []View
	// draws[v] is the draw of the lane node v is currently evaluating;
	// the batched refill rebinds it before each lane's output, and
	// tapeFns[v] reads it. Nodes advance through lanes independently on
	// the worker pool, which is why the binding is per node, not global.
	draws   []localrand.Draw
	tapeFns []func(int) *localrand.Tape
	// tapes[v][local] is the tape storage TapeFor hands out for node v's
	// ball-local index: reseeded in place on every call, so the trial
	// loop's innermost operation allocates nothing. Distinct locals get
	// distinct entries (simulations hold several ball tapes at once);
	// repeated calls for one local rewind the same entry, per the
	// View.TapeFor contract.
	tapes [][]localrand.Tape
}

// viewSetFor returns the cached view skeletons of the given radius,
// building them on first use. Decision views additionally carry the
// candidate-output column Y.
func (bt *Batch) viewSetFor(radius int, decision bool) *viewSet {
	cache := &bt.viewSets
	if decision {
		cache = &bt.dviewSets
	}
	if *cache == nil {
		*cache = make(map[int]*viewSet)
	}
	if vs, ok := (*cache)[radius]; ok {
		return vs
	}
	balls := bt.plan.ballsFor(radius)
	vs := &viewSet{
		views:   make([]View, len(balls)),
		draws:   make([]localrand.Draw, len(balls)),
		tapeFns: make([]func(int) *localrand.Tape, len(balls)),
		tapes:   make([][]localrand.Tape, len(balls)),
	}
	for v, b := range balls {
		view := &vs.views[v]
		view.Ball = b
		view.IDs = make([]int64, b.Size())
		view.X = make([][]byte, b.Size())
		if decision {
			view.Y = make([][]byte, b.Size())
		}
		vs.tapes[v] = make([]localrand.Tape, b.Size())
		ids := view.IDs
		row := vs.tapes[v]
		v := v
		vs.tapeFns[v] = func(local int) *localrand.Tape {
			t := &row[local]
			vs.draws[v].TapeInto(t, ids[local])
			return t
		}
	}
	(*cache)[radius] = vs
	return vs
}

// sameColumn reports whether two per-node columns share a backing array,
// which is how the batched refill detects that a lane reuses the previous
// lane's data (the usual trial-loop shape: identities and inputs are
// shared across the batch, only outputs and tapes vary).
func sameColumn[T any](a, b []T) bool {
	return len(a) == len(b) && (len(a) == 0 || &a[0] == &b[0])
}

// ensureColumns sizes the per-lane column tables.
func (bt *Batch) ensureColumns() {
	if bt.colID == nil {
		bt.colID = make([]ids.Assignment, bt.width)
		bt.colX = make([][][]byte, bt.width)
		bt.colY = make([][][]byte, bt.width)
		bt.refill = make([]colRefill, bt.width)
	}
}

// forEachViewVec refills the skeleton views lane by lane and invokes fn
// for every (lane, node) pair on the worker pool. Lane b's columns are
// bt.colID/colX (and colY when hasY), staged by the caller; columns that
// share a backing array with the previous lane's are not refilled — the
// refill decision is resolved once per lane, not per node — so a batch
// over one instance assembles each view once and pays only the
// lane-varying columns per trial. draws carries lane randomness (nil =
// deterministic). Views are batch-owned scratch: valid only for the
// duration of fn, read-only, and released when the pass ends — the
// no-retention invariant of pooled engines.
func (bt *Batch) forEachViewVec(vs *viewSet, k int, hasY bool, draws []localrand.Draw, fn func(b, v int, view *View)) {
	rf := bt.refill
	for b := 0; b < k; b++ {
		rf[b] = colRefill{
			id: b == 0 || !sameColumn(bt.colID[b], bt.colID[b-1]),
			x:  b == 0 || !sameColumn(bt.colX[b], bt.colX[b-1]),
		}
		if hasY {
			rf[b].y = b == 0 || !sameColumn(bt.colY[b], bt.colY[b-1])
		}
	}
	defer func() {
		for v := range vs.views {
			view := &vs.views[v]
			clear(view.X)
			clear(view.Y)
			view.TapeFor = nil
		}
		clear(bt.colID[:k])
		clear(bt.colX[:k])
		clear(bt.colY[:k])
	}()
	parallelFor(len(vs.views), func(v int) {
		view := &vs.views[v]
		nodes := view.Ball.Nodes
		for b := 0; b < k; b++ {
			if rf[b].id {
				id := bt.colID[b]
				for i, u := range nodes {
					view.IDs[i] = id[u]
				}
			}
			if rf[b].x {
				x := bt.colX[b]
				for i, u := range nodes {
					view.X[i] = x[u]
				}
			}
			if rf[b].y {
				y := bt.colY[b]
				for i, u := range nodes {
					view.Y[i] = y[u]
				}
			}
			if draws != nil {
				vs.draws[v] = draws[b]
				// The accessor is the same closure for every lane; writing
				// it once per pass keeps the lane loop free of pointer
				// write barriers.
				if view.TapeFor == nil {
					view.TapeFor = vs.tapeFns[v]
				}
			} else if view.TapeFor != nil {
				view.TapeFor = nil
			}
			fn(b, v, view)
		}
	})
}

// RunView executes one ball-view trial per draw on a shared instance,
// returning lane b's global output at index b. The cached view skeletons
// are assembled once for the whole batch — only the tape binding varies
// per lane — which is where batched ball-view trials beat pooled ones.
// Lane outputs are byte-identical to Engine.RunView at the same draw.
// The returned rows live in the batch's double-buffered view arena:
// valid while the next view pass on this batch runs, overwritten by the
// one after that.
func (bt *Batch) RunView(in *lang.Instance, algo ViewAlgorithm, draws []localrand.Draw) ([][][]byte, error) {
	if err := bt.lanes(len(draws)); err != nil {
		return nil, err
	}
	if err := bt.checkInstance(in); err != nil {
		return nil, err
	}
	return bt.runViewVec(in, nil, len(draws), algo, draws), nil
}

// RunViewInstances is RunView with per-lane instances (all over the
// plan's graph); a nil draws runs every lane deterministically.
func (bt *Batch) RunViewInstances(ins []*lang.Instance, algo ViewAlgorithm, draws []localrand.Draw) ([][][]byte, error) {
	if err := bt.lanes(len(ins)); err != nil {
		return nil, err
	}
	if draws != nil && len(draws) != len(ins) {
		return nil, fmt.Errorf("local: %d draws for %d lanes", len(draws), len(ins))
	}
	for _, in := range ins {
		if err := bt.checkInstance(in); err != nil {
			return nil, err
		}
	}
	return bt.runViewVec(nil, ins, len(ins), algo, draws), nil
}

// runViewVec is the batched ball-view core; the output rows live in the
// batch's double-buffered view arena (zero steady-state allocations per
// pass instead of one per trial), alternating per pass so a pipeline
// can read one pass's outputs while the next runs.
func (bt *Batch) runViewVec(shared *lang.Instance, ins []*lang.Instance, k int, algo ViewAlgorithm, draws []localrand.Draw) [][][]byte {
	vs := bt.viewSetFor(algo.Radius(), false)
	n := len(vs.views)
	ar := &bt.viewOuts[bt.viewFlip]
	bt.viewFlip ^= 1
	slab := sliceFor(ar.slab, k*n)
	ar.slab = slab
	bt.ensureColumns()
	for b := 0; b < k; b++ {
		in := shared
		if in == nil {
			in = ins[b]
		}
		bt.colID[b] = in.ID
		bt.colX[b] = in.X
	}
	bt.forEachViewVec(vs, k, false, draws,
		func(b, v int, view *View) { slab[b*n+v] = algo.Output(view) })
	ys := sliceFor(ar.ys, k)
	ar.ys = ys
	for b := 0; b < k; b++ {
		ys[b] = slab[b*n : (b+1)*n : (b+1)*n]
	}
	return ys
}

// ForEachDecisionViews assembles the radius-t decision views of one
// instance per lane — dis[b] evaluated under draws[b] (nil draws =
// deterministic deciders) — and invokes fn for every (lane, node) pair on
// the worker pool. The usual trial shape shares identities and inputs
// across lanes and varies only the candidate outputs, so the skeletons
// are refilled once and each lane pays only its Y column and tape
// binding. Lane verdictions are identical to Engine.ForEachDecisionView
// with the same (instance, draw). Views are batch-owned scratch: valid
// only for the duration of fn and read-only.
func (bt *Batch) ForEachDecisionViews(dis []*lang.DecisionInstance, radius int, draws []localrand.Draw, fn func(b, v int, view *View)) error {
	if err := bt.lanes(len(dis)); err != nil {
		return err
	}
	if draws != nil && len(draws) != len(dis) {
		return fmt.Errorf("local: %d draws for %d lanes", len(draws), len(dis))
	}
	for _, di := range dis {
		if di.G != bt.plan.g {
			return fmt.Errorf("local: decision instance graph %v is not the batch's plan graph %v", di.G, bt.plan.g)
		}
	}
	bt.ensureColumns()
	for b, di := range dis {
		bt.colID[b] = di.ID
		bt.colX[b] = di.X
		bt.colY[b] = di.Y
	}
	bt.forEachViewVec(bt.viewSetFor(radius, true), len(dis), true, draws, fn)
	return nil
}
