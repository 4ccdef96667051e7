package local

import (
	"fmt"
	"slices"
	"sync/atomic"

	"rlnc/internal/graph"
	"rlnc/internal/ids"
	"rlnc/internal/lang"
	"rlnc/internal/localrand"
)

// Batch is the one execution handle of the package: it executes a vector
// of independent trials of one algorithm through a single engine pass, so
// the per-round scheduling, the CSR reverse-slot gather, the halting
// checks, and the view assembly amortize across the whole vector instead
// of being paid once per trial. Message slabs are structure-of-arrays,
// indexed [slot][lane] (flattened, stride = the batch width B), tape slabs
// hold one row per lane (seeded in one pass by
// localrand.Draw.TapeVecInto), and the cached view skeletons are refilled
// once per batch with only the lane-varying columns (candidate outputs,
// tapes) swapped per trial. A single execution is the B = 1 case of the
// same core (Plan.Run, RunMessage, RunView).
//
// Lanes are independent: lane b behaves byte-identically to a width-1
// batch run of the same (instance, draw) pair — outputs, Stats, and error
// behavior included. That equivalence is the contract Monte-Carlo
// harnesses rely on when they hand each worker a contiguous trial chunk
// (mc.Executor with Batch set) instead of one index at a time. A batch
// built by Plan.NewShardedBatch additionally sends its message runs across
// a Sharded, under the same byte-identity contract.
//
// A Batch is one worker's private scratch: it is NOT safe for concurrent
// use. Concurrency comes from one Batch per worker on a shared Plan.
type Batch struct {
	plan  *Plan
	width int
	// sh, when non-nil, is the sharded executor message runs go across
	// (Plan.NewShardedBatch); every other pass runs on the batch itself.
	sh *Sharded

	// win, when non-nil, makes this batch one shard's compacted window:
	// its wire slabs cover only the shard's own slot range plus the
	// remote halo it reads (graph.ShardSlots), indexed by the window's
	// local slot coordinates — global slot s of the own range lives at
	// local s−slotBase, halo slots after the own range. slotBase is the
	// coordinate shift the passes apply: 0 for a full batch, so the
	// unsharded round loop pays a constant subtract-zero and nothing
	// else. Windowed batches must only ever be driven over the window's
	// node range (the sharded orchestrator does); procs and the lane
	// masks stay globally node-indexed so collection code is shared.
	win      *graph.ShardSlots
	slotBase int
	// sendOff and revTab are the run's slot layout (layoutWire, vec.go):
	// node v stages into local slots [sendOff[v], sendOff[v+1]) and its
	// port p reads local slot revTab[Offsets[v]-slotBase+p]. Edge slots
	// take the topology offsets and RevSlot (a window's Rev on a shard);
	// node slots, the identity 0…n and Nbrs. slots is the local slot
	// count the slabs are sized by.
	sendOff []int32
	revTab  []int32
	slots   int

	// Message-path scratch, recomputed per run (the layout depends on the
	// algorithm's MsgWords) and reallocated only on growth. The wire slabs
	// are the double-buffered send state in [slot][lane] layout: the
	// message lane b sends on directed slot s occupies lens index s*B+b
	// (0 = no message, n+1 = n payload words) and the word range starting
	// at offW[s]*B + capW[s]*b, so one slot's lanes are contiguous and the
	// reverse-slot walk of a delivery is shared by every lane of the
	// batch. Each round steps the kernel over each worker's node range,
	// reading cur and staging into next, and swaps. block is the lane
	// count of one message pass (see msgSlabBudget); slabs are sized and
	// strided by it, and wider lane vectors run in successive blocks.
	block    int
	capW     []int32 // per-slot word capacity, from MsgWords by sender degree
	offW     []int32 // per-slot word offsets (lane-0 base), prefix sums of capW
	totalW   int     // words per lane: offW[last] + capW[last]
	curLens  []int32
	nextLens []int32
	curWords []uint64
	nextWord []uint64
	procs    []WireProcess  // [v*block+b], a ProcessAlgorithm's table
	resets   []ResetProcess // procs' ResetProcess views, filled as created
	// alive is the per-lane liveness the passes read, updated between
	// rounds by its owner: led, this batch's lane ledger, in an unsharded
	// run; on a shard, the handler's own row, which each round command
	// copies the orchestrator's ledger into.
	alive []bool
	led   laneLedger
	// Per-worker, per-lane round counters, which the hot loop fills
	// without atomics. Every round pass leaves its round's counts in its
	// worker's rows — wkMsgs the messages delivered to its nodes, wkFin
	// its newly finished nodes — and the ledger sums the rows after the
	// pass, exactly as the orchestrator sums shard reports. wkStage
	// counts the messages a pass stages (the Outbox stage rows), which
	// the next round pass credits as delivered (see roundPass). The run's
	// worker count is fixed, so each worker index steps the same node
	// range every pass. Per-worker Inbox/Outbox/VecRange scratch (wk)
	// keeps the round loop allocation-free. Every worker's rows and
	// scratch sit on their own cache lines (padRow, workerScratch): the
	// passes write them per node, and workers sharing a line would
	// serialize on it.
	wkStage [][]int64
	wkMsgs  [][]int64
	wkFin   [][]int
	wk      []workerScratch
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
	// dispatch does not allocate a closure; rk/rround/rsrc/rcols carry
	// the pass parameters to them, and rragged is where collecting
	// workers flag an output of another width than the block's. The
	// sharded orchestrator drives the same passes directly over a shard's
	// node range (see sharded.go), which is why the parameters live on
	// the batch rather than in closures. orow is the one-node output scratch
	// of a ragged collect and of outWidth (nodeOutputs).
	roundFn   func(w, vlo, vhi int)
	startFn   func(w, vlo, vhi int)
	collectFn func(w, vlo, vhi int)
	rk        int
	rround    int
	rsrc      laneSrc
	rcols     *outCols
	rragged   atomic.Bool
	orow      [][]byte
	// tapes holds the current block's tape rows, reused across runs.
	tapes []localrand.Tape
	// procAlgo is the algorithm whose process table survives in procs
	// between runs: non-nil only when its processes implement
	// ResetProcess, in which case the start pass resets and reuses them
	// instead of allocating n×lanes fresh processes per trial.
	procAlgo ProcessAlgorithm

	// Stepping state (vec.go, procs.go): kern is the run's kernel, armed
	// once per block by armKernel — the algorithm's own VecAlgorithm, or
	// pk over a ProcessAlgorithm's process table — and every pass hands
	// each worker's node range to it. vstate is a VecAlgorithm's flat
	// [node][word][lane] state slab, vdone each node's finished-lane
	// mask, and vdown the fault pass's per-node crashed-lane masks.
	kern   rangeKernel
	pk     procKernel
	vstate []uint64
	vdone  []uint64
	vdown  []uint64

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

	// View-path scratch: skeleton views keyed by radius, shared by the
	// construction and decision paths (decision views additionally carry
	// the candidate-output column Y), plus the per-lane column tables and
	// refill flags the batched refill resolves once per pass so the hot
	// (lane × node) loop runs without indirect calls.
	viewSets  map[int]*viewSet
	dviewSets map[int]*viewSet
	colID     []ids.Assignment
	colX      [][][]byte
	colY      []lang.Column
	refill    []colRefill
	// viewOuts is the double-buffered view-path output arena (the same
	// alternation contract as the message path's), and viewW the width
	// the next view pass writes its fixed-form outputs at: the width of
	// the previous pass's first output, 1 before any.
	viewOuts arenaPair
	viewW    int
}

// laneSrc supplies the per-lane inputs of one execution vector — lane
// b's instance and the tape of (lane b, node v) — through struct fields
// instead of per-run closures, so binding a run's parameters to the
// batch allocates nothing. Exactly one of shared/ins is set. Randomness
// comes from tapes (row b covers nodes [tlo, tlo+tn), node v at index
// b*tn+(v-tlo) — shard workers hold windowed rows); nil means
// deterministic lanes.
type laneSrc struct {
	shared *lang.Instance   // every lane runs this instance...
	ins    []*lang.Instance // ...or lane b runs ins[b]
	tapes  []localrand.Tape
	tlo    int // first node the tape rows cover
	tn     int // tape row stride (nodes per row)
}

// instance returns lane b's instance.
func (src *laneSrc) instance(b int) *lang.Instance {
	if src.shared != nil {
		return src.shared
	}
	return src.ins[b]
}

// hasTapes reports whether the lanes carry randomness.
func (src *laneSrc) hasTapes() bool { return src.tapes != nil }

// tape returns the tape of (lane b, node v); only called when hasTapes.
func (src *laneSrc) tape(b, v int) *localrand.Tape {
	return &src.tapes[b*src.tn+(v-src.tlo)]
}

// runArena is one buffer of a double-buffered per-run output store: the
// run's output bytes, one column per lane over them, the Result values,
// and the pointer slice handed to the caller.
type runArena struct {
	out  outCols
	cols []lang.Column
	res  []Result
	ptr  []*Result
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

// next returns the buffer the coming run writes, opened for k lanes of
// n nodes, and flips the pair.
func (p *arenaPair) next(k, n int) *runArena {
	ar := &p.buf[p.flip]
	p.flip ^= 1
	ar.out.begin(k, n)
	ar.cols = sliceFor(ar.cols, k)
	ar.res = sliceFor(ar.res, k)
	ar.ptr = sliceFor(ar.ptr, k)
	return ar
}

// colRefill records which of a lane's columns differ from the previous
// lane's (by backing array), i.e. which the per-node refill must rewrite.
type colRefill struct{ id, x, y bool }

// NewBatch returns a fresh batch of the plan with the given width (the
// lane capacity B). Runs may use any 1..width lanes, so ragged tails of a
// trial loop (trials % B != 0) reuse the same batch. Slabs are allocated
// lazily on first use, so view-only batches never pay for message slabs
// and vice versa.
func (p *Plan) NewBatch(width int) *Batch {
	if width < 1 {
		panic(fmt.Sprintf("local: batch width %d, need >= 1", width))
	}
	return &Batch{plan: p, width: width, viewW: 1}
}

// newWindowBatch returns a batch whose wire slabs are compacted to one
// shard's slot window plus its halo. Only the sharded orchestrator and
// the shard-worker protocol build these; they drive the passes strictly
// over the window's node range.
func (p *Plan) newWindowBatch(width int, win *graph.ShardSlots) *Batch {
	bt := p.NewBatch(width)
	bt.win = win
	bt.slotBase = int(win.SlotLo)
	return bt
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
// to a width-1 run with the same draw; errors fail fast, so a lane
// exceeding the round budget aborts its whole vector rather than failing
// alone (the repository's algorithms halt within the budget for every
// draw, making the two behaviors indistinguishable in practice).
// len(draws) may be any 1..Width(). Results live in the batch's
// double-buffered output arena: they stay valid while the next run on
// this batch executes and are overwritten by the run after that.
func (bt *Batch) Run(in *lang.Instance, algo WireAlgorithm, draws []localrand.Draw, opts RunOptions) ([]*Result, error) {
	return bt.runVector(in, nil, algo, draws, opts)
}

// RunInstances is Run with per-lane instances (all over the plan's graph):
// lane b executes ins[b] under draws[b]. A nil draws runs every lane
// deterministically; otherwise len(draws) must equal len(ins). Pipelines
// use this form — after the first stage, each lane carries its own inputs.
func (bt *Batch) RunInstances(ins []*lang.Instance, algo WireAlgorithm, draws []localrand.Draw, opts RunOptions) ([]*Result, error) {
	return bt.runVector(nil, ins, algo, draws, opts)
}

// runVector runs a lane vector of Run's (in) or RunInstances' (ins)
// form: across the sharded executor when it carries algo, on the batch
// itself otherwise.
func (bt *Batch) runVector(in *lang.Instance, ins []*lang.Instance, algo WireAlgorithm, draws []localrand.Draw, opts RunOptions) ([]*Result, error) {
	if bt.sh != nil && bt.sh.carries(algo) {
		return bt.sh.runVector(in, ins, algo, draws, opts)
	}
	src, k, err := bt.laneVector(in, ins, draws)
	if err != nil {
		return nil, err
	}
	return bt.runLanes(src, k, algo, draws, opts)
}

// laneVector validates a lane vector against the batch — every lane on
// in, one lane per draw; or lane b on ins[b], with nil draws or one per
// lane — and returns its lane source and lane count.
func (bt *Batch) laneVector(in *lang.Instance, ins []*lang.Instance, draws []localrand.Draw) (laneSrc, int, error) {
	src, k := laneSrc{ins: ins}, len(ins)
	if in != nil {
		src, k = laneSrc{shared: in}, len(draws)
	}
	if err := bt.lanes(k); err != nil {
		return src, 0, err
	}
	if draws != nil && len(draws) != k {
		return src, 0, fmt.Errorf("local: %d draws for %d lanes", len(draws), k)
	}
	for b := 0; b < k; b++ {
		if err := bt.checkInstance(src.instance(b)); err != nil {
			return src, 0, err
		}
	}
	return src, k, nil
}

// runWithTapes runs one lane with an explicit per-node tape source (nil
// for deterministic executions) addressed by node index; the
// ball-simulation adapter threads view tapes through it (tapeSrc).
// The result lives in the batch's output arena, like Run's.
func (bt *Batch) runWithTapes(in *lang.Instance, algo WireAlgorithm, tapeOf func(v int) *localrand.Tape, opts RunOptions) (*Result, error) {
	if err := bt.checkInstance(in); err != nil {
		return nil, err
	}
	res, err := bt.runLanes(bt.tapeSrc(in, tapeOf), 1, algo, nil, opts)
	if err != nil {
		return nil, err
	}
	return res[0], nil
}

// startOutput returns node v's output after a one-lane start pass of wa
// over node v alone, under runWithTapes' tape source: the output of a
// zero-round algorithm, fixed before any message is delivered. The
// output is valid after the batch runs again.
func (bt *Batch) startOutput(in *lang.Instance, wa WireAlgorithm, tapeOf func(v int) *localrand.Tape, v int) ([]byte, error) {
	if err := bt.checkInstance(in); err != nil {
		return nil, err
	}
	if err := bt.layoutWire(wa, nil); err != nil {
		return nil, err
	}
	defer bt.endRun()
	bt.beginPass(bt.tapeSrc(in, tapeOf), 1, wa, nil, nil, []bool{true}, 1)
	bt.startPass(0, v, v+1)
	return bt.nodeOutput(v), nil
}

// tapeSrc is the one-lane source of in whose tapes are copies of
// tapeOf's (nil: deterministic), taken once per run into the batch's
// tape rows: a tapeOf may hand out a rewound tape on every call, while
// a run draws each node's tape on from where its last round stopped.
func (bt *Batch) tapeSrc(in *lang.Instance, tapeOf func(v int) *localrand.Tape) laneSrc {
	src := laneSrc{shared: in}
	if tapeOf == nil {
		return src
	}
	n := in.G.N()
	bt.tapes = sliceFor(bt.tapes, n)
	for v := range bt.tapes {
		bt.tapes[v] = *tapeOf(v)
	}
	src.tapes, src.tlo, src.tn = bt.tapes, 0, n
	return src
}

// runLanes runs a lane vector of wa on the batch itself: the shared
// block loop (laneLedger.runBlocks) under the current slab layout, one
// unsharded round loop per block.
func (bt *Batch) runLanes(all laneSrc, k int, wa WireAlgorithm, draws []localrand.Draw, opts RunOptions) ([]*Result, error) {
	if err := bt.layoutWire(wa, effectiveFault(opts, bt.defFault)); err != nil {
		return nil, err
	}
	n := bt.plan.g.N()
	return bt.led.runBlocks(n, bt.block, all, k, draws,
		func(src laneSrc, k int, draws []localrand.Draw, out *outCols) error {
			bt.tapes = seedTapes(bt.tapes, 0, n, draws, &src)
			return bt.runVec(src, k, wa, draws, opts, out)
		})
}

// msgSlabBudget bounds the bytes the two send slabs of one message pass
// may occupy. SoA lanes amortize per-round scheduling, but a round loop
// streams both slabs every round, so the slabs must stay cache-resident
// for the batch to win; lane vectors wider than the budget's block run in
// successive full passes (lanes are independent, so the results are
// identical either way). A slot-lane costs 2×(8·words + 4) bytes — 24
// bytes for the one-word retry coloring of E2. On node slots (vec.go) a
// ring C_n has n slots, so 24n bytes per lane and 2^20 / (24n) lanes per
// pass: 32 (the whole vector) at n = 600, 18 at 2400, 9 at 4800, 4 at
// 9600, and 1 from n ≈ 22k up. On edge slots (an armed fault plan, a
// shard window) it has 2n slots, 48n bytes per lane, and half those
// lanes: 9 at 2400, 4 at 4800, 2 at 9600. Node slots measured on
// mc-slack-sweep (seed 1, ten alternating 30 s pairs against edge slots
// with per-entry output collection, same 2-core Xeon): wall_s 0.360 →
// 0.277 s median, peak_rss_mb 29.2 → 23.9 MB, better in 10/10 pairs.
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
// time (1.31 and 1.34 s) with 4 MB about 10 MB heavier. 1 MB is the
// smallest budget that reaches the larger budgets' speed. One-word
// kernel rows kept the bytes per slot-lane; re-measured with them (seed
// 1, two 10 s runs each, wall_s 0.52–0.61 s for all), peak RSS was
// 26.9–27.5 MB at 1 MB, 35.5–36.0 MB at 4 MB and 89.6–89.9 MB at 16 MB.
const msgSlabBudget = 1 << 20

// layoutWire refuses what the engine cannot step — an algorithm stepping
// both ways or neither (checkStepping), or a VecAlgorithm whose MsgWords
// is not 1 at some slot of the layout (vec.go) — and computes the wire
// slab layout of one algorithm run under the given fault plan: the slot
// tables (node slots for a VecAlgorithm on an unwindowed batch with no
// armed plan, edge slots otherwise — vec.go), per-slot word capacities
// (MsgWords of the sender's degree), their prefix offsets, and the lane
// count of one message pass under msgSlabBudget. Slices are reused
// across runs; recomputing is O(slots) and allocation-free once grown.
func (bt *Batch) layoutWire(wa WireAlgorithm, fault *FaultPlan) error {
	if err := checkStepping(wa); err != nil {
		return err
	}
	topo := bt.plan.topo
	_, vec := wa.(VecAlgorithm)
	vlo, vhi := 0, topo.NumNodes()
	switch {
	case bt.win != nil:
		vlo, vhi = bt.win.NodeLo, bt.win.NodeHi
		bt.sendOff, bt.revTab, bt.slots = topo.Offsets, bt.win.Rev, bt.win.NumLocal()
	case vec && !fault.Enabled():
		bt.sendOff, bt.revTab, bt.slots = bt.plan.nodeSlots(), topo.Nbrs, vhi
	default:
		bt.sendOff, bt.revTab, bt.slots = topo.Offsets, topo.RevSlot, topo.NumSlots()
	}
	bt.capW = sliceFor(bt.capW, bt.slots)
	bt.offW = sliceFor(bt.offW, bt.slots)
	total := 0
	for v := vlo; v < vhi; v++ {
		// An isolated node sends nothing: it has no edge slot, and its
		// node slot holds one word that nothing writes or reads.
		w := 1
		if deg := topo.Degree(v); deg > 0 {
			w = wa.MsgWords(deg)
			if w < 0 {
				panic(fmt.Sprintf("local: %s.MsgWords(%d) = %d, need >= 0", wa.Name(), deg, w))
			}
		}
		for s := int(bt.sendOff[v]); s < int(bt.sendOff[v+1]); s++ {
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
	block := bt.width
	if perLane := bt.slabBytesPerLane(); perLane > 0 {
		block = msgSlabBudget / perLane
	}
	bt.block = min(max(block, 1), bt.width, maxBlock)
	if vec && slices.ContainsFunc(bt.capW, func(w int32) bool { return w != 1 }) {
		return fmt.Errorf("local: %s is a VecAlgorithm whose MsgWords is not 1; range kernels send one-word messages", wa.Name())
	}
	return nil
}

// maxBlock caps the lanes of one message pass at one uint64 lane mask
// (the kernels' done and crash masks). Lanes are independent, so a
// wider vector running in 64-lane blocks changes no output.
const maxBlock = 64

// SlabBytesFor reports the byte footprint of the double-buffered wire
// slabs one pass of algo streams on this batch — the memory a shard (or
// an unsharded batch) actually pays per lane block under its current
// slot space, with the batch's default fault plan armed. It computes the
// algorithm's layout as a side effect, like a run would. The sharded
// compaction gate compares per-shard windows against the full batch
// through it.
func (bt *Batch) SlabBytesFor(algo WireAlgorithm) int {
	_ = bt.layoutWire(algo, bt.defFault) // a refused kernel's layout is complete too
	return bt.slabBytesPerLane() * bt.block
}

// slabBytesPerLane is the bytes one lane adds to a pass under the
// current layout: both double-buffered slabs count.
func (bt *Batch) slabBytesPerLane() int {
	return 2 * (8*bt.totalW + 4*bt.slots)
}

// msgLanesFor returns the lane count of one message pass of algo — how
// many lanes of a wide vector share one round loop before the slab
// budget forces a new pass — with the batch's default fault plan armed.
func (bt *Batch) msgLanesFor(algo WireAlgorithm) int {
	_ = bt.layoutWire(algo, bt.defFault) // as SlabBytesFor
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

// runVec is the unsharded round loop of one lane block: the start pass,
// then one round pass per round across the run's workers, each pass's
// worker rows summed into the batch's lane ledger, then the output
// gather into the block of out (collect). src supplies
// lane instances and tapes (the caller has validated all lanes against
// the plan), draws carries the lanes' draw identities (read only by the
// fault seam; nil for deterministic lanes), and wa's slab layout must be
// current on this batch (layoutWire). Algorithms stage fixed-width words
// straight into the send slabs and the steady-state round costs zero
// allocations.
func (bt *Batch) runVec(src laneSrc, k int, wa WireAlgorithm, draws []localrand.Draw, opts RunOptions, out *outCols) error {
	n := bt.plan.g.N()
	led := &bt.led
	led.begin(k, n, opts)
	// The worker count is fixed for the whole run: the worker rows and
	// scratch are sized by it, and a worker index must step the same
	// node range every pass whatever GOMAXPROCS does meanwhile.
	workers := maxWorkers(n)
	// endRun drops references into algorithm state when the run ends —
	// on the error paths too — so a pooled batch never keeps a previous
	// execution's processes alive.
	defer bt.endRun()
	bt.beginPass(src, k, wa, draws, effectiveFault(opts, bt.defFault), led.alive, workers)
	if bt.roundFn == nil {
		// Bind the method values once; rebuilding them per pass would
		// allocate a closure in the hot loop.
		bt.startFn, bt.roundFn, bt.collectFn = bt.startPass, bt.roundPass, bt.collectPass
	}
	parallelChunks(n, workers, bt.startFn)
	for round := 1; ; round++ {
		if err := led.admit(round); err != nil {
			return err
		}
		bt.rround = round
		parallelChunks(n, workers, bt.roundFn)
		bt.curLens, bt.nextLens = bt.nextLens, bt.curLens
		bt.curWords, bt.nextWord = bt.nextWord, bt.curWords
		for w := 0; w < workers; w++ {
			led.add(bt.wkMsgs[w], bt.wkFin[w])
		}
		if led.endRound(round) {
			break
		}
	}
	bt.collect(out, workers)
	return nil
}

// beginPass stands one lane block of wa up on the batch. It is the one
// pass setup of every execution shape: the unsharded round loop (over
// `workers` workers), an in-process shard and a shard-worker process
// (one worker each, over the shard's node window). It arms the stepping
// path and the fault plan, sizes the slabs and the workers' scratch,
// zeroes their counter rows — a previous run's final-round stage counts
// must not replay into this one — points the passes at alive, the
// ledger's lane liveness, and binds the pass parameters.
func (bt *Batch) beginPass(src laneSrc, k int, wa WireAlgorithm, draws []localrand.Draw, fault *FaultPlan, alive []bool, workers int) {
	bt.armKernel(wa)
	bt.installFault(fault, draws, k)
	bt.ensureWireState()
	for len(bt.wkMsgs) < workers {
		bt.wkStage = append(bt.wkStage, padRow[int64](bt.width))
		bt.wkMsgs = append(bt.wkMsgs, padRow[int64](bt.width))
		bt.wkFin = append(bt.wkFin, padRow[int](bt.width))
		bt.wkDel = append(bt.wkDel, padRow[int32](bt.width))
		bt.wkDown = append(bt.wkDown, padRow[bool](bt.width))
	}
	if len(bt.wk) < workers {
		bt.wk = sliceFor(bt.wk, workers)
	}
	for w := 0; w < workers; w++ {
		clear(bt.wkStage[w])
		clear(bt.wkMsgs[w])
		clear(bt.wkFin[w])
	}
	bt.alive = alive
	bt.preparePools()
	bt.rk, bt.rsrc = k, src
}

// endRun is the cleanup of every execution shape's run: it drops
// references into algorithm state so a pooled batch never keeps a
// previous execution's processes alive. The process table is the one
// deliberate exception: when the algorithm's processes implement
// ResetProcess the table is kept and reset in place next run. (The
// output arena is the other intended survivor — its retention contract
// is the documented double-buffer alternation; a kernel's state slab
// holds no pointers at all.)
func (bt *Batch) endRun() {
	if bt.procAlgo == nil {
		clear(bt.procs)
		clear(bt.resets)
	}
	bt.rsrc = laneSrc{}
	bt.rcols = nil
	bt.kern, bt.pk.pa = nil, nil
}

// collect gathers the block's k lanes of outputs into out on the run's
// workers. The block opens in fixed form at the width of lane 0's first
// output; if any worker meets another width, the block is refilled in
// offsets form on one worker.
func (bt *Batch) collect(out *outCols, workers int) {
	n := bt.plan.g.N()
	out.fixed(bt.rk, bt.outWidth(0, n))
	bt.rcols = out
	bt.rragged.Store(false)
	parallelChunks(n, workers, bt.collectFn)
	if bt.rragged.Load() {
		out.ragged()
		bt.collectRange(0, 0, n, out, n, 0)
	}
}

// collectPass is one worker's share of the output gather into rcols.
func (bt *Batch) collectPass(w, vlo, vhi int) {
	if !bt.collectRange(w, vlo, vhi, bt.rcols, bt.plan.g.N(), 0) {
		bt.rragged.Store(true)
	}
}

// outWidth returns the width of lane 0's output at node vlo, the width
// a collect of nodes [vlo, vhi) opens its fixed-form block at (0 for an
// empty range).
func (bt *Batch) outWidth(vlo, vhi int) int {
	if vlo == vhi {
		return 0
	}
	return len(bt.nodeOutput(vlo))
}

// nodeOutput returns lane 0's output at node v.
func (bt *Batch) nodeOutput(v int) []byte {
	y := bt.nodeOutputs(0, v)[0]
	clear(bt.orow)
	return y
}

// nodeOutputs returns the run's k lane outputs at node v, lane b's at
// index b: the kernel's OutputVec on worker w over the one-node range
// [v, v+1), into the batch's orow scratch, which the caller clears once
// it is read.
func (bt *Batch) nodeOutputs(w, v int) [][]byte {
	bt.orow = sliceFor(bt.orow, bt.rk)
	r := bt.bindRange(w, v, v+1, bt.curLens, bt.curWords)
	r.orows, r.ow, r.ostride, r.ooff = bt.orow, -1, 1, v
	bt.kern.OutputVec(r)
	return bt.orow
}

// collectRange gathers the outputs of nodes [vlo, vhi) of the run's k
// lanes into out's open block, entry (b, v) at block index
// b*stride+v-off. It is the shared collection of the unsharded pass
// (worker w), an in-process shard and a shard-worker process (worker 0
// over the shard's window). In fixed form the kernel writes the bytes in
// place (VecRange.Output), and collectRange reports false, leaving the
// block unfinished, at the first output of another width. In offsets
// form it collects node by node, in two sweeps — every entry's width,
// then its bytes — so it must then cover the block's whole node range
// in one call.
func (bt *Batch) collectRange(w, vlo, vhi int, out *outCols, stride, off int) bool {
	if out.w < 0 {
		for v := vlo; v < vhi; v++ {
			for b, y := range bt.nodeOutputs(w, v) {
				out.size(b*stride+v-off, len(y))
			}
		}
		out.sized(bt.rk * stride)
		for v := vlo; v < vhi; v++ {
			for b, y := range bt.nodeOutputs(w, v) {
				out.place(b*stride+v-off, y)
			}
		}
		clear(bt.orow)
		return true
	}
	r := bt.bindRange(w, vlo, vhi, bt.curLens, bt.curWords)
	r.ofix, r.ow, r.ostride, r.ooff = out.fix, out.w, stride, off
	return bt.kern.OutputVec(r)
}

// startPass is one worker's share of the init + round-1 staging: one
// contiguous clear of the range's send state — the range's outgoing
// slots are consecutive, so the whole [lo*B, hi*B) window is ONE clear
// (lanes ≥ k are unused capacity nobody ever reads, so clearing the
// full block width is output-invisible and lets the clear run at memclr
// bandwidth) — and of its finished-lane masks, then one StartVec call
// that initializes and stages every node and lane of the range into the
// cur slabs. Pass parameters arrive via rk/rsrc, exactly like
// roundPass's.
func (bt *Batch) startPass(w, vlo, vhi int) {
	lo, hi := bt.rangeSlots(vlo, vhi)
	clear(bt.curLens[lo*bt.block : hi*bt.block])
	clear(bt.vdone[vlo:vhi])
	bt.kern.StartVec(bt.bindRange(w, vlo, vhi, bt.curLens, bt.curWords))
}

// roundPass is one worker's share of one round, fused deliver + step:
// the message lane b's node v sent on port p arrives across the edge at
// the reverse slot, and the kernel reads payload words from cur in place
// — no receive copy at all. The range's outgoing slots clear in one go
// (next still holds the sends of two rounds ago; dead lanes and the
// unused capacity lanes ≥ k clear along with the live ones, their stale
// state never read), then one StepVec call steps the range, staging into
// next and counting the stages as they happen. Finished nodes still
// receive but stage nothing; a dead lane's nodes are all finished, so
// VecRange.Active is the whole liveness check. Message and halting
// counters accumulate into worker-indexed rows that the lane ledger sums
// after the pass, so the hot loop carries no atomics — and no
// allocations.
//
// Message accounting is sender-side: every staged message is read by
// exactly one receiver the next round, so what this worker's nodes staged
// last pass is what this round delivers, and the pass opens by moving its
// stage row into its delivered row — which removes the per-round
// arrival-count walk over the RevSlot window entirely. Only live lanes
// are credited: a lane that finished last round counts no arrivals, and
// its final-round stages are never delivered. Shard partials differ from
// receiver-side ones (a cut message counts at its sender's shard), but
// the ledger only ever sums the rows.
//
// An armed fault plan runs faultPass (fault.go) between the clear and
// the step: it applies the plan receiver-side to the range's arrivals
// (suppression makes staged ≠ delivered, so it recounts them) and arms
// the range's crash masks; a fault-free run pays exactly one
// predictable nil check there and nothing else.
func (bt *Batch) roundPass(w, vlo, vhi int) {
	k := bt.rk
	msgRow, stRow, finRow := bt.wkMsgs[w][:k], bt.wkStage[w][:k], bt.wkFin[w][:k]
	for b := range msgRow {
		msgRow[b] = 0
		if bt.alive[b] {
			msgRow[b] = stRow[b]
		}
	}
	clear(stRow)
	clear(finRow)
	lo, hi := bt.rangeSlots(vlo, vhi)
	clear(bt.nextLens[lo*bt.block : hi*bt.block])
	r := bt.bindRange(w, vlo, vhi, bt.nextLens, bt.nextWord)
	if bt.fault != nil {
		bt.faultPass(w, r)
	}
	bt.kern.StepVec(r, bt.rround)
}

// ensureWireState sizes the round-loop slabs for the current layout,
// reusing backing arrays across runs; steady-state reuse (same algorithm
// layout, any lane count) allocates nothing.
func (bt *Batch) ensureWireState() {
	n := bt.plan.g.N()
	slots := bt.slots
	B := bt.block
	bt.curLens = sliceFor(bt.curLens, slots*B)
	bt.nextLens = sliceFor(bt.nextLens, slots*B)
	bt.curWords = sliceFor(bt.curWords, bt.totalW*B)
	bt.nextWord = sliceFor(bt.nextWord, bt.totalW*B)
	bt.ensureHeldSlabs(slots, B)
	bt.vstate = sliceFor(bt.vstate, n*bt.kern.VecWords()*B)
	bt.vdone = sliceFor(bt.vdone, n)
	if bt.fault != nil {
		bt.vdown = sliceFor(bt.vdown, n)
	}
	// Only a ProcessAlgorithm has a process table: a kernel pass never
	// touches the n×B process objects.
	if bt.pk.pa != nil {
		bt.procs = sliceFor(bt.procs, n*B)
		bt.resets = sliceFor(bt.resets, n*B)
	}
}

// cacheLinePad is the byte distance that keeps two workers' scratch off
// each other's cache lines: two 64-byte lines, because the adjacent-line
// prefetcher of common x86 cores fetches lines in pairs.
const cacheLinePad = 128

// padRow returns a zeroed width-element per-worker row whose backing
// array runs cacheLinePad elements (at least as many bytes) past the
// row, so no other worker's row can share its last cache line.
func padRow[T any](width int) []T { return make([]T, width, width+cacheLinePad) }

// workerScratch is one worker's kernel range and the in/outbox it binds
// for a process kernel, padded so consecutive workers' entries never
// share a cache line.
type workerScratch struct {
	in  Inbox
	out Outbox
	vr  VecRange
	_   [cacheLinePad]byte
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
		bt.colY = make([]lang.Column, bt.width)
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
// no-retention invariant of pooled batches.
func (bt *Batch) forEachViewVec(vs *viewSet, k int, hasY bool, draws []localrand.Draw, fn func(b, v int, view *View)) {
	rf := bt.refill
	for b := 0; b < k; b++ {
		rf[b] = colRefill{
			id: b == 0 || !sameColumn(bt.colID[b], bt.colID[b-1]),
			x:  b == 0 || !sameColumn(bt.colX[b], bt.colX[b-1]),
		}
		if hasY {
			rf[b].y = b == 0 || !bt.colY[b].Shares(bt.colY[b-1])
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
					view.Y[i] = y.At(u)
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
// returning lane b's output column at index b. The cached view skeletons
// are assembled once for the whole batch — only the tape binding varies
// per lane — which is where batched ball-view trials beat pooled ones.
// Lane outputs are byte-identical to a width-1 RunView at the same draw.
// The returned columns live in the batch's double-buffered view arena:
// valid while the next view pass on this batch runs, overwritten by the
// one after that.
func (bt *Batch) RunView(in *lang.Instance, algo ViewAlgorithm, draws []localrand.Draw) ([]lang.Column, error) {
	src, k, err := bt.laneVector(in, nil, draws)
	if err != nil {
		return nil, err
	}
	return bt.runViewVec(&src, k, algo, draws), nil
}

// RunViewInstances is RunView with per-lane instances (all over the
// plan's graph); a nil draws runs every lane deterministically.
func (bt *Batch) RunViewInstances(ins []*lang.Instance, algo ViewAlgorithm, draws []localrand.Draw) ([]lang.Column, error) {
	src, k, err := bt.laneVector(nil, ins, draws)
	if err != nil {
		return nil, err
	}
	return bt.runViewVec(&src, k, algo, draws), nil
}

// runViewVec is the batched ball-view core. Outputs land in the batch's
// double-buffered view arena, one column per lane (zero steady-state
// allocations per pass), alternating per pass so a pipeline can read
// one pass's outputs while the next runs. The pass writes fixed-form
// bytes at viewW; an output of another width reruns the pass in offsets
// form. Views are read-only and an algorithm's output is a function of
// its view, so the rerun reproduces every output.
func (bt *Batch) runViewVec(src *laneSrc, k int, algo ViewAlgorithm, draws []localrand.Draw) []lang.Column {
	vs := bt.viewSetFor(algo.Radius(), false)
	n := len(vs.views)
	ar := bt.viewOuts.next(k, n)
	out := &ar.out
	out.fixed(k, bt.viewW)
	bt.rragged.Store(false)
	bt.stageViewLanes(src, k)
	bt.forEachViewVec(vs, k, false, draws, func(b, v int, view *View) {
		if !out.put(b*n+v, algo.Output(view)) {
			bt.rragged.Store(true)
		}
	})
	if bt.rragged.Load() {
		rows := make([][]byte, k*n)
		bt.stageViewLanes(src, k)
		bt.forEachViewVec(vs, k, false, draws,
			func(b, v int, view *View) { rows[b*n+v] = algo.Output(view) })
		out.ragged()
		for _, y := range rows {
			out.add(y)
		}
		if len(rows) > 0 {
			bt.viewW = len(rows[0])
		}
	}
	out.seal(ar.cols)
	return ar.cols
}

// stageViewLanes points the view refill's per-lane identity and input
// columns at src's first k lane instances.
func (bt *Batch) stageViewLanes(src *laneSrc, k int) {
	bt.ensureColumns()
	for b := 0; b < k; b++ {
		in := src.instance(b)
		bt.colID[b] = in.ID
		bt.colX[b] = in.X
	}
}

// ForEachDecisionViews assembles the radius-t decision views of one
// instance per lane — dis[b] evaluated under draws[b] (nil draws =
// deterministic deciders) — and invokes fn for every (lane, node) pair on
// the worker pool. The usual trial shape shares identities and inputs
// across lanes and varies only the candidate outputs, so the skeletons
// are refilled once and each lane pays only its Y column and tape
// binding. It is the one assembly path of decision views; a width-1
// batch serves single-trial callers. Views are batch-owned scratch:
// valid only for the duration of fn and read-only.
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
