// Package local implements the LOCAL model of the paper (§2.1): synchronous
// rounds in which every node sends messages to its neighbors, receives
// theirs, and computes; no bounds on message size or local computation.
//
// Two equivalent programming interfaces are provided, mirroring the
// simulation argument of §2.1.1:
//
//   - the message-passing interface runs an explicit round loop with one
//     goroutine per batch of nodes. Its native form is the wire-format
//     interface (WireProcess/WireAlgorithm, wire.go): messages are
//     fixed-width 64-bit words written straight into the engine's send
//     slabs, so a round allocates nothing. The legacy boxed interface
//     (Process/MessageAlgorithm) remains as a compatibility layer — a
//     boxing shim runs legacy Processes on the same round loop with
//     payloads carried by reference, and NewLegacyProcess runs a
//     WireAlgorithm through the legacy API — with byte-identical outputs
//     and Stats on every transport;
//   - the ball-view interface (ViewAlgorithm) computes each node's output
//     directly as a function of its ball B_G(v,t).
//
// The adapters FullInfo (view algorithm → t-round message algorithm,
// exact) and MessageAsView (t-round message algorithm → view algorithm of
// radius t+1, exact) witness the equivalence; see adapter.go.
//
// Both interfaces execute through a four-level layering:
//
//   - Plan (plan.go) is the reusable, concurrency-safe layout of one
//     graph: the CSR-flattened adjacency, the reverse-port delivery
//     table, and per-graph caches that depend only on topology (balls by
//     radius, BFS distance columns by source). Build one Plan per
//     instance and share it across workers.
//   - Batch (batch.go) is one worker's vectorized execution scratch: it
//     runs a vector of independent trials through a single pass, with
//     structure-of-arrays message slabs indexed [slot][lane] (see "Slab
//     layout" below) and cached view skeletons refilled once per pass,
//     so the round scheduling, the reverse-slot gather, the halting
//     checks, and the view assembly amortize across the whole vector.
//     Lane b is byte-identical to a lone execution of the same
//     (instance, draw). Algorithms whose processes implement
//     ResetProcess additionally have their per-(node, lane) process
//     table pooled across back-to-back runs.
//   - Engine (plan.go) is the one-lane case of the same core: a Batch of
//     width 1 with scalar wrappers. RunView and RunMessage are
//     single-shot wrappers building a transient Engine.
//   - Sharded (sharded.go) is the multi-machine shape of the message
//     path: the plan's CSR layout is partitioned into contiguous node
//     ranges (a shard boundary is a cut in Topology.Offsets), and each
//     shard runs the full lane vector over its range with the same
//     startPass/roundPass core on a *compacted window* — its slabs cover
//     only its own slot range plus the remote halo it reads, via the
//     per-shard global→local remap of graph.ShardSlots, so per-shard
//     slab memory scales with the shard, not the graph (the
//     TestShardSlabCompaction gate pins ≥40% savings at 4 balanced
//     shards). Cross-shard RevSlot deliveries are resolved once per
//     round by exchanging the cut slots' contiguous [slot][lane]
//     lens+words blocks over ShardLinks. Three transports implement the
//     seam: in-process one-slot channels (sharded.go; zero-copy, with a
//     deadline backstop), framed byte streams over any net.Conn
//     (codec.go + transport.go: a versioned little-endian frame per
//     round per cut pair, loopback-TCP LinkFactory included, per-link
//     read/write deadlines), and the shard-worker protocol (remote.go +
//     worker.go: each shard is a real OS process — `rlnc shard-worker` —
//     receiving its job over a gob control stream and exchanging cut
//     blocks peer-to-peer over TCP). Every lane is byte-identical
//     (outputs, Stats, errors) to the unsharded Batch at equal seeds,
//     for every shard count, cut placement, and transport;
//     internal/shardtest enforces the contract differentially, TCP
//     links included.
//
// # Slab layout and the slot-major round kernel
//
// The wire slabs are structure-of-arrays over directed CSR slots with
// the lane as the minor axis. For a batch of width B, slot s's length
// code for lane b sits at lens[s*B+b] (0 = no message, n+1 = n payload
// words) and its payload words at words[offW[s]*B + capW[s]*b ...],
// where capW[s] is the slot's fixed word capacity and offW is its
// prefix sum. A slot belongs to its SENDER: a node's Outbox writes its
// own contiguous slot window [lo, hi), and receivers read through the
// plan's reverse-slot table. That ownership is what makes the round
// kernel slot-major: one pass walks each node's window once, clears the
// next-round lens range with a single contiguous clear — (hi-lo)·B
// adjacent entries, not B strided walks — then steps the node's live
// lanes in place. The same contiguity powers the sharded cut exchange:
// at full lane blocks (k == B), packCut flattens a maximal run of
// consecutive cut slots into one dense lens copy and one dense word
// copy, and installCut writes a peer's whole halo segment the same way
// (after value-level lens validation — byte-stream peers can send
// anything).
//
// Message accounting is sender-side on the fault-free path: delivered
// messages of round r are exactly the messages staged in round r-1, so
// the Outbox counts 0→staged lens transitions per lane as they happen
// and the kernel credits the previous pass's counts to lanes still
// alive at delivery time — no receiver-side lens walk. The fault pass
// keeps receiver-side counting, because suppression and delay make
// staged ≠ delivered there.
//
// Per-run outputs land in double-buffered arenas (per-node output
// encodings and the Result vector alternate between two buffers), so a
// warm Batch runs a full trial with zero allocations; the width-1
// Engine instead returns freshly allocated, caller-owned Result and
// output slices — exactly two allocations — because its callers may
// retain results indefinitely. alloc_test.go pins both floors.
//
// # Lane-vectorized stepping
//
// A WireAlgorithm may additionally implement VecAlgorithm (vec.go): one
// VecProcess instance then owns a node's state for ALL lanes of the
// batch as struct-of-arrays, and the round kernel makes a single
// StartVec/StepVec call per node per pass instead of B scalar calls.
// InboxVec and OutboxVec expose the slabs lane-major — per-port
// contiguous lens rows (LensRow) and per-slot word blocks with their
// lane stride (WordBlock), plus row-staging verbs (SignalRow,
// BroadcastRow, BroadcastRow2) — so the port→slot lookup, base-offset
// arithmetic, and decode validation hoist out of the per-lane loop and
// the inner loop walks the adjacent memory the slot-major layout
// already provides. A pass dispatches to the vector path when the
// algorithm implements VecAlgorithm on the wire (non-boxed) path and the
// pass has two or more lanes; the scalar per-lane path steps every
// one-lane pass (the Engine case included), and ScalarOnly wraps an
// algorithm to force it — the differential suites pin both paths
// byte-identical.
//
// The VecProcess contract mirrors the scalar one per lane, with three
// SoA-specific rules. State rule: all per-lane state lives in slices
// the process sizes to VecNodeInfo.Lanes (resized, never reallocated
// per pass when capacity suffices), and a process implementing
// ResetVecProcess is pooled per NODE across back-to-back runs exactly
// like ResetProcess tables — TestVecAllocFloors pins the warm vec trial
// at zero allocations, fault plans included. Mask rule: StepVec acts
// only for lanes with done[b] false and Mask()[b] false (a nil mask
// means all lanes live); the mask is how crashed and finalized lanes
// are frozen under faults, so a vec process must neither read arrivals
// for nor stage messages from a masked lane, and it signals halting by
// setting done[b] itself. Aliasing rule: everything InboxVec hands over
// is engine-owned scratch valid only during the call, like the scalar
// Inbox; lens rows and word blocks are read-only views of the live
// slabs.
//
// # Fault injection
//
// Faults are a first-class engine seam (fault.go): a FaultPlan is a
// seeded schedule of per-round message drops and one-round delays, node
// crashes with optional recovery windows, and mid-run topology surgery
// (EdgeCut; CutForSubdivision pairs a cut with its twice-subdivided
// comparison graph). A plan is armed durably with SetFault — on an
// Engine, a Batch, or a Sharded, which propagates it to every shard and
// its companion batch — or per run through RunOptions.Fault. The
// implementation lives once in the shared round core: an armed batch
// routes roundPass through its fault sibling, which suppresses or holds
// receive slots and freezes crashed lanes' nodes before the delivered
// counts are taken, so Engine, Batch, Sharded, and the remote
// shard-worker path (the plan ships inside the job spec) all honor the
// same plan byte-identically. Fault decisions come from a dedicated
// fault tape keyed by shape-invariant coordinates — (round, global
// directed slot, per-lane fault identity) — never from the algorithm's
// tapes, so arming a plan perturbs no algorithmic randomness, faulty
// runs are exactly reproducible, and per-lane outputs are byte-identical
// across batch widths, shard counts, and transports (the faulty half of
// internal/shardtest pins this differentially). A nil or zero plan takes
// the fault path nowhere and reproduces fault-free runs bit for bit at
// zero cost.
//
// Monte-Carlo trial loops hold a Plan and give each worker its own Batch
// (mc.Executor with a Batch width hands workers contiguous trial
// chunks), Engine (width 1, one index at a time), or Sharded (Shards > 0
// hands chunks to shard groups), which removes all steady-state
// allocations from the trial loop; the Executor's Fault option arms a
// FaultPlan on every worker's executor.
//
// Everything an Engine or Batch passes to algorithm code is
// engine-owned scratch with a uniform contract: the received slice of
// Process.Step, assembled Views (and their LabeledBall reinterpretation),
// and the tapes returned by View.TapeFor are valid only for the duration
// of the call that hands them over, must be treated as read-only, and are
// reused or released when the pass ends — algorithms copy whatever they
// want to keep. Message payloads themselves and returned output strings
// are never reused by the engine; conversely, shared encodings such as
// lang.EncodeColor return read-only storage. These invariants are what
// let pooled and batched executions drop every reference to a previous
// trial's state while allocating nothing per round.
package local

import (
	"rlnc/internal/graph"
	"rlnc/internal/lang"
	"rlnc/internal/localrand"
)

// View is everything a node may base its output on in the ball-view
// formulation: the ball B_G(v,t) with inputs, identities, optionally the
// outputs y (for deciders examining input-output configurations), and the
// per-node random tapes (for Monte-Carlo algorithms). All slices are
// ball-local; index 0 is the center.
type View struct {
	Ball *graph.Ball
	IDs  []int64
	X    [][]byte
	// Y is nil when the view belongs to a construction task; deciders
	// receive the candidate outputs here.
	Y [][]byte
	// TapeFor returns the private tape of the ball-local node, or nil for
	// deterministic algorithms. Tapes are addressed by identity, so the
	// same node presents the same bits in every view containing it —
	// exactly the multiset-of-strings model of §3. Every call returns the
	// tape rewound to its start; distinct locals return distinct tapes,
	// but calling TapeFor twice with the same local may return the same
	// (rewound) object, so treat a tape as live only until the next
	// TapeFor call for that local.
	TapeFor func(local int) *localrand.Tape

	// lb is the view reinterpreted as an identity-free labeled ball; it
	// aliases Ball/X/Y, rebuilt on demand by LabeledBall.
	lb lang.LabeledBall
}

// LabeledBall returns the view as an identity-free labeled ball for LCL
// bad-ball predicates, backed by the view's own storage: no allocation,
// valid exactly as long as the view is. Cached view skeletons keep their
// Ball/X/Y slices across trials (only the contents are refilled), so the
// rebuild — and its pointer write barriers — happens once per skeleton,
// not once per verdict.
func (v *View) LabeledBall() *lang.LabeledBall {
	if v.lb.Ball != v.Ball || !sameColumn(v.lb.X, v.X) || !sameColumn(v.lb.Y, v.Y) {
		v.lb = lang.LabeledBall{Ball: v.Ball, X: v.X, Y: v.Y}
	}
	return &v.lb
}

// Tape returns the center's tape (nil for deterministic views).
func (v *View) Tape() *localrand.Tape {
	if v.TapeFor == nil {
		return nil
	}
	return v.TapeFor(0)
}

// Degree returns the center's degree inside the ball, which equals its
// degree in the host graph for any radius >= 1.
func (v *View) Degree() int { return v.Ball.G.Degree(0) }

// ViewAlgorithm is a constant-radius algorithm in ball form: every node
// outputs a function of its radius-t view.
type ViewAlgorithm interface {
	Name() string
	Radius() int
	Output(v *View) []byte
}

// tapeFunc builds the per-view tape accessor for a draw σ; nil draws give
// deterministic views.
func tapeFunc(drawPtr *localrand.Draw, idOf func(local int) int64) func(int) *localrand.Tape {
	if drawPtr == nil {
		return nil
	}
	draw := *drawPtr
	return func(local int) *localrand.Tape {
		return draw.Tape(idOf(local))
	}
}

// ConstructionView assembles the radius-t view of node v for a
// construction instance (no outputs).
func ConstructionView(in *lang.Instance, v, t int, draw *localrand.Draw) *View {
	b := in.G.BallAround(v, t)
	view := &View{
		Ball: b,
		IDs:  make([]int64, b.Size()),
		X:    make([][]byte, b.Size()),
	}
	for i, u := range b.Nodes {
		view.IDs[i] = in.ID[u]
		view.X[i] = in.X[u]
	}
	view.TapeFor = tapeFunc(draw, func(local int) int64 { return view.IDs[local] })
	return view
}

// DecisionView assembles the radius-t view of node v for a decision
// instance (inputs and candidate outputs).
func DecisionView(di *lang.DecisionInstance, v, t int, draw *localrand.Draw) *View {
	b := di.G.BallAround(v, t)
	view := &View{
		Ball: b,
		IDs:  make([]int64, b.Size()),
		X:    make([][]byte, b.Size()),
		Y:    make([][]byte, b.Size()),
	}
	for i, u := range b.Nodes {
		view.IDs[i] = di.ID[u]
		view.X[i] = di.X[u]
		view.Y[i] = di.Y[u]
	}
	view.TapeFor = tapeFunc(draw, func(local int) int64 { return view.IDs[local] })
	return view
}

// RunView executes a ball-view algorithm on every node of an instance,
// returning the global output y. A nil draw runs the algorithm
// deterministically (no tapes). Nodes are processed on a worker pool; the
// result is independent of scheduling because views are read-only (and,
// now that views are cached, algorithms must treat them as read-only:
// Ball, IDs, and X are shared scratch, not per-call copies).
//
// RunView is the single-shot wrapper over the Plan/Engine layer; trial
// loops should hold a Plan and one Engine per worker so ball extraction
// and view assembly are amortized across executions.
func RunView(in *lang.Instance, algo ViewAlgorithm, draw *localrand.Draw) [][]byte {
	plan, err := NewPlan(in.G)
	if err != nil {
		// Unreachable for graphs built through the public constructors,
		// which validate adjacency symmetry; keep the old panic-free
		// signature for the overwhelmingly common case.
		panic(err)
	}
	return plan.NewEngine().RunView(in, algo, draw)
}

// ViewFunc wraps a plain function as a ViewAlgorithm.
type ViewFunc struct {
	AlgoName string
	R        int
	F        func(v *View) []byte
}

// Name implements ViewAlgorithm.
func (a ViewFunc) Name() string { return a.AlgoName }

// Radius implements ViewAlgorithm.
func (a ViewFunc) Radius() int { return a.R }

// Output implements ViewAlgorithm.
func (a ViewFunc) Output(v *View) []byte { return a.F(v) }
