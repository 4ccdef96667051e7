// Package local implements the LOCAL model of the paper (§2.1): synchronous
// rounds in which every node sends messages to its neighbors, receives
// theirs, and computes; no bounds on message size or local computation.
//
// Two equivalent programming interfaces are provided, mirroring the
// simulation argument of §2.1.1:
//
//   - the message-passing interface (WireAlgorithm, wire.go, stepped by
//     a VecAlgorithm kernel or a ProcessAlgorithm's WireProcesses) runs
//     an explicit round loop with one goroutine per batch of nodes.
//     Messages are fixed-width 64-bit words written straight into the
//     engine's send slabs, so a round allocates nothing, and every
//     engine shape and shard link carries the same words;
//   - the ball-view interface (ViewAlgorithm) computes each node's output
//     directly as a function of its ball B_G(v,t).
//
// RunFullInfo (view algorithm → t-round gossip protocol, exact) and
// MessageAsView (t-round message algorithm → view algorithm of radius
// t+1, exact) witness the equivalence; see adapter.go. The gossip's
// records are unbounded, as the model allows, so RunFullInfo runs on a
// small synchronous loop of its own rather than on the word engine.
//
// Both interfaces execute through a three-level layering:
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
//     table pooled across back-to-back runs. A Batch is the one handle a
//     worker holds: Plan.NewShardedBatch owns the choice between a plain
//     batch and one whose message runs go across a Sharded, and every
//     fallback between them. RunView, RunMessage and Plan.Run are
//     single-shot wrappers over a transient width-1 Batch.
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
// kernel slot-major: a worker's node range owns one consecutive slot
// window, so a pass clears its next-round lens range with a single
// contiguous clear — (hi-lo)·B adjacent entries, not B strided walks —
// then steps the range's live lanes in place. The same contiguity powers the sharded cut exchange:
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
// warm Batch runs a full trial with zero allocations, at width 1 as at
// any other; the single-shot wrappers hand the caller a transient
// batch's arena, which nothing else references. alloc_test.go pins the
// floors.
//
// # One stepping path per algorithm
//
// Every pass steps a worker's whole node range of every lane through
// one kernel call (vec.go): StartVec in the start pass, StepVec in each
// round or fault pass. An algorithm provides the kernel in one of two
// ways, never both — an algorithm implementing both or neither is
// refused at run start, by the batch, the sharded executor and the
// shard-worker registry alike:
//
//   - a VecAlgorithm is its own stateless kernel on the algorithm value
//     (retry coloring and Cole–Vishkin);
//   - a ProcessAlgorithm's per-(node, lane) WireProcess table is stepped
//     by procKernel (procs.go), the engine's kernel over the processes
//     (Luby's MIS, matching, Moser–Tardos, greedy MIS, Linial).
//
// The choice does not depend on the lane count: a width-1 batch, a
// one-lane slab block and a ragged one-lane tail step the same kernel
// as a 64-lane block. The kernel sees the pass through a VecRange — a
// concrete, inlinable view of the slabs: Active(v) is node v's lane mask
// to step, Recv(v, p) hands port p's contiguous lens row and word block,
// BroadcastRow stages a whole lane row, Finish(v, mask) fixes lanes'
// outputs, and State(v, j) and Tape(v, b) reach the state slab and the
// tape slab — so the port→slot lookup, base-offset arithmetic, stage and
// fin counting, and fault masking stay in the engine and the inner loop
// walks the adjacent memory the slot-major layout already provides.
// internal/shardtest pins the two kernels of the ring algorithms byte
// for byte against a frozen copy of the per-node processes they
// replaced.
//
// The kernel contract mirrors the WireProcess one per lane, with three
// range-specific rules. State rule: all per-lane state lives in the
// batch's flat [node][word][lane] uint64 slab, VecWords words per
// (node, lane), reached through State (a procKernel's state is the
// process table instead); the slab holds no pointers and is reused
// across runs whatever the algorithm's parameters, so TestVecAllocFloors
// pins the warm kernel trial at zero allocations, fault plans and
// width 1 included. Mask rule: lane sets are uint64 masks (a block
// holds at most 64 lanes); StepVec acts only for node v's lanes in
// Active(v), which excludes finished lanes and, under a fault plan,
// crashed ones — a kernel must neither read arrivals for nor stage
// messages from an inactive lane, nor change its state — and it signals
// halting through Finish. Aliasing rule: every row a VecRange hands over
// aliases the live slabs and is valid only during the call; lens rows
// and word blocks are read-only.
//
// # Fault injection
//
// Faults are a first-class engine seam (fault.go): a FaultPlan is a
// seeded schedule of per-round message drops and one-round delays, node
// crashes with optional recovery windows, and mid-run topology surgery
// (EdgeCut; CutForSubdivision pairs a cut with its twice-subdivided
// comparison graph). A plan is armed durably with SetFault — on a
// Batch, which propagates it to its Sharded, or on a Sharded, whose
// shards all obey it — or per run through RunOptions.Fault. The
// implementation lives once in the shared round core: an armed batch's
// roundPass runs the fault walk before it steps the range, which
// suppresses or holds receive slots and masks crashed lanes out before
// the delivered counts are taken, so Batch, Sharded, and the remote
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
// chunks; with Shards > 0 it sizes the pool for shard groups, each
// worker's batch built by Plan.NewShardedBatch), which removes all
// steady-state allocations from the trial loop; the Executor's Fault
// option arms a FaultPlan on every worker's batch.
//
// Everything a Batch passes to algorithm code is
// engine-owned scratch with a uniform contract: the Inbox and Outbox of
// WireProcess.Step (and the words read through them), assembled Views
// (and their LabeledBall reinterpretation), and the tapes returned by
// View.TapeFor are valid only for the duration of the call that hands
// them over, must be treated as read-only, and are reused or released
// when the pass ends — algorithms copy whatever they want to keep.
// Returned output strings are never reused by the engine;
// conversely, shared encodings such as lang.EncodeColor return
// read-only storage. These invariants are what let pooled and batched
// executions drop every reference to a previous trial's state while
// allocating nothing per round.
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

// RunView executes a ball-view algorithm on every node of an instance,
// returning the global output column y. A nil draw runs the algorithm
// deterministically (no tapes). Nodes are processed on a worker pool; the
// result is independent of scheduling because views are read-only (and,
// now that views are cached, algorithms must treat them as read-only:
// Ball, IDs, and X are shared scratch, not per-call copies).
//
// RunView is the single-shot wrapper over the Plan/Batch layer; trial
// loops should hold a Plan and one Batch per worker so ball extraction
// and view assembly are amortized across executions.
func RunView(in *lang.Instance, algo ViewAlgorithm, draw *localrand.Draw) lang.Column {
	plan, err := NewPlan(in.G)
	if err != nil {
		// Unreachable for graphs built through the public constructors,
		// which validate adjacency symmetry; keep the old panic-free
		// signature for the overwhelmingly common case.
		panic(err)
	}
	return plan.NewBatch(1).runViewVec(&laneSrc{shared: in}, 1, algo, oneDraw(draw))[0]
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
