// Package rlnc is the public facade of the Randomized Local Network
// Computing reproduction (Feuilloley & Fraigniaud, SPAA 2015). It
// re-exports the library's main entry points:
//
//   - networks and instances: Graph, Assignment, Instance, Config;
//   - the LOCAL model engine: ViewAlgorithm, MessageAlgorithm, RunView,
//     RunMessage, and the §2.1.1 simulation adapters;
//   - the execution-plan layer: a Plan is the reusable layout of one
//     graph (CSR-flattened adjacency, reverse-port delivery table, cached
//     balls) and an Engine is one worker's reusable execution scratch
//     (double-buffered message slabs, tape slab, assembled views).
//     RunView/RunMessage are single-shot wrappers over this layer;
//     Monte-Carlo trial loops build one Plan per instance and hand each
//     trial-pool worker its own Engine (mc.RunWith), which eliminates
//     steady-state allocations from the trial loop. A Batch is the
//     vectorized worker scratch, and a Sharded runs the message path
//     across a contiguous partition of the plan's CSR layout with
//     per-round cut-block exchange — the multi-machine execution shape,
//     byte-identical to the unsharded engines;
//   - distributed languages: LCL languages via excluded bad balls,
//     global languages (AMOS, Majority), the F_k promise, and the ε-slack
//     / f-resilient relaxations of §1.1 and Definition 1;
//   - deciders: deterministic LD deciders and the randomized BPLD
//     deciders of §2.3 and Corollary 1;
//   - construction algorithms: Cole–Vishkin, Linial reduction, Luby MIS,
//     maximal matching, weak coloring, retry coloring, Moser–Tardos LLL;
//   - the Theorem 1 machinery: boosting parameters, disjoint unions,
//     gluing, order-invariance, and the Ramsey extraction of Appendix A;
//   - fault injection: a FaultPlan is a seeded per-round schedule of
//     message drops/delays, node crashes (with optional recovery), and
//     mid-run edge cuts, armed on any engine shape via SetFault or
//     RunOptions.Fault and implemented once in the shared round core —
//     faulty runs stay deterministic and byte-identical across batch
//     widths, shard counts, and transports;
//   - unified executors: mc.Executor (trial loops), decide.Exec
//     (decision verbs), and construct.Exec (construction runs) each give
//     one options-struct entry point per verb over the engine shapes;
//   - the experiment suite E1–E17 (see the experiment table in
//     README.md and one file per experiment in internal/exp; E17 is the
//     fault-injection degradation study);
//   - the serve control plane: a Server is a long-lived HTTP daemon
//     (job intake, validation against the experiment/algorithm/family
//     registries, one-at-a-time execution, SSE progress) over a
//     content-addressed RunStore — run IDs hash the normalized job's
//     canonical encoding, so identical configurations are answered from
//     the store with zero recompute. `rlnc serve` hosts it; see
//     docs/OPERATIONS.md for the HTTP API.
//
// See examples/ for runnable programs and cmd/rlnc for the CLI.
package rlnc

import (
	"rlnc/internal/construct"
	"rlnc/internal/decide"
	"rlnc/internal/exp"
	"rlnc/internal/glue"
	"rlnc/internal/graph"
	"rlnc/internal/ids"
	"rlnc/internal/lang"
	"rlnc/internal/local"
	"rlnc/internal/localrand"
	"rlnc/internal/mc"
	"rlnc/internal/orderinv"
	"rlnc/internal/relax"
	"rlnc/internal/report"
	"rlnc/internal/serve"
)

// Network substrate.
type (
	// Graph is a simple undirected network (paper §2.1.1).
	Graph = graph.Graph
	// Ball is the radius-t ball B_G(v,t) with frontier-edge exclusion.
	Ball = graph.Ball
	// Assignment gives every node a distinct positive identity.
	Assignment = ids.Assignment
)

// Graph generators.
var (
	Cycle         = graph.Cycle
	Path          = graph.Path
	Complete      = graph.Complete
	Star          = graph.Star
	Grid          = graph.Grid
	Torus         = graph.Torus
	CompleteTree  = graph.CompleteTree
	Hypercube     = graph.Hypercube
	RandomRegular = graph.RandomRegular
	ConnectedGNP  = graph.ConnectedGNP
)

// Identity assignments.
var (
	ConsecutiveIDs = ids.Consecutive
	RandomIDs      = ids.RandomPerm
)

// Configurations, instances, and promises (paper §2.2).
type (
	Config           = lang.Config
	Instance         = lang.Instance
	DecisionInstance = lang.DecisionInstance
	Language         = lang.Language
	LCL              = lang.LCL
	Fk               = lang.Fk
)

// NewInstance validates and assembles a construction instance (G, x, id).
var NewInstance = lang.NewInstance

// Languages.
var (
	ProperColoring       = lang.ProperColoring
	WeakColoring         = lang.WeakColoring
	MIS                  = lang.MIS
	MaximalMatching      = lang.MaximalMatching
	MinimalDominatingSet = lang.MinimalDominatingSet
	FrugalColoring       = lang.FrugalColoring
	LLL                  = lang.LLL
)

// AMOS is the "at most one selected" language of §2.3.1.
type AMOS = lang.AMOS

// Relaxations (§1.1, Definition 1).
type (
	EpsSlack   = relax.EpsSlack
	FResilient = relax.FResilient
)

// The LOCAL model engine (§2.1).
type (
	View             = local.View
	ViewAlgorithm    = local.ViewAlgorithm
	MessageAlgorithm = local.MessageAlgorithm
	Process          = local.Process
	RunOptions       = local.RunOptions

	// WireAlgorithm/WireProcess are the wire-format message interface:
	// messages as fixed-width 64-bit words staged straight into the
	// engine's send slabs (Inbox to read, Outbox to write), running with
	// zero allocations per round. Process/MessageAlgorithm remain as the
	// boxed legacy transport over the same round loop.
	WireAlgorithm = local.WireAlgorithm
	WireProcess   = local.WireProcess
	Inbox         = local.Inbox
	Outbox        = local.Outbox

	// Plan is the reusable execution layout of one graph: CSR adjacency,
	// the reverse-port delivery table, and the per-radius ball cache.
	// Plans are concurrency-safe and shared by all engines built on them.
	Plan = local.Plan
	// Engine is one worker's reusable execution scratch (message slabs,
	// tapes, assembled views); not safe for concurrent use — trial pools
	// hold one Engine per worker.
	Engine = local.Engine
	// Batch runs a vector of independent trials through one engine pass
	// (structure-of-arrays message slabs, batch-refilled view skeletons),
	// so per-round scheduling and view assembly amortize across the
	// vector; an Engine is the width-1 case. Not safe for concurrent use —
	// trial pools hold one Batch per worker (see mc.RunBatched).
	Batch = local.Batch
	// Sharded runs the message path across a contiguous node partition
	// of the plan's CSR layout: one compacted-window Batch per shard
	// (slabs cover the shard's own slot range plus its remote halo),
	// cross-shard deliveries exchanged per round as contiguous
	// [slot][lane] cut blocks over ShardLinks. Transports: in-process
	// channels (default), framed byte streams over any net.Conn
	// (StreamLink / TCPLoopback), or shard-worker OS processes
	// (WorkerPool + Plan.NewShardedRemote, hosted by `rlnc
	// shard-worker`). Every lane is byte-identical to the unsharded
	// Batch at equal seeds on every transport.
	Sharded   = local.Sharded
	ShardLink = local.ShardLink
	CutBlock  = local.CutBlock
	// TCPLoopback builds ShardLinks as framed byte streams over real
	// loopback TCP sockets — the full serialize → kernel → deserialize
	// path of a deployment, in one process.
	TCPLoopback = local.TCPLoopback
	// WorkerPool is a fixed set of shard-worker processes backing remote
	// sharded executors (Plan.NewShardedRemote); RemoteAlgorithm is the
	// portability hook an algorithm implements to cross the process
	// boundary. Workers register with a versioned hello and heartbeat on
	// the control stream; a dead worker is excluded from the next
	// NewShardedRemote, so Monte-Carlo sweeps retry onto the survivors.
	WorkerPool      = local.WorkerPool
	RemoteAlgorithm = local.RemoteAlgorithm
	// ServeOptions configures a serving shard worker for multi-host
	// deployment: data-listener bind and advertise addresses, heartbeat
	// period, and the die-after-rounds chaos switch used by fault tests.
	ServeOptions = local.ServeOptions
	// ResetProcess is the reset-and-reuse extension of WireProcess:
	// engines pool the per-(node, lane) process table across trials of
	// one algorithm when its processes implement it.
	ResetProcess = local.ResetProcess
	// FaultPlan is the first-class fault model: a seeded schedule of
	// message drops, one-round delays, node crashes (with optional
	// recovery), and mid-run topology surgery (EdgeCut), armed on an
	// Engine, Batch, or Sharded via SetFault or per-run via
	// RunOptions.Fault. Fault decisions come from a dedicated tape keyed
	// by (round, edge slot, lane), so faulty runs are deterministic and
	// byte-identical across every execution shape, including remote
	// shard workers. The zero plan is fault-free and costs nothing.
	FaultPlan = local.FaultPlan
	EdgeCut   = local.EdgeCut
)

var (
	RunView    = local.RunView
	RunMessage = local.RunMessage
	// NewPlan builds (or fetches from the graph's cache) the execution
	// plan of a graph; MustPlan panics on the hand-rolled asymmetric
	// adjacency case that NewPlan reports.
	NewPlan  = local.NewPlan
	MustPlan = local.MustPlan
	// StreamLink wraps byte-stream connections as a ShardLink carrying
	// the framed, versioned CutBlock codec; NewTCPLoopback builds the
	// loopback-TCP LinkFactory; ServeShard turns the current process
	// into one shard of a remote executor (the `rlnc shard-worker`
	// entry point), and NewWorkerPool/NewWorkerConn assemble the
	// orchestrator's side.
	StreamLink              = local.StreamLink
	NewTCPLoopback          = local.NewTCPLoopback
	ServeShard              = local.ServeShard
	ServeShardOpts          = local.ServeShardOpts
	NewWorkerPool           = local.NewWorkerPool
	NewWorkerConn           = local.NewWorkerConn
	RegisterRemoteAlgorithm = local.RegisterRemoteAlgorithm
	// DialRetry dials with bounded exponential backoff — the multi-host
	// helper for control and data-link dials, where start order between
	// orchestrator and workers is deliberately unconstrained.
	DialRetry = local.DialRetry
	// FullInfo turns a radius-t view algorithm into a t-round
	// message-passing algorithm (§2.1.1 simulation).
	FullInfo = local.FullInfo
	// MessageAsView simulates a t-round message algorithm inside a
	// radius-(t+1) ball.
	MessageAsView = local.MessageAsView
	// Boxed strips a WireAlgorithm of its wire fast path, forcing the
	// legacy boxed transport — the baseline the wire benchmarks compare
	// against. NewLegacyProcess adapts one of its processes to the
	// legacy Process interface.
	Boxed            = local.Boxed
	NewLegacyProcess = local.NewLegacyProcess
	// CutForSubdivision performs the Theorem-2-style surgery step: it
	// severs edge {u,z} at the given round and returns the twice-
	// subdivided comparison graph (graph.SubdivideTwice) whose relay
	// nodes stand in for the cut edge.
	CutForSubdivision = local.CutForSubdivision
)

// Randomness: tape spaces model Rand(A) of §3; fixing a draw σ while
// varying another space is the Claim 4 conditioning.
type (
	TapeSpace = localrand.TapeSpace
	Draw      = localrand.Draw
	Tape      = localrand.Tape
)

var NewTapeSpace = localrand.NewTapeSpace

// Deciders (§2.2.1, §2.3).
type (
	Decider          = decide.Decider
	LCLDecider       = decide.LCLDecider
	AMOSDecider      = decide.AMOSDecider
	ResilientDecider = decide.ResilientDecider
)

var (
	Accepts             = decide.Accepts
	AcceptsFarFrom      = decide.AcceptsFarFrom
	NewAMOSDecider      = decide.NewAMOSDecider
	NewResilientDecider = decide.NewResilientDecider
	GoldenP             = decide.GoldenP
	AMOSFooling         = decide.AMOSFooling
)

// Construction algorithms.
type ConstructionAlgorithm = construct.Algorithm

var (
	RandomColoring           = construct.RandomColoring
	ColeVishkinColoring      = construct.ColeVishkinColoring
	LinialColoring           = construct.LinialColoring
	LubyMISAlgorithm         = construct.LubyMISAlgorithm
	MaximalMatchingAlgorithm = construct.MaximalMatchingAlgorithm
	WeakColoringViaMIS       = construct.WeakColoringViaMIS
	MoserTardosAlgorithm     = construct.MoserTardosAlgorithm
)

// RetryColoring is the t-round conflict-resampling coloring of §1.1.
type RetryColoring = construct.RetryColoring

// Theorem 1 machinery.
var (
	Mu                 = glue.Mu
	NuDisjoint         = glue.NuDisjoint
	NuPrimeSearch      = glue.NuPrimeSearch
	BuildGlued         = glue.BuildGlued
	BuildDisjointUnion = glue.BuildDisjointUnion
)

// Order-invariance and the Appendix A extraction.
type OrderInvariantSimulation = orderinv.Simulation

var (
	CheckInvariance = orderinv.CheckInvariance
	RingInventory   = orderinv.RingInventory
	RamseyExtract   = orderinv.Extract
)

// Unified executors: one options-struct entry point per verb, each
// dispatching over the engine shapes (and each carrying the fault axis).
type (
	// Executor runs Monte-Carlo trial loops: Trials/Batch/Shards/Fault
	// options, Run for success estimates, Mean for scalar averages.
	Executor[S any] = mc.Executor[S]
	// MCEstimate is a Monte-Carlo success estimate with Wilson bounds.
	MCEstimate = mc.Estimate
	// DecideExec evaluates deciders: Verdicts, Accepts, AcceptsFarFrom
	// over trial vectors on an engine, a batch, or transiently.
	DecideExec = decide.Exec
	// ConstructExec runs construction algorithms: Run and RunInstances
	// over an engine, a batch, or a sharded executor.
	ConstructExec = construct.Exec
)

// Experiments.
type (
	Experiment       = report.Experiment
	ExperimentConfig = report.Config
	ExperimentResult = report.Result
)

// Experiments returns the registered suite E1–E17 in order.
func Experiments() []report.Experiment { return exp.All() }

// ExperimentByID looks up one experiment (e.g. "E5").
func ExperimentByID(id string) (report.Experiment, bool) { return report.ByID(id) }

// The serve control plane (hosted by `rlnc serve`; HTTP API in
// docs/OPERATIONS.md). Named Server/ServerOptions — not ServeOptions,
// which is the shard-worker serving configuration above.
type (
	// Server is the long-lived experiment daemon: an http.Handler
	// accepting jobs at POST /v1/runs, executing them one at a time on
	// the Monte-Carlo harness, streaming SSE progress, and answering
	// repeated configurations from the content-addressed run store.
	Server = serve.Server
	// ServerOptions configures a Server: the backing store, validation
	// limits, queue depth, and the sharded-executor provider that routes
	// jobs onto a worker fleet.
	ServerOptions = serve.Options
	// JobSpec is one submitted run configuration — an experiment by
	// registry ID or an algorithm by key plus graph family — whose
	// normalized canonical encoding hashes to the run ID.
	JobSpec = serve.JobSpec
	// RunStore is the flat-file content-addressed store of finished
	// runs; RunMeta is one run's stored metadata.
	RunStore = serve.Store
	RunMeta  = serve.RunMeta
)

var (
	// NewServer builds a Server over a store; OpenRunStore opens (or
	// creates) a store rooted at a directory.
	NewServer    = serve.NewServer
	OpenRunStore = serve.OpenStore
)
