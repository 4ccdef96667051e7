package local

import (
	"errors"
	"fmt"
	"time"

	"rlnc/internal/graph"
	"rlnc/internal/lang"
	"rlnc/internal/localrand"
)

// This file implements sharded batch execution: one LOCAL round run
// cooperatively by several shards, each owning a contiguous node range of
// the plan's CSR layout (a cut in Topology.Offsets) and executing the
// full lane vector over its own range with the ordinary Batch machinery —
// startPass and roundPass are reused unchanged, driven over the shard's
// node window on a compacted slab window: each shard's slabs cover only
// its own slot range plus the remote halo it reads, through the
// global→local remap of graph.ShardSlots, so shard memory scales with
// the shard rather than the whole graph. The only thing a shard cannot
// resolve locally is a RevSlot entry that crosses a cut: those slots'
// send state is exchanged once per round as contiguous [slot][lane]
// lens+words block copies (flat wire words need no serialization in
// process), shipped over a ShardLink. Three transports implement the
// seam: the in-process one-slot channel below (zero-copy, deadline
// backstop), framed byte streams over any net.Conn (codec.go,
// transport.go), and shard-worker OS processes (remote.go, worker.go).
//
// The contract is the repository's usual one, extended across the cut:
// every lane of a sharded run — outputs, Stats, and errors — is
// byte-identical to the unsharded Batch at equal seeds, for every shard
// count and every cut placement. internal/shardtest enforces it
// differentially across all message algorithms and graph families.

// CutBlock is one round's handoff on one directed shard pair: for each
// cut slot, in ascending slot order, the k-lane lens range and the
// capW·k-lane word range of the sender's send slab, flattened back to
// back. Lens and Words are exactly the bytes a real transport would put
// on the wire. Refs carries by-reference payloads (the boxing shim for
// legacy Processes and the full-information adapter) and only works on
// in-process links; wire-native algorithms leave it empty.
type CutBlock struct {
	Lens  []int32
	Words []uint64
	Refs  []Message
}

// ShardLink ships cut blocks across one directed shard pair: the sending
// shard calls Send once per round, the receiving shard Recv once per
// round, strictly in round order. The block's backing arrays stay owned
// by the sender, which will not touch them again until after the
// receiver's next Recv on this link returns — so an in-process link may
// hand the block through zero-copy, while a network link would serialize
// Lens/Words (both fixed-width) during Send. Errors abort the sharded
// run.
type ShardLink interface {
	Send(round int, block CutBlock) error
	Recv(round int) (CutBlock, error)
}

// LinkFactory builds the link that carries the given cut slots from
// shard `from` to shard `to`. The returned link is shared by both
// endpoint shards of an in-process run (the sender calls Send, the
// receiver Recv); a transport factory would instead return the two ends
// of a connection keyed by (from, to). The factory is invoked once per
// Run, before the first round.
type LinkFactory func(from, to int, cut []int32) ShardLink

// errShardAborted reports an exchange cut short by a failing peer shard.
var errShardAborted = errors.New("local: sharded exchange aborted")

// ErrLinkTimeout reports a link operation that exceeded its deadline —
// the cancel path that keeps a shard from blocking forever on a peer
// that died without tripping the abort latch (a custom link with no
// abort wiring, a remote process that vanished).
var ErrLinkTimeout = errors.New("local: shard link deadline exceeded")

// DefaultLinkTimeout bounds how long a built-in link waits for its peer.
// One Recv spans at most the peer's previous round pass plus scheduling
// noise, so the default is generous; Sharded.SetLinkTimeout overrides it
// (0 disables the deadline entirely).
const DefaultLinkTimeout = 30 * time.Second

// chanLink is the in-process ShardLink: a one-slot channel. The
// per-round consensus barrier guarantees at most one block is in flight
// per link, so Send never blocks; abort unblocks a Recv whose peer died
// mid-round instead of deadlocking the run, and the deadline is the
// backstop for links built without an abort latch.
type chanLink struct {
	ch      chan CutBlock
	abort   <-chan struct{}
	timeout time.Duration
}

func (l *chanLink) Send(round int, block CutBlock) error {
	select {
	case l.ch <- block:
		return nil
	case <-l.abort:
		return errShardAborted
	default:
	}
	var expired <-chan time.Time
	if l.timeout > 0 {
		tm := time.NewTimer(l.timeout)
		defer tm.Stop()
		expired = tm.C
	}
	select {
	case l.ch <- block:
		return nil
	case <-l.abort:
		return errShardAborted
	case <-expired:
		return fmt.Errorf("%w: send of round %d waited %v", ErrLinkTimeout, round, l.timeout)
	}
}

func (l *chanLink) Recv(round int) (CutBlock, error) {
	select {
	case b := <-l.ch:
		return b, nil
	case <-l.abort:
		return CutBlock{}, errShardAborted
	default:
	}
	var expired <-chan time.Time
	if l.timeout > 0 {
		tm := time.NewTimer(l.timeout)
		defer tm.Stop()
		expired = tm.C
	}
	select {
	case b := <-l.ch:
		return b, nil
	case <-l.abort:
		return CutBlock{}, errShardAborted
	case <-expired:
		return CutBlock{}, fmt.Errorf("%w: recv of round %d waited %v", ErrLinkTimeout, round, l.timeout)
	}
}

// Sharded executes message algorithms over a partitioned plan: shard i
// runs the full lane vector over its node range as an ordinary Batch
// pass, and cross-shard deliveries are resolved by the per-round cut
// exchange. It is the multi-machine execution shape run in one process —
// the Batch is the per-machine engine, the ShardLink the network.
//
// Like a Batch, a Sharded is one caller's private scratch: it is NOT
// safe for concurrent use. Concurrency across trials comes from one
// Sharded per worker group (mc.Executor with Shards set); concurrency
// within a trial comes from the per-shard goroutines themselves.
type Sharded struct {
	plan   *Plan
	width  int
	part   graph.Partition
	cuts   [][][]int32
	links  LinkFactory // nil: in-process channel links
	shards []*shardExec

	// block is the common lane count of one sharded pass: the minimum of
	// the shards' compacted slab blocks, so every shard agrees on the
	// lane split of an execution vector (lanes are independent, so any
	// agreed split is byte-identical to the unsharded batch lane for
	// lane). Recomputed per run from the algorithm's layout.
	block int
	// full is the lazily built companion Batch Unsharded returns — the
	// shard batches are compacted windows now and cannot stand in for a
	// whole-graph engine.
	full *Batch
	// linkTimeout is the deadline handed to built-in links (and exported
	// to transports through LinkTimeout); closeLinks tears down an
	// installed transport's resources on Close.
	linkTimeout time.Duration
	closeLinks  func()

	// defFault is the executor-default fault plan (SetFault, fault.go): a
	// run obeys RunOptions.Fault when set and this otherwise. The
	// orchestrator resolves the effective plan once per execution vector
	// and arms identical fault state on every shard batch — or ships the
	// plan inside runSpec when the shards are worker processes.
	defFault *FaultPlan

	// Remote mode (remote.go): the shards run as worker processes from
	// this pool. remoteWorkers is the live subset selected at
	// construction — one worker per shard, in shard order; workers that
	// die later fail their shard's driver, which the Monte-Carlo layer
	// answers by retrying the trial chunk on a fresh Sharded built from
	// the survivors. remoteJob/remoteKey/remoteParams identify the job
	// the workers currently hold for this executor.
	remote        *WorkerPool
	remoteWorkers []*WorkerConn
	remoteJob     int64
	remoteKey     string
	remoteParams  []int64

	// Orchestrator-owned per-run state: the shared tape slab (one row per
	// lane, read by each node's owning shard), the lane bookkeeping
	// identical to Batch.runVec's, the shared report channel, and the
	// abort latch that unblocks links when a shard dies. outs is the
	// double-buffered per-run output arena (same alternation contract as
	// Batch's) and deadSh the reusable per-shard death flags.
	tapes    []localrand.Tape
	alive    []bool
	notDone  []int
	roundsOf []int
	msgsOf   []int64
	reports  chan shardReport
	abort    chan struct{}
	outs     arenaPair
	deadSh   []bool
}

// shardExec is one shard of a Sharded: its node range, its private
// windowed Batch (slabs compacted to the shard's own slot range plus the
// remote halo it reads, indexed by window-local slot), and its link
// ports. ctrl carries the orchestrator's per-round commands.
type shardExec struct {
	idx    int
	lo, hi int
	win    *graph.ShardSlots
	bt     *Batch
	out    []shardPort
	in     []shardPort
	ctrl   chan shardCmd
}

// shardPort is one direction of one cut: the slots it carries and the
// link that ships them. buf is the send-side staging block, reused every
// round (the receiver has always consumed round r before the sender
// stages r+1 — the consensus barrier between rounds guarantees it).
// haloLo is the receiver-side local slot of the cut's first entry: a
// peer's halo segment is contiguous in the compacted window, so an
// install is a walk from haloLo.
type shardPort struct {
	peer   int
	cut    []int32
	haloLo int
	link   ShardLink
	buf    CutBlock
}

// shardCmd is one orchestrator command: execute round `round` (run =
// true), or finish — collecting outputs first when collect is set.
type shardCmd struct {
	round   int
	run     bool
	collect bool
}

// shardReport is one shard's answer to a command: the per-lane delivered
// and newly-finished counts of the round it just ran (nil on the finish
// ack), an exchange error, or a recovered panic to re-raise.
type shardReport struct {
	from     int
	msgs     []int64
	fins     []int
	err      error
	panicked any
}

// NewSharded partitions the plan into `shards` contiguous slot-balanced
// node ranges (Topology.PartitionBySlots) and returns the sharded
// executor with lane capacity `width`.
func (p *Plan) NewSharded(width, shards int) (*Sharded, error) {
	part, err := p.topo.PartitionBySlots(shards)
	if err != nil {
		return nil, fmt.Errorf("local: %w", err)
	}
	return p.NewShardedPartition(width, part)
}

// NewShardedPartition is NewSharded with an explicit cut placement; the
// equivalence harness uses it to sweep adversarial partitions. The
// partition must be a valid contiguous node partition of the plan's
// topology.
func (p *Plan) NewShardedPartition(width int, part graph.Partition) (*Sharded, error) {
	if width < 1 {
		return nil, fmt.Errorf("local: sharded width %d, need >= 1", width)
	}
	if err := p.topo.CheckPartition(part); err != nil {
		return nil, fmt.Errorf("local: %w", err)
	}
	s := &Sharded{
		plan:        p,
		width:       width,
		part:        part,
		cuts:        p.topo.CutSlots(part),
		linkTimeout: DefaultLinkTimeout,
	}
	for i := 0; i < part.NumShards(); i++ {
		lo, hi := part.Shard(i)
		win := p.topo.ShardSlots(part, s.cuts, i)
		sh := &shardExec{idx: i, lo: lo, hi: hi, win: &win, bt: p.newWindowBatch(width, &win)}
		s.shards = append(s.shards, sh)
	}
	// Ports are persistent (their staging buffers amortize across runs);
	// links are installed per run by buildLinks. An in-port's halo base
	// comes from the receiver's window: peer i's cut slots occupy one
	// contiguous local segment there.
	for i := range s.shards {
		for j := range s.shards {
			if len(s.cuts[i][j]) == 0 {
				continue
			}
			s.shards[i].out = append(s.shards[i].out, shardPort{peer: j, cut: s.cuts[i][j]})
			s.shards[j].in = append(s.shards[j].in, shardPort{
				peer: i, cut: s.cuts[i][j], haloLo: s.shards[j].win.HaloLocal(i),
			})
		}
	}
	return s, nil
}

// SetLinkFactory installs a transport for the cut exchange; nil restores
// the in-process channel links. Call before Run.
func (s *Sharded) SetLinkFactory(f LinkFactory) { s.links = f }

// SetTransport installs a link factory together with the teardown Close
// runs — the form transports with real resources (sockets, worker
// processes) use.
func (s *Sharded) SetTransport(f LinkFactory, close func()) {
	s.links = f
	s.closeLinks = close
}

// SetLinkTimeout sets the deadline built-in links apply to each Send and
// Recv (DefaultLinkTimeout initially; 0 disables). Transports installed
// through a factory read it via LinkTimeout.
func (s *Sharded) SetLinkTimeout(d time.Duration) { s.linkTimeout = d }

// LinkTimeout returns the configured per-operation link deadline.
func (s *Sharded) LinkTimeout() time.Duration { return s.linkTimeout }

// Close tears down an installed transport's resources (a no-op for the
// in-process channel links). The Sharded itself remains usable with the
// default links afterwards.
func (s *Sharded) Close() error {
	if s.closeLinks != nil {
		s.closeLinks()
		s.closeLinks = nil
		s.links = nil
	}
	return nil
}

// Plan returns the plan the sharded executor runs on.
func (s *Sharded) Plan() *Plan { return s.plan }

// Width returns the lane capacity.
func (s *Sharded) Width() int { return s.width }

// NumShards returns the shard count.
func (s *Sharded) NumShards() int { return s.part.NumShards() }

// Partition returns the node partition.
func (s *Sharded) Partition() graph.Partition { return s.part }

// Unsharded returns a companion Batch on the same plan with the same
// lane capacity, for execution paths that have no sharded form (pure
// ball-view trials above all). The shard batches are compacted windows,
// so the companion is a separate full batch, built lazily and reused;
// use it and the Sharded from the same goroutine, never concurrently.
func (s *Sharded) Unsharded() *Batch {
	if s.full == nil {
		s.full = s.plan.NewBatch(s.width)
		s.full.SetFault(s.defFault)
	}
	return s.full
}

// ShardSlabBytes reports, per shard, the wire-slab byte footprint one
// pass of algo would stream on that shard's compacted window — the
// memory a shard machine actually pays. The compaction gate compares it
// against Unsharded().SlabBytesFor, which is what every shard paid when
// shards held full-size global-slot slabs.
func (s *Sharded) ShardSlabBytes(algo MessageAlgorithm) []int {
	bytes := make([]int, len(s.shards))
	for i, sh := range s.shards {
		bytes[i] = sh.bt.SlabBytesFor(algo)
	}
	return bytes
}

// Run executes one message-passing trial per draw across the shards,
// returning one Result per lane, byte-identical — outputs, Stats, and
// errors — to Batch.Run at equal seeds. len(draws) may be any
// 1..Width().
func (s *Sharded) Run(in *lang.Instance, algo MessageAlgorithm, draws []localrand.Draw, opts RunOptions) ([]*Result, error) {
	bt0 := s.shards[0].bt
	if err := bt0.lanes(len(draws)); err != nil {
		return nil, err
	}
	if err := bt0.checkInstance(in); err != nil {
		return nil, err
	}
	if s.remote != nil && !s.remotable(algo) {
		return s.Unsharded().Run(in, algo, draws, opts)
	}
	return s.runBlocks(in, nil, len(draws), algo, draws, opts)
}

// remotable reports whether algo can cross to the worker processes: it
// must be reconstructible from this binary's registry AND advertised by
// every live worker's handshake — a fleet of mixed binaries must not
// ship a job half its workers cannot build. An algorithm that cannot
// cross runs on the local companion batch instead (byte-identical by
// the sharding contract).
func (s *Sharded) remotable(algo MessageAlgorithm) bool {
	ra, ok := algo.(RemoteAlgorithm)
	if !ok {
		return false
	}
	key, params := ra.RemoteSpec()
	if _, err := remoteAlgoFor(key, params); err != nil {
		return false
	}
	for _, w := range s.remoteWorkers {
		if !w.Supports(key) {
			return false
		}
	}
	return true
}

// RunInstances is Run with per-lane instances (all over the plan's
// graph); a nil draws runs every lane deterministically.
func (s *Sharded) RunInstances(ins []*lang.Instance, algo MessageAlgorithm, draws []localrand.Draw, opts RunOptions) ([]*Result, error) {
	bt0 := s.shards[0].bt
	if err := bt0.lanes(len(ins)); err != nil {
		return nil, err
	}
	if draws != nil && len(draws) != len(ins) {
		return nil, fmt.Errorf("local: %d draws for %d lanes", len(draws), len(ins))
	}
	for _, in := range ins {
		if err := bt0.checkInstance(in); err != nil {
			return nil, err
		}
	}
	if s.remote != nil && !s.remotable(algo) {
		return s.Unsharded().RunInstances(ins, algo, draws, opts)
	}
	return s.runBlocks(nil, ins, len(ins), algo, draws, opts)
}

// buildLinks installs fresh links for a run: in-process channels wired
// to this run's abort latch by default, the caller's transport
// otherwise.
func (s *Sharded) buildLinks() {
	factory := s.links
	if factory == nil {
		abort := s.abort
		timeout := s.linkTimeout
		factory = func(from, to int, cut []int32) ShardLink {
			return &chanLink{ch: make(chan CutBlock, 1), abort: abort, timeout: timeout}
		}
	}
	for i := range s.shards {
		for oi := range s.shards[i].out {
			port := &s.shards[i].out[oi]
			link := factory(i, port.peer, port.cut)
			port.link = link
			// Hand the receiving end the same link object.
			in := s.shards[port.peer].in
			for ii := range in {
				if in[ii].peer == i {
					in[ii].link = link
				}
			}
		}
	}
}

// seedTapes reseeds the first k rows of the shared tape slab — row b
// holds lane b's per-node tapes under draws[b] — and points src at it;
// every shard reads the shared slab (a node's tapes are touched only
// by its owning shard, so the slab needs no further coordination). Like
// the batch's, the slab holds one pass, not the whole lane vector.
func (s *Sharded) seedTapes(k int, draws []localrand.Draw, src *laneSrc) {
	if draws == nil {
		return
	}
	n := s.plan.g.N()
	s.tapes = sliceFor(s.tapes, k*n)
	for b := 0; b < k; b++ {
		draws[b].TapeVecInto(s.tapes[b*n:(b+1)*n], src.instance(b).ID)
	}
	src.tapes, src.tlo, src.tn = s.tapes, 0, n
}

// ensureLaneState sizes the orchestrator's lane bookkeeping.
func (s *Sharded) ensureLaneState() {
	if s.alive == nil {
		s.alive = make([]bool, s.width)
		s.notDone = make([]int, s.width)
		s.roundsOf = make([]int, s.width)
		s.msgsOf = make([]int64, s.width)
	}
}

// runBlocks drives the sharded core over a lane vector in slab-budget
// blocks, exactly like Batch.runBlocks. Compacted windows give every
// shard its own slab budget block, so the orchestrator takes the
// minimum and imposes it on all shards — any agreed lane split is
// byte-identical to the unsharded batch lane for lane, because lanes
// are independent.
func (s *Sharded) runBlocks(shared *lang.Instance, ins []*lang.Instance, k int, algo MessageAlgorithm, draws []localrand.Draw, opts RunOptions) ([]*Result, error) {
	wa := wireOf(algo)
	block := s.layoutShards(wa)
	s.ensureLaneState()
	s.abort = make(chan struct{})
	s.reports = make(chan shardReport, len(s.shards))
	if s.remote != nil {
		if err := s.ensureRemoteJob(algo.(RemoteAlgorithm)); err != nil {
			return nil, err
		}
	} else {
		s.buildLinks()
	}
	n := s.plan.g.N()
	ar := s.outs.next(k, n)
	for lo := 0; lo < k; lo += block {
		hi := lo + block
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
		if s.remote == nil {
			// Remote workers seed their own node windows from the shipped
			// draw seeds; the orchestrator never materializes tapes.
			s.seedTapes(hi-lo, chunk, &src)
		}
		err := s.runVec(src, hi-lo, wa, chunk, opts, ar.ys[lo*n:hi*n], ar.res[lo:hi], ar.ptr[lo:hi])
		if err != nil {
			return nil, err
		}
	}
	return ar.ptr[:k], nil
}

// layoutShards computes every shard's wire layout for wa and imposes
// the common (minimum) lane block on all of them, returning it.
func (s *Sharded) layoutShards(wa WireAlgorithm) int {
	block := 0
	for _, sh := range s.shards {
		sh.bt.layoutWire(wa)
		if block == 0 || sh.bt.block < block {
			block = sh.bt.block
		}
	}
	for _, sh := range s.shards {
		sh.bt.block = block
	}
	s.block = block
	return block
}

// runVec runs one execution vector of k lanes across the shards. It is
// the orchestrator side of Batch.runVec's round loop: shards execute
// startPass/roundPass over their node ranges on their own goroutines,
// and the per-round merge — message counts, halting consensus, the lane
// liveness that every shard's next pass reads — happens here, once,
// exactly as the unsharded loop merges its worker rows. Round count
// semantics, the ErrNoHalt budget, and StopAfter match Batch.runVec
// decision for decision.
func (s *Sharded) runVec(src laneSrc, k int, wa WireAlgorithm, chunk []localrand.Draw, opts RunOptions, ys [][]byte, res []Result, out []*Result) error {
	n := s.plan.g.N()
	if k > s.block {
		return fmt.Errorf("local: %d lanes exceed the %d-lane slab block", k, s.block)
	}
	maxRounds := opts.MaxRounds
	if maxRounds == 0 {
		maxRounds = 2*n + 64
	}
	if opts.StopAfter > 0 {
		maxRounds = opts.StopAfter
	}
	for b := 0; b < k; b++ {
		s.alive[b] = true
		s.notDone[b] = n
		s.roundsOf[b] = 0
		s.msgsOf[b] = 0
	}
	dead := sliceFor(s.deadSh, len(s.shards))
	clear(dead)
	s.deadSh = dead
	var panicked any
	var linkErr error
	aborted := false
	closeAbort := func() {
		if !aborted {
			aborted = true
			close(s.abort)
		}
	}
	// The effective fault plan is resolved once here, so every shard —
	// in-process batch or worker process — arms identical fault state;
	// decisions are keyed on global coordinates, making faulty sharded
	// runs byte-identical to faulty unsharded ones.
	eff := s.effectiveFault(opts)
	if s.remote != nil {
		if err := s.beginRemoteRun(src, k, chunk, eff); err != nil {
			return err
		}
		for i, sh := range s.shards {
			sh.ctrl = make(chan shardCmd, 1)
			go s.remoteDrive(i, k, n, ys)
		}
	} else {
		for _, sh := range s.shards {
			// Arm the stepping path only now that the common block is
			// imposed and the pass's lane count known: every shard
			// steps the same path.
			sh.bt.armVec(wa, k)
			sh.bt.installFault(eff, chunk, k)
			sh.ctrl = make(chan shardCmd, 1)
			go sh.run(s, src, k, wa, ys)
		}
	}
	liveShards := len(s.shards)

	// gather collects one report per live shard, in arrival order (a
	// shard blocked on a dead peer's block reports only after the abort
	// latch trips, which happens when the failing shard's own report is
	// read here — so arrival order is the only safe order). Counts are
	// summed exactly like the unsharded worker-row merge.
	gather := func(counts bool) {
		for got := 0; got < liveShards; got++ {
			rep := <-s.reports
			switch {
			case rep.panicked != nil:
				dead[rep.from] = true
				if panicked == nil {
					panicked = rep.panicked
				}
				closeAbort()
			case rep.err != nil:
				if linkErr == nil {
					linkErr = rep.err
				}
				closeAbort()
			case counts && rep.msgs != nil:
				for b := 0; b < k; b++ {
					s.msgsOf[b] += rep.msgs[b]
					s.notDone[b] -= rep.fins[b]
				}
			}
		}
		liveShards = 0
		for _, d := range dead {
			if !d {
				liveShards++
			}
		}
	}
	broadcast := func(cmd shardCmd) {
		for si, sh := range s.shards {
			if !dead[si] {
				sh.ctrl <- cmd
			}
		}
	}
	finish := func(collect bool) {
		broadcast(shardCmd{run: false, collect: collect})
		gather(false)
		if panicked != nil {
			panic(panicked)
		}
	}

	live := k
	var runErr error
	for round := 1; opts.StopAfter == 0 || round <= opts.StopAfter; round++ {
		if round > maxRounds {
			runErr = fmt.Errorf("%w: %d rounds on %d nodes", ErrNoHalt, maxRounds, n)
			break
		}
		broadcast(shardCmd{round: round, run: true})
		gather(true)
		if panicked != nil {
			finish(false)
		}
		if linkErr != nil {
			runErr = fmt.Errorf("local: sharded exchange: %w", linkErr)
			break
		}
		for b := 0; b < k; b++ {
			if !s.alive[b] {
				continue
			}
			s.roundsOf[b] = round
			if s.notDone[b] == 0 {
				s.alive[b] = false
				live--
			}
		}
		if live == 0 {
			break
		}
	}
	finish(runErr == nil && linkErr == nil)
	if runErr != nil {
		return runErr
	}
	if linkErr != nil {
		// A failure surfacing only in the final gather (a worker dying at
		// collection, above all) must not pass for a clean run.
		return fmt.Errorf("local: sharded exchange: %w", linkErr)
	}
	for b := 0; b < k; b++ {
		res[b] = Result{
			Y:     ys[b*n : (b+1)*n : (b+1)*n],
			Stats: Stats{Rounds: s.roundsOf[b], Messages: s.msgsOf[b]},
		}
		out[b] = &res[b]
	}
	return nil
}

// run is one shard's execution loop: init + round-1 staging over its own
// node range, then one exchange + pass + swap per orchestrator command.
// The Batch passes are the unsharded ones — worker 0 over [lo, hi) — and
// the shared alive slice (orchestrator-written between rounds, command
// channels provide the happens-before) stands in for the batch's own.
func (sh *shardExec) run(s *Sharded, src laneSrc, k int, wa WireAlgorithm, ys [][]byte) {
	defer func() {
		if r := recover(); r != nil {
			sh.cleanup()
			s.reports <- shardReport{from: sh.idx, panicked: r}
		}
	}()
	bt := sh.bt
	n := s.plan.g.N()
	bt.ensureWireState()
	bt.ensureWorkerScratch(1)
	// Zero the counter rows before staging: a previous run's final-round
	// stage counts (never captured — last-round stages are not delivered)
	// must not replay into this run's first round.
	clear(bt.wkStage[0])
	clear(bt.wkMsgs[0])
	clear(bt.wkFin[0])
	bt.alive = s.alive
	bt.preparePools(wa)
	bt.rk, bt.rwa, bt.rsrc = k, wa, src
	bt.startPass(0, sh.lo, sh.hi)
	for {
		cmd := <-sh.ctrl
		if !cmd.run {
			if cmd.collect {
				sh.collectInto(ys, k, n)
			}
			// Cleanup strictly before the ack: the ack releases the
			// orchestrator, which may immediately hand this batch to the
			// next execution vector's goroutine.
			sh.cleanup()
			s.reports <- shardReport{from: sh.idx}
			return
		}
		if err := sh.execRound(cmd.round, k); err != nil {
			s.reports <- shardReport{from: sh.idx, err: err}
			continue
		}
		s.reports <- shardReport{from: sh.idx, msgs: bt.wkMsgs[0][:k], fins: bt.wkFin[0][:k]}
	}
}

// execRound is one shard's round: the cut exchange, the round pass over
// the shard's node window, and the slab swap. The shard-worker protocol
// drives the same method from a control connection instead of the
// in-process ctrl channel.
//
// Message accounting on the fault-free path is sender-side: what this
// shard's nodes staged last round is delivered (to its own nodes or
// across a cut to a peer's) this round, so the previous pass's stage
// counts become this round's report row. Per-shard partials differ from
// the receiver-side ones — a cut message now counts at its sender's
// shard — but the orchestrator only ever sums the rows, and the global
// per-lane sums are identical. The alive gate matches the unsharded
// merge: the orchestrator updates the shared alive vector before issuing
// the round, exactly the state the receiver-side count observed. Fault
// runs keep receiver-side accounting — faultPass overwrites the row.
func (sh *shardExec) execRound(round, k int) error {
	bt := sh.bt
	if err := sh.exchange(round, k); err != nil {
		return err
	}
	stRow := bt.wkStage[0][:k]
	if bt.fault == nil {
		msgRow := bt.wkMsgs[0][:k]
		for b := 0; b < k; b++ {
			msgRow[b] = 0
			if bt.alive[b] {
				msgRow[b] = stRow[b]
			}
		}
	}
	clear(stRow)
	clear(bt.wkFin[0][:k])
	bt.rround = round
	bt.roundPass(0, sh.lo, sh.hi)
	bt.curLens, bt.nextLens = bt.nextLens, bt.curLens
	bt.curWords, bt.nextWord = bt.nextWord, bt.curWords
	bt.curRefs, bt.nextRefs = bt.nextRefs, bt.curRefs
	return nil
}

// collectInto gathers the shard's node window outputs: ys[b*n+v] for
// every lane b and owned node v (n is the global node count).
func (sh *shardExec) collectInto(ys [][]byte, k, n int) {
	bt := sh.bt
	for v := sh.lo; v < sh.hi; v++ {
		for b := 0; b < k; b++ {
			ys[b*n+v] = bt.outputOf(v, b)
		}
	}
}

// cleanup is the unsharded runVec's no-retention cleanup, per shard: a
// pooled shard batch never keeps a previous execution's processes or
// messages alive (the pooled process table is the deliberate exception,
// as in Batch.runVec).
func (sh *shardExec) cleanup() {
	bt := sh.bt
	if bt.procAlgo == nil {
		clear(bt.procs)
	}
	if bt.vprocAlgo == nil {
		clear(bt.vprocs)
	}
	clear(bt.curRefs)
	clear(bt.nextRefs)
	clear(bt.heldRefs)
	bt.rsrc = laneSrc{}
	bt.rwa = nil
}

// exchange performs one round's cut handoff: pack and send the cur-slab
// ranges every peer reads from this shard, then receive and install the
// ranges this shard reads from every peer. Sends never block (one-slot
// links, one block in flight), so the fixed send-then-receive order
// cannot deadlock.
func (sh *shardExec) exchange(round, k int) error {
	bt := sh.bt
	for oi := range sh.out {
		port := &sh.out[oi]
		bt.packCut(port.cut, k, &port.buf)
		if err := port.link.Send(round, port.buf); err != nil {
			return err
		}
	}
	for ii := range sh.in {
		port := &sh.in[ii]
		blk, err := port.link.Recv(round)
		if err != nil {
			return err
		}
		if err := bt.installCut(port.haloLo, len(port.cut), k, blk); err != nil {
			return err
		}
	}
	return nil
}

// packCut flattens the cut slots' [slot][lane] ranges out of the current
// send slabs into blk, reusing its backing arrays. The cut lists global
// slots the sender owns, so each maps to the window-local slot
// s−slotBase; lens rows are k lanes per slot, word rows capW·k per slot
// — both contiguous in the slab. When the run uses the full lane block
// (k == B) the pack goes further: offW is a strict prefix sum over
// consecutive local slots, so a maximal run of consecutive cut slots is
// ONE dense lens copy and ONE dense word copy — cut slots cluster on
// contiguous CSR ranges, making the per-peer pack a handful of memcpys
// instead of a per-slot loop.
func (bt *Batch) packCut(cut []int32, k int, blk *CutBlock) {
	B := bt.block
	base := bt.slotBase
	lens := blk.Lens[:0]
	words := blk.Words[:0]
	if k == B {
		for i := 0; i < len(cut); {
			j := i + 1
			for j < len(cut) && cut[j] == cut[j-1]+1 {
				j++
			}
			slo, shi := int(cut[i])-base, int(cut[j-1])-base+1
			lens = append(lens, bt.curLens[slo*B:shi*B]...)
			wlo, whi := int(bt.offW[slo]), int(bt.offW[shi-1])+int(bt.capW[shi-1])
			if whi > wlo {
				words = append(words, bt.curWords[wlo*B:whi*B]...)
			}
			i = j
		}
	} else {
		for _, s := range cut {
			sl := int(s) - base
			li := sl * B
			lens = append(lens, bt.curLens[li:li+k]...)
			if w := int(bt.capW[sl]); w > 0 {
				wbase := int(bt.offW[sl]) * B
				words = append(words, bt.curWords[wbase:wbase+w*k]...)
			}
		}
	}
	blk.Lens, blk.Words = lens, words
	blk.Refs = blk.Refs[:0]
	if bt.curRefs != nil {
		refs := blk.Refs
		for _, s := range cut {
			li := (int(s) - base) * B
			refs = append(refs, bt.curRefs[li:li+k]...)
		}
		blk.Refs = refs
	}
}

// installCut writes a received block into the current receive slabs at
// the receiver's halo segment [haloLo, haloLo+ncut) — the shard-side
// half of the gather: the subsequent roundPass reads these local slots
// through the window's Rev table exactly as if a local sender had staged
// them. Shape violations (a malformed or truncated frame that survived
// the codec) are reported, not panicked: they abort the sharded run
// with a descriptive error.
func (bt *Batch) installCut(haloLo, ncut, k int, blk CutBlock) error {
	if len(blk.Lens) != ncut*k {
		return fmt.Errorf("local: cut block carries %d lens for %d slots × %d lanes", len(blk.Lens), ncut, k)
	}
	B := bt.block
	wantW := 0
	for i := 0; i < ncut; i++ {
		wantW += int(bt.capW[haloLo+i]) * k
	}
	if len(blk.Words) != wantW {
		return fmt.Errorf("local: cut block carries %d words, layout expects %d for %d slots × %d lanes", len(blk.Words), wantW, ncut, k)
	}
	// Clamp the lens values, not just the section shapes: a
	// structurally valid frame carrying an oversized len would
	// otherwise make the Inbox read past the slot's word capacity —
	// silent wrong delivery at best, a bounds panic at worst. Local
	// packCut can never produce one; byte-stream peers can.
	for i := 0; i < ncut; i++ {
		sl := haloLo + i
		for _, l := range blk.Lens[i*k : (i+1)*k] {
			if l < 0 || l > bt.capW[sl]+1 {
				return fmt.Errorf("local: cut block len %d exceeds slot capacity %d words", l-1, bt.capW[sl])
			}
		}
	}
	if k == B && ncut > 0 {
		// Full-block fast path: a peer's halo segment is consecutive
		// local slots and offW is a strict prefix sum over them, so the
		// whole install is one dense lens copy and one dense word copy.
		copy(bt.curLens[haloLo*B:(haloLo+ncut)*B], blk.Lens)
		wlo := int(bt.offW[haloLo])
		copy(bt.curWords[wlo*B:wlo*B+wantW], blk.Words)
	} else {
		li0, w0 := 0, 0
		for i := 0; i < ncut; i++ {
			sl := haloLo + i
			li := sl * B
			copy(bt.curLens[li:li+k], blk.Lens[li0:li0+k])
			li0 += k
			if w := int(bt.capW[sl]); w > 0 {
				base := int(bt.offW[sl]) * B
				copy(bt.curWords[base:base+w*k], blk.Words[w0:w0+w*k])
				w0 += w * k
			}
		}
	}
	if bt.curRefs != nil && len(blk.Refs) > 0 {
		if len(blk.Refs) != ncut*k {
			return fmt.Errorf("local: cut block carries %d refs for %d slots × %d lanes", len(blk.Refs), ncut, k)
		}
		r0 := 0
		for i := 0; i < ncut; i++ {
			li := (haloLo + i) * B
			copy(bt.curRefs[li:li+k], blk.Refs[r0:r0+k])
			r0 += k
		}
	}
	return nil
}
