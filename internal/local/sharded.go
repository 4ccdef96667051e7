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
// on the wire.
type CutBlock struct {
	Lens  []int32
	Words []uint64
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
// backstop for links built without an abort latch. Each direction keeps
// one deadline timer, made on its first wait and re-armed with Reset on
// every later one, so a long run's waits allocate nothing. The two must
// be separate: Send runs on the sending shard's goroutine and Recv on
// the receiver's. (Go 1.23+ timers: Reset and Stop never leave a stale
// expiry in the channel.)
type chanLink struct {
	ch      chan CutBlock
	abort   <-chan struct{}
	timeout time.Duration
	sendTm  *time.Timer
	recvTm  *time.Timer
}

// arm starts the deadline of one wait on *tm and returns its channel, or
// nil (never ready) when the link has no deadline. The caller stops the
// timer when the wait ends.
func (l *chanLink) arm(tm **time.Timer) <-chan time.Time {
	if l.timeout <= 0 {
		return nil
	}
	if *tm == nil {
		*tm = time.NewTimer(l.timeout)
	} else {
		(*tm).Reset(l.timeout)
	}
	return (*tm).C
}

func (l *chanLink) Send(round int, block CutBlock) error {
	select {
	case l.ch <- block:
		return nil
	case <-l.abort:
		return errShardAborted
	default:
	}
	expired := l.arm(&l.sendTm)
	if expired != nil {
		defer l.sendTm.Stop()
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
	expired := l.arm(&l.recvTm)
	if expired != nil {
		defer l.recvTm.Stop()
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

	// linkTimeout is the deadline handed to built-in links and
	// transports; closeLinks tears down an installed transport's
	// resources on Close.
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

	// conns carries each shard's handler calls (in process, or over the
	// control stream in remote mode); ctrl feeds each shard's driver,
	// which consumes every command it is sent, so runs reuse them.
	conns []shardConn
	ctrl  []chan cmdMsg

	// Orchestrator-owned per-run state: the lane ledger (the same one
	// the unsharded round loop keeps), the block every driver begins,
	// the shared report channel, the abort latch that unblocks links
	// when a shard dies, and the reusable per-shard death flags.
	led     laneLedger
	run     shardRun
	reports chan shardReport
	abort   chan struct{}
	deadSh  []bool
	got     []lang.Column // the collect's accepted shard columns, by shard
}

// shardExec is one shard's command handler, in process and in a
// shard-worker process alike: its node range, its private windowed Batch
// (slabs compacted to the shard's own slot range plus the remote halo it
// reads, indexed by window-local slot), its link ports, and the run in
// flight — lane count, its own liveness row, tape and collect windows,
// and the error or recovered panic it parks until the next command.
type shardExec struct {
	idx    int
	lo, hi int
	bt     *Batch
	out    []shardPort
	in     []shardPort

	k        int
	alive    []bool
	tapes    []localrand.Tape
	outs     outCols
	col      [1]lang.Column
	err      error
	panicked any
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

// shardRun is one lane block in the handler's form; spec is its
// flattened control-stream form, set only for worker processes.
type shardRun struct {
	k, block int
	wa       WireAlgorithm
	src      laneSrc
	draws    []localrand.Draw
	fault    *FaultPlan
	spec     *runSpec
}

// shardReport is one shard's answer to a command: the round's per-lane
// delivered and newly-finished counts, the node window's outputs on a
// collecting finish (one column of k·nwin entries, lane-major), an error,
// or a recovered panic (the raw value in process, a workerPanic from a
// worker process).
type shardReport struct {
	from     int
	msgs     []int64
	fins     []int
	out      wireCol
	err      error
	panicked any
}

// workerPanic is a panic recovered in a shard-worker process, as text: a
// foreign panic value cannot be re-raised faithfully, so it fails the
// run as an error.
type workerPanic string

// shardConn carries one shard's begin and exec between the orchestrator
// and the handler; an error means the carrier itself broke (a dead
// control stream), not that the handler reported a failure.
type shardConn interface {
	begin(run *shardRun) error
	exec(cmd cmdMsg) (shardReport, error)
}

// localConn is the in-process carrier: direct calls, the block's lane
// source, draws and fault plan passed through unchanged.
type localConn struct{ sh *shardExec }

func (c localConn) begin(run *shardRun) error { c.sh.begin(run); return nil }

func (c localConn) exec(cmd cmdMsg) (shardReport, error) { return c.sh.exec(cmd), nil }

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
		sh := p.newShardExec(width, part, s.cuts, i)
		s.shards = append(s.shards, sh)
		s.conns = append(s.conns, localConn{sh})
		s.ctrl = append(s.ctrl, make(chan cmdMsg, 1))
	}
	return s, nil
}

// newShardExec builds shard i's handler with its ports in peer order.
// Ports are persistent (their staging buffers amortize across runs);
// links are installed per run or per job.
func (p *Plan) newShardExec(width int, part graph.Partition, cuts [][][]int32, i int) *shardExec {
	lo, hi := part.Shard(i)
	win := p.topo.ShardSlots(part, cuts, i)
	sh := &shardExec{idx: i, lo: lo, hi: hi, bt: p.newWindowBatch(width, &win)}
	for j := range cuts {
		if len(cuts[i][j]) > 0 {
			sh.out = append(sh.out, shardPort{peer: j, cut: cuts[i][j]})
		}
		if len(cuts[j][i]) > 0 {
			sh.in = append(sh.in, shardPort{peer: j, cut: cuts[j][i], haloLo: win.HaloLocal(j)})
		}
	}
	return sh
}

// ShardProvider builds the sharded executor of one worker: shards
// shards of lane capacity width over plan. (*Plan).NewSharded is the
// in-process provider; the CLI and serve inject loopback-TCP links or a
// shard-worker pool through this type. A provider may refuse — a worker
// pool serves one executor at a time, and a pool with no live worker
// serves none — and Plan.NewShardedBatch then keeps the worker on a
// plain batch.
type ShardProvider func(plan *Plan, width, shards int) (*Sharded, error)

// NewShardedBatch returns the one execution handle a Monte-Carlo worker
// holds: a batch of the given width whose message runs go across a
// sharded executor when the run asks for one. It owns the shard choice
// and every fallback: shards is clamped to the graph's node count,
// shards ≤ 1 gives a plain batch, a nil provide defaults to
// (*Plan).NewSharded, and a refusing provider leaves the plain batch.
// The sharding contract keeps every result byte-identical whichever
// shape serves it. Ball-view and decision passes always run on the
// batch itself: they are node-local and gain nothing from a cut
// exchange. Close releases the executor's transport.
func (p *Plan) NewShardedBatch(width, shards int, provide ShardProvider) *Batch {
	bt := p.NewBatch(width)
	if n := p.g.N(); shards > n {
		shards = n
	}
	if shards <= 1 {
		return bt
	}
	if provide == nil {
		provide = (*Plan).NewSharded
	}
	if sh, err := provide(p, width, shards); err == nil {
		bt.attach(sh)
	}
	return bt
}

// attach makes sh the batch's message executor, arming it with the
// batch's default fault plan.
func (bt *Batch) attach(sh *Sharded) {
	bt.sh = sh
	sh.SetFault(bt.defFault)
}

// Close releases the transport of the batch's sharded executor
// (sockets, a worker-pool lease) and detaches it, so later runs stay on
// the batch. It is a no-op on a plain batch and safe to repeat;
// mc.Executor closes worker states when their worker retires.
func (bt *Batch) Close() error {
	sh := bt.sh
	if sh == nil {
		return nil
	}
	bt.sh = nil
	return sh.Close()
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
// Recv (DefaultLinkTimeout initially; 0 disables). The loopback-TCP and
// shard-worker transports take it too.
func (s *Sharded) SetLinkTimeout(d time.Duration) { s.linkTimeout = d }

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

// NumShards returns the shard count.
func (s *Sharded) NumShards() int { return s.part.NumShards() }

// ShardSlabBytes reports, per shard, the wire-slab byte footprint one
// pass of algo would stream on that shard's compacted window — the
// memory a shard machine actually pays. The compaction gate compares it
// against a full batch's SlabBytesFor, which is what every shard paid
// when shards held full-size global-slot slabs.
func (s *Sharded) ShardSlabBytes(algo WireAlgorithm) []int {
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
func (s *Sharded) Run(in *lang.Instance, algo WireAlgorithm, draws []localrand.Draw, opts RunOptions) ([]*Result, error) {
	return s.runVector(in, nil, algo, draws, opts)
}

// carries reports whether the executor can run algo: always in
// process, and on worker processes only when algo is reconstructible
// from this binary's registry AND advertised by every live worker's
// handshake — a fleet of mixed binaries must not ship a job half its
// workers cannot build. A Batch holding a remote Sharded runs the
// algorithms it does not carry itself (byte-identical by the sharding
// contract).
func (s *Sharded) carries(algo WireAlgorithm) bool {
	if s.remote == nil {
		return true
	}
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
func (s *Sharded) RunInstances(ins []*lang.Instance, algo WireAlgorithm, draws []localrand.Draw, opts RunOptions) ([]*Result, error) {
	return s.runVector(nil, ins, algo, draws, opts)
}

// runVector validates a lane vector on shard 0's batch (every shard
// batch has the executor's width and plan) and runs it.
func (s *Sharded) runVector(in *lang.Instance, ins []*lang.Instance, algo WireAlgorithm, draws []localrand.Draw, opts RunOptions) ([]*Result, error) {
	src, k, err := s.shards[0].bt.laneVector(in, ins, draws)
	if err != nil {
		return nil, err
	}
	return s.runLanes(src, k, algo, draws, opts)
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

// runLanes opens a sharded run of a lane vector — the common lane
// block, a fresh abort latch and report channel, the job on the worker
// processes or this run's links — and drives it through the shared block
// loop (laneLedger.runBlocks), one orchestrated round loop per block.
// Compacted windows give every shard its own slab budget block, so the
// orchestrator imposes the minimum on all shards. Every shard seeds the
// tapes of its own node window, so the orchestrator never materializes
// tapes.
func (s *Sharded) runLanes(all laneSrc, k int, wa WireAlgorithm, draws []localrand.Draw, opts RunOptions) ([]*Result, error) {
	block, err := s.layoutShards(wa)
	if err != nil {
		return nil, err
	}
	if !s.carries(wa) {
		return nil, fmt.Errorf("local: %s cannot cross to the shard workers", wa.Name())
	}
	s.run = shardRun{block: block, wa: wa}
	s.abort = make(chan struct{})
	s.reports = make(chan shardReport, len(s.shards))
	if s.remote != nil {
		if err := s.ensureRemoteJob(wa.(RemoteAlgorithm)); err != nil {
			return nil, err
		}
	} else {
		s.buildLinks()
	}
	return s.led.runBlocks(s.plan.g.N(), s.run.block, all, k, draws,
		func(src laneSrc, k int, draws []localrand.Draw, out *outCols) error {
			return s.runVec(src, k, draws, opts, out)
		})
}

// layoutShards computes every shard's wire layout for wa and returns the
// minimum of their lane blocks, which every shard's begin imposes: lanes
// are independent, so any agreed split is byte-identical. A kernel a
// shard's layout refuses is refused here, before any job ships.
func (s *Sharded) layoutShards(wa WireAlgorithm) (int, error) {
	block := 0
	for _, sh := range s.shards {
		// A shard window takes edge slots whatever the fault plan.
		if err := sh.bt.layoutWire(wa, nil); err != nil {
			return 0, err
		}
		if block == 0 || sh.bt.block < block {
			block = sh.bt.block
		}
	}
	return block, nil
}

// runVec runs one lane block of k lanes across the shards, one driver
// goroutine per shard whatever the carrier. Each round's shard reports
// are validated and summed into the lane ledger — the same ledger, round
// budget and halting consensus the unsharded round loop keeps — whose
// liveness rides the next round command. The final collect's columns
// are validated as they arrive and gathered into out's block once all
// are in.
func (s *Sharded) runVec(src laneSrc, k int, chunk []localrand.Draw, opts RunOptions, out *outCols) error {
	led := &s.led
	led.begin(k, s.plan.g.N(), opts)
	dead := sliceFor(s.deadSh, len(s.shards))
	clear(dead)
	s.deadSh = dead
	s.got = sliceFor(s.got, len(s.shards))
	clear(s.got)
	// The effective fault plan is resolved once here, so every shard —
	// in-process batch or worker process — arms identical fault state;
	// decisions are keyed on global coordinates, making faulty sharded
	// runs byte-identical to faulty unsharded ones.
	run := &s.run
	run.k, run.src, run.draws = k, src, chunk
	run.fault = effectiveFault(opts, s.defFault)
	run.spec = nil
	if s.remote != nil {
		run.spec = flattenRun(run)
	}
	for i := range s.shards {
		go s.drive(i)
	}
	live := len(s.shards)
	var panicked any
	var linkErr error
	aborted := false

	// exec broadcasts cmd to every live shard and gathers one report per
	// live shard, in arrival order (a shard blocked on a dead peer's block
	// reports only after the abort latch trips, which happens when the
	// failing shard's own report is read here — so arrival order is the
	// only safe order). A panicked shard gets no further command.
	exec := func(cmd cmdMsg) {
		for i, d := range dead {
			if !d {
				s.ctrl[i] <- cmd
			}
		}
		for got := live; got > 0; got-- {
			rep := <-s.reports
			err := s.accept(&rep, cmd, k)
			if rep.panicked != nil {
				dead[rep.from] = true
				live--
				if _, text := rep.panicked.(workerPanic); !text && panicked == nil {
					panicked = rep.panicked
				}
			}
			if err != nil && linkErr == nil {
				linkErr = err
			}
			if (err != nil || rep.panicked != nil) && !aborted {
				aborted = true
				close(s.abort)
			}
		}
	}

	var runErr error
	for round := 1; ; round++ {
		if runErr = led.admit(round); runErr != nil {
			break
		}
		exec(cmdMsg{Round: int32(round), Run: true, Alive: led.alive})
		if panicked != nil || linkErr != nil || led.endRound(round) {
			break
		}
	}
	exec(cmdMsg{Collect: runErr == nil && linkErr == nil && panicked == nil})
	if panicked != nil {
		panic(panicked)
	}
	if runErr != nil {
		return runErr
	}
	if linkErr != nil {
		// A failure surfacing only in the final gather (a worker dying at
		// collection, above all) must not pass for a clean run.
		return fmt.Errorf("local: sharded exchange: %w", linkErr)
	}
	s.gather(out, k)
	return nil
}

// accept validates one shard report against the command it answers,
// whatever the carrier, and applies it: a round's k lanes of counts go
// to the ledger, a collect's column over the shard's node window — k·nwin
// entries, with in-range monotone ends or one consistent width — is kept
// for gather. It returns the failure the report carries or is: a
// malformed column is an error, never a panic. A worker's panic text is
// such a failure; a raw panic value is left to the caller to re-raise.
func (s *Sharded) accept(rep *shardReport, cmd cmdMsg, k int) error {
	switch {
	case rep.panicked != nil:
		if text, ok := rep.panicked.(workerPanic); ok {
			return fmt.Errorf("local: worker %d shard panic: %s", rep.from, text)
		}
		return nil
	case rep.err != nil:
		return rep.err
	case cmd.Run:
		if len(rep.msgs) != k || len(rep.fins) != k {
			return fmt.Errorf("local: shard %d round report carries %d/%d lanes, want %d", rep.from, len(rep.msgs), len(rep.fins), k)
		}
		s.led.add(rep.msgs, rep.fins)
	case cmd.Collect:
		sh := s.shards[rep.from]
		nwin := sh.hi - sh.lo
		col, err := rep.out.column()
		if err != nil {
			return fmt.Errorf("local: shard %d collect: %w", rep.from, err)
		}
		if col.Len() != k*nwin {
			return fmt.Errorf("local: shard %d collected %d outputs, want %d", rep.from, col.Len(), k*nwin)
		}
		s.got[rep.from] = col
	}
	return nil
}

// gather assembles the block's k lanes from the shards' accepted
// columns (shard i's column holds lane b's node window at [b·nwin,
// (b+1)·nwin)). The block is fixed-form when every non-empty shard column
// is fixed at one width — a copy of each lane's window — and is appended
// in offsets form, lane by lane in node order, otherwise.
func (s *Sharded) gather(out *outCols, k int) {
	n := s.plan.g.N()
	w, fixed := 0, true
	seen := false
	for _, c := range s.got {
		if c.Len() == 0 {
			continue
		}
		cw, ok := c.Width()
		if !ok || (seen && cw != w) {
			fixed = false
			break
		}
		w, seen = cw, true
	}
	if fixed {
		out.fixed(k, w)
		for i, sh := range s.shards {
			nwin := sh.hi - sh.lo
			data, _ := s.got[i].Parts()
			for b := 0; b < k; b++ {
				copy(out.fix[(b*n+sh.lo)*w:(b*n+sh.hi)*w], data[b*nwin*w:(b+1)*nwin*w])
			}
		}
	} else {
		out.ragged()
		for b := 0; b < k; b++ {
			for i, sh := range s.shards {
				nwin := sh.hi - sh.lo
				for v := b * nwin; v < (b+1)*nwin; v++ {
					out.add(s.got[i].At(v))
				}
			}
		}
	}
}

// drive is shard i's driver goroutine, for every carrier: it begins the
// block, then answers each command with exactly one report, and exits
// after a finish or a panic (which marks the shard dead). A broken
// carrier degrades to error reports, so the round loop unwinds exactly
// like an exchange failure.
func (s *Sharded) drive(i int) {
	c := s.conns[i]
	broken := c.begin(&s.run)
	for {
		cmd := <-s.ctrl[i]
		var rep shardReport
		if broken == nil {
			rep, broken = c.exec(cmd)
		}
		if broken != nil {
			// A broken carrier is an error whenever the command needed an
			// answer: every round command, and a collecting finish (silent
			// nil outputs must not pass for a clean run). A plain finish
			// after an already-reported failure just acks.
			rep = shardReport{}
			if cmd.Run || cmd.Collect {
				rep.err = broken
			}
		}
		rep.from = i
		s.reports <- rep
		if !cmd.Run || rep.panicked != nil {
			return
		}
	}
}

// reset drops the handler's run and parks err (nil: none) for the next
// command.
func (sh *shardExec) reset(err error) { sh.k, sh.err, sh.panicked = 0, err, nil }

// begin stands one lane block up on the shard: it checks k against the
// width and the block against the shard's own layout, seeds the tapes of
// its node window, then runs the pass setup and the start pass.
// Failures, panics included, are parked for the next command, which is
// when the orchestrator listens.
func (sh *shardExec) begin(run *shardRun) {
	sh.reset(nil)
	bt := sh.bt
	defer func() {
		if r := recover(); r != nil {
			bt.endRun()
			sh.panicked = r
		}
	}()
	k := run.k
	if sh.err = bt.lanes(k); sh.err != nil {
		return
	}
	if sh.err = bt.layoutWire(run.wa, run.fault); sh.err != nil {
		return
	}
	if run.block > bt.block || run.block < k {
		sh.err = fmt.Errorf("local: run block %d outside [%d, %d]", run.block, k, bt.block)
		return
	}
	bt.block = run.block
	sh.k = k
	src := run.src
	sh.tapes = seedTapes(sh.tapes, sh.lo, sh.hi, run.draws, &src)
	sh.alive = sliceFor(sh.alive, k)
	for b := range sh.alive {
		sh.alive[b] = true
	}
	bt.beginPass(src, k, run.wa, run.draws, run.fault, sh.alive, 1)
	bt.startPass(0, sh.lo, sh.hi)
}

// exec answers one command. A round copies the liveness in, runs
// execRound and reports worker 0's count rows (valid until the next
// command); a finish collects the node window when asked and nothing
// failed, then ends the run. A parked failure answers every round; a
// panic is recovered into the report and parked.
func (sh *shardExec) exec(cmd cmdMsg) (rep shardReport) {
	bt := sh.bt
	defer func() {
		if r := recover(); r != nil {
			bt.endRun()
			sh.panicked = r
			rep = shardReport{panicked: r}
		}
	}()
	if !cmd.Run {
		if cmd.Collect && sh.err == nil && sh.panicked == nil {
			rep.out = sh.collect()
		}
		// Cleanup strictly before the report: the report releases the
		// orchestrator, which may immediately hand this batch to the
		// next block's driver.
		bt.endRun()
		sh.reset(nil)
		return rep
	}
	switch {
	case sh.panicked != nil:
		return shardReport{panicked: sh.panicked}
	case sh.err != nil:
		return shardReport{err: sh.err}
	case sh.k == 0:
		return shardReport{err: errors.New("local: command before any run")}
	case len(cmd.Alive) != sh.k:
		return shardReport{err: fmt.Errorf("local: liveness vector carries %d lanes, want %d", len(cmd.Alive), sh.k)}
	}
	copy(sh.alive, cmd.Alive)
	if err := sh.execRound(int(cmd.Round), sh.k); err != nil {
		return shardReport{err: err}
	}
	return shardReport{msgs: bt.wkMsgs[0][:sh.k], fins: bt.wkFin[0][:sh.k]}
}

// collect gathers the shard's node window, every lane, into one column
// of k·nwin entries (lane b's window at [b·nwin, (b+1)·nwin)): fixed-form
// at the width of lane 0's first output, refilled in offsets form if
// another width turns up. The column is valid until the next collect.
func (sh *shardExec) collect() wireCol {
	bt, o := sh.bt, &sh.outs
	nwin := sh.hi - sh.lo
	o.begin(1, sh.k*nwin)
	o.fixed(1, bt.outWidth(sh.lo, sh.hi))
	if !bt.collectRange(0, sh.lo, sh.hi, o, nwin, sh.lo) {
		o.ragged()
		bt.collectRange(0, sh.lo, sh.hi, o, nwin, sh.lo)
	}
	o.seal(sh.col[:])
	return wireColOf(sh.col[0])
}

// execRound is one shard's round: the cut exchange, the round pass over
// the shard's node window (leaving its counts in worker 0's rows), and
// the slab swap.
func (sh *shardExec) execRound(round, k int) error {
	bt := sh.bt
	if err := sh.exchange(round, k); err != nil {
		return err
	}
	bt.rround = round
	bt.roundPass(0, sh.lo, sh.hi)
	bt.curLens, bt.nextLens = bt.nextLens, bt.curLens
	bt.curWords, bt.nextWord = bt.nextWord, bt.curWords
	return nil
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
	return nil
}
