package local

import (
	"encoding/gob"
	"errors"
	"fmt"
	"net"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"rlnc/internal/lang"
)

// This file is the orchestrator half of the shard-worker protocol: a
// Sharded whose shards are real OS processes. The orchestrator keeps the
// whole round loop of sharded.go and swaps only the carrier behind each
// shard driver: remoteConn relays the block and round commands over a
// gob control stream to the shardExec handler in the worker, while the
// cut blocks travel worker-to-worker over direct TCP connections
// carrying the codec.go frames. Worker side: worker.go (ServeShard);
// process entry point: `rlnc shard-worker`.
//
// Protocol (one gob stream per direction per worker):
//
//	worker → orchestrator   helloMsg        once, after connecting: protocol
//	                                        version, data address, registered
//	                                        algorithm keys, heartbeat period
//	worker → orchestrator   workerMsg{Beat} periodic heartbeat, interleaved
//	                                        with any reply below
//	orchestrator → worker   ctrlMsg{Job}    per (graph, algorithm) job
//	worker → orchestrator   workerMsg{Ready}  job built (or its error)
//	orchestrator → worker   ctrlMsg{Run}    per lane block
//	orchestrator → worker   ctrlMsg{Cmd}    per round: run/finish+collect,
//	                                        with the lane-liveness vector
//	worker → orchestrator   workerMsg{Report} per Cmd: per-lane delivered
//	                                        and finished counts, outputs
//	                                        on collect, or an error
//
// Failure model: any control-stream error — a refused deadline, a decode
// failure, a read deadline expiring with no heartbeat — marks the worker
// dead on its WorkerConn and surfaces as an error from the running
// Sharded. The Monte-Carlo scheduler (internal/mc) then closes that
// trial state and retries the in-flight trial chunk on a fresh one;
// NewShardedRemote builds the replacement from the pool's surviving
// workers (or refuses when none are left, and Plan.NewShardedBatch keeps
// the worker on a plain batch), so a worker dying mid-run requeues its chunk instead of
// aborting the sweep — with byte-identical output, per the sharding
// contract.
//
// Randomness, instances, and the graph all cross as plain data (draw
// seeds, identity/input columns, CSR adjacency), so a worker process
// reconstructs bit-identical state: the hard sharding contract — every
// lane byte-identical to the unsharded Batch — holds across process
// boundaries, and the golden CLI tests pin it end to end.

// RemoteAlgorithm is a WireAlgorithm that can cross a process
// boundary: it names itself with a registry key and flat int64
// parameters, from which RegisterRemoteAlgorithm's builder reconstructs
// an identical algorithm inside the worker process. Algorithms without
// this (or with unregistered keys) cannot cross: a remote Sharded
// refuses them, and a Batch holding one runs them itself, which is
// byte-identical by the sharding contract.
type RemoteAlgorithm interface {
	WireAlgorithm
	RemoteSpec() (key string, params []int64)
}

var remoteAlgos sync.Map // key → func([]int64) (WireAlgorithm, error)

// RegisterRemoteAlgorithm installs the builder a shard-worker process
// uses to reconstruct the algorithm named key. Packages register their
// algorithms in init; both ends of the protocol run the same binary, so
// registration is symmetric by construction.
func RegisterRemoteAlgorithm(key string, build func(params []int64) (WireAlgorithm, error)) {
	if _, dup := remoteAlgos.LoadOrStore(key, build); dup {
		panic(fmt.Sprintf("local: remote algorithm %q registered twice", key))
	}
}

// remoteAlgoFor reconstructs a registered remote algorithm, refusing
// one that steps both ways or neither (checkStepping) before any job is
// built from it.
func remoteAlgoFor(key string, params []int64) (WireAlgorithm, error) {
	b, ok := remoteAlgos.Load(key)
	if !ok {
		return nil, fmt.Errorf("local: remote algorithm %q not registered in this binary", key)
	}
	wa, err := b.(func([]int64) (WireAlgorithm, error))(params)
	if err != nil {
		return nil, err
	}
	if err := checkStepping(wa); err != nil {
		return nil, err
	}
	return wa, nil
}

// BuildRemoteAlgorithm reconstructs the algorithm registered under key
// from its flat parameters — the same lookup a shard-worker process
// performs for a shipped job, exported so the serve control plane can
// validate and execute `POST /v1/runs` algorithm jobs against the
// identical registry. Unknown keys and parameter-shape mismatches
// error.
func BuildRemoteAlgorithm(key string, params []int64) (WireAlgorithm, error) {
	return remoteAlgoFor(key, params)
}

// RegisteredRemoteAlgorithms returns the sorted registry keys this
// binary can reconstruct — the capability list a worker advertises in
// its hello.
func RegisteredRemoteAlgorithms() []string {
	var keys []string
	remoteAlgos.Range(func(k, _ any) bool {
		keys = append(keys, k.(string))
		return true
	})
	sort.Strings(keys)
	return keys
}

// --- Wire messages of the control stream ------------------------------------

// ctrlProtoVersion is the control-stream protocol version. Version 2
// added the versioned hello (capabilities + heartbeat period) and the
// heartbeat message; version 3 ships a report's finished counts as the
// engine's own []int row; version 4 ships a collect's outputs as one
// byte column (wireCol) instead of one byte slice per output. The
// orchestrator refuses workers speaking any other version — a silent
// field mismatch between fleet binaries must fail the handshake, not
// corrupt a run.
const ctrlProtoVersion = 4

// helloMsg is the worker's first message: the protocol version it
// speaks, where peers dial its data listener, which remote-algorithm
// registry keys its binary can reconstruct, and how often it will
// heartbeat (0: never).
type helloMsg struct {
	Version  int32
	DataAddr string
	Algos    []string
	BeatMS   int64
}

// jobSpec ships everything a worker needs to stand up one (graph,
// partition, algorithm) job: the CSR adjacency, the cut placement, its
// shard index, and its peers' data addresses.
type jobSpec struct {
	Job        int64
	Offsets    []int32
	Nbrs       []int32
	Bounds     []int32
	Shard      int32
	Width      int32
	AlgoKey    string
	AlgoParams []int64
	Peers      []string
	TimeoutMS  int64
}

// instPayload is one unique instance of a run: identity and input
// columns (the graph is the job's).
type instPayload struct {
	ID []int64
	X  [][]byte
}

// runSpec begins one lane block: per-lane instances (deduplicated:
// Lane[b] indexes Insts) and draw seeds. Round budgets stay with the
// orchestrator — workers execute exactly the rounds they are told to.
type runSpec struct {
	K        int32
	Block    int32
	Insts    []instPayload
	Lane     []int32
	Draws    []uint64 // draw seeds; empty + !HasDraws = deterministic
	HasDraws bool

	// Fault plan, flattened: RunOptions never cross the process boundary,
	// so an enabled effective FaultPlan ships as plain fields with the run
	// and the worker reconstructs an identical plan. Surgery crosses as
	// (Round, U, Z) int64 triples. HasFault false = unperturbed run.
	HasFault        bool
	FaultSeed       uint64
	FaultDrop       float64
	FaultDelay      float64
	FaultCrashP     float64
	FaultCrashFrom  int32
	FaultCrashUntil int32
	FaultCuts       []int64
}

// cmdMsg is one orchestrator command, on either carrier: execute round
// Round (Run), or finish — collecting outputs when Collect. Alive is the
// lane-liveness vector the round pass reads, maintained by the
// orchestrator's halting consensus.
type cmdMsg struct {
	Round   int32
	Run     bool
	Collect bool
	Alive   []bool
}

// ctrlMsg is the orchestrator→worker union: exactly one field is set.
type ctrlMsg struct {
	Job *jobSpec
	Run *runSpec
	Cmd *cmdMsg
}

// reportMsg is the worker's answer to a command: per-lane delivered and
// newly-finished counts (a round), collected outputs (finish+collect; one
// column of k·nwin entries, lane b's node window at [b·nwin, (b+1)·nwin),
// so a reply costs the output bytes plus, only for outputs of mixed
// widths, one end offset each), or a failure. Panicked carries a recovered
// panic as text — the orchestrator surfaces it as an error, since a
// foreign process's panic value cannot be re-raised faithfully.
type reportMsg struct {
	Msgs     []int64
	Fins     []int
	Out      wireCol
	Err      string
	Panicked string
}

// workerMsg is the worker→orchestrator union. Beat marks a heartbeat:
// contentless, sent by the worker's beat goroutine between (and during)
// commands; the orchestrator's recv skips beats, using their arrival to
// refresh its read deadline.
type workerMsg struct {
	Beat   bool
	Ready  *reportMsg // job ack: Err set on failure
	Report *reportMsg
}

// --- Worker pool ------------------------------------------------------------

// WorkerConn is the orchestrator's handle on one shard-worker process:
// the control connection with its gob codecs, the worker's data address,
// and the capabilities and heartbeat period it announced. A control
// failure of any kind marks the conn dead; dead workers are excluded
// from the live set NewShardedRemote builds its shards from.
type WorkerConn struct {
	ctrl     net.Conn
	enc      *gob.Encoder
	dec      *gob.Decoder
	dataAddr string
	algos    map[string]bool
	beat     time.Duration
	dead     atomic.Bool
}

// ctrlWriteTimeout bounds one control-stream encode: a worker that
// cannot absorb a small command within it is as good as gone.
const ctrlWriteTimeout = time.Minute

// NewWorkerConn wraps a freshly accepted control connection, reading and
// validating the worker's versioned hello (bounded by timeout). On error
// the connection is closed — the caller holds no other handle to it once
// it is wrapped, so a failed handshake must not leak the socket.
func NewWorkerConn(ctrl net.Conn, timeout time.Duration) (*WorkerConn, error) {
	w := &WorkerConn{ctrl: ctrl, enc: gob.NewEncoder(ctrl), dec: gob.NewDecoder(ctrl)}
	fail := func(err error) (*WorkerConn, error) {
		ctrl.Close()
		return nil, err
	}
	var hello helloMsg
	if err := decodeWithin(ctrl, w.dec, &hello, timeout); err != nil {
		return fail(fmt.Errorf("local: worker hello: %w", err))
	}
	if hello.Version != ctrlProtoVersion {
		return fail(fmt.Errorf("local: worker speaks control protocol v%d, orchestrator wants v%d (mismatched binaries?)", hello.Version, ctrlProtoVersion))
	}
	w.dataAddr = hello.DataAddr
	w.beat = time.Duration(hello.BeatMS) * time.Millisecond
	w.algos = make(map[string]bool, len(hello.Algos))
	for _, k := range hello.Algos {
		w.algos[k] = true
	}
	return w, nil
}

// DataAddr returns the address peers dial to reach this worker's data
// listener.
func (w *WorkerConn) DataAddr() string { return w.dataAddr }

// Supports reports whether the worker's binary advertised the
// remote-algorithm registry key in its hello.
func (w *WorkerConn) Supports(key string) bool { return w.algos[key] }

// Dead reports whether the control stream has failed; a dead worker is
// excluded from subsequent NewShardedRemote live sets.
func (w *WorkerConn) Dead() bool { return w.dead.Load() }

func (w *WorkerConn) markDead() { w.dead.Store(true) }

// readTimeout is the decode deadline the orchestrator arms while waiting
// on this worker: four missed heartbeats means dead. Workers that
// announced no heartbeat get no deadline (legacy behavior — death then
// surfaces only through TCP resets or link timeouts).
func (w *WorkerConn) readTimeout() time.Duration {
	if w.beat <= 0 {
		return 0
	}
	return 4 * w.beat
}

// send encodes one control message under the write deadline, marking the
// worker dead on any failure.
func (w *WorkerConn) send(m *ctrlMsg) error {
	err := encodeWithin(w.ctrl, w.enc, m)
	if err != nil {
		w.markDead()
	}
	return err
}

// recv decodes the next non-heartbeat worker message. timeout bounds the
// silence the orchestrator tolerates: the deadline is re-armed before
// every decode, so each arriving heartbeat refreshes it and a long
// computation stays alive as long as the worker's beat goroutine does —
// while a frozen or vanished worker surfaces as an error after one
// timeout instead of hanging the driver forever. Any failure marks the
// worker dead.
func (w *WorkerConn) recv(timeout time.Duration) (*workerMsg, error) {
	for {
		var msg workerMsg
		if err := decodeWithin(w.ctrl, w.dec, &msg, timeout); err != nil {
			w.markDead()
			return nil, err
		}
		if !msg.Beat {
			return &msg, nil
		}
	}
}

// encodeWithin encodes m on a control stream under ctrlWriteTimeout.
// Deadline errors are real failures (a closed or deadline-refusing
// conn), not noise to discard.
func encodeWithin(conn net.Conn, enc *gob.Encoder, m any) error {
	if err := conn.SetWriteDeadline(time.Now().Add(ctrlWriteTimeout)); err != nil {
		return fmt.Errorf("local: control write deadline: %w", err)
	}
	if err := enc.Encode(m); err != nil {
		return err
	}
	if err := conn.SetWriteDeadline(time.Time{}); err != nil {
		return fmt.Errorf("local: control clear write deadline: %w", err)
	}
	return nil
}

// decodeWithin decodes the next control-stream message into m, waiting
// at most timeout (0: no deadline).
func decodeWithin(conn net.Conn, dec *gob.Decoder, m any, timeout time.Duration) error {
	if timeout > 0 {
		if err := conn.SetReadDeadline(time.Now().Add(timeout)); err != nil {
			return fmt.Errorf("local: control read deadline: %w", err)
		}
	}
	if err := dec.Decode(m); err != nil {
		return err
	}
	if timeout > 0 {
		if err := conn.SetReadDeadline(time.Time{}); err != nil {
			return fmt.Errorf("local: control clear read deadline: %w", err)
		}
	}
	return nil
}

// Close closes the control connection, which a serving worker treats as
// shutdown.
func (w *WorkerConn) Close() error { return w.ctrl.Close() }

// WorkerPool is a fixed set of shard-worker processes serving one remote
// Sharded at a time: jobs sequence on the shared control streams, so a
// pool must be acquired before NewShardedRemote uses it and released
// when that Sharded is done (Sharded.Close does).
type WorkerPool struct {
	workers []*WorkerConn

	mu      sync.Mutex
	jobSeq  int64
	current *Sharded // whose job the workers currently hold
	busy    bool
}

// NewWorkerPool assembles a pool from connected workers.
func NewWorkerPool(workers []*WorkerConn) *WorkerPool {
	return &WorkerPool{workers: workers}
}

// Size returns the total worker count, dead workers included.
func (p *WorkerPool) Size() int { return len(p.workers) }

// Live returns how many workers still hold a healthy control stream —
// the shard count of the next Sharded the pool backs.
func (p *WorkerPool) Live() int { return len(p.liveWorkers()) }

// liveWorkers selects the workers whose control streams have not failed.
func (p *WorkerPool) liveWorkers() []*WorkerConn {
	live := make([]*WorkerConn, 0, len(p.workers))
	for _, w := range p.workers {
		if !w.Dead() {
			live = append(live, w)
		}
	}
	return live
}

// acquire reserves the pool for one Sharded; a pool serves one at a
// time (Monte-Carlo harnesses with more worker groups keep the others
// on plain batches, which the sharding contract keeps byte-identical).
func (p *WorkerPool) acquire() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.busy {
		return errors.New("local: worker pool already serving a sharded executor")
	}
	p.busy = true
	return nil
}

// release returns the pool; the workers keep their last job until the
// next Sharded replaces it.
func (p *WorkerPool) release() {
	p.mu.Lock()
	p.busy = false
	p.mu.Unlock()
}

// Close closes every control connection, shutting serving workers down.
func (p *WorkerPool) Close() {
	for _, w := range p.workers {
		w.Close()
	}
}

// --- Remote Sharded ---------------------------------------------------------

// NewShardedRemote is NewSharded with the shards hosted by the pool's
// worker processes: one shard per live worker (capped at the graph's
// node count), balanced cuts, cut blocks on direct worker-to-worker TCP
// links, rounds and consensus driven over the control streams. Results
// are byte-identical to NewSharded — and to the unsharded Batch — at
// equal seeds and any worker count. The pool is reserved until Close.
//
// Dead workers are skipped, so a pool that lost members mid-sweep keeps
// serving with the survivors; only a pool with no live worker errors,
// which is the signal for Plan.NewShardedBatch to keep the worker on a
// plain batch.
func (p *Plan) NewShardedRemote(width int, pool *WorkerPool) (*Sharded, error) {
	if err := pool.acquire(); err != nil {
		return nil, err
	}
	live := pool.liveWorkers()
	if n := p.g.N(); len(live) > n {
		live = live[:n]
	}
	if len(live) == 0 {
		pool.release()
		return nil, errors.New("local: worker pool has no live workers")
	}
	s, err := p.NewSharded(width, len(live))
	if err != nil {
		pool.release()
		return nil, err
	}
	s.remote = pool
	s.remoteWorkers = live
	local := s.conns
	s.conns = make([]shardConn, len(live))
	for i, w := range live {
		s.conns[i] = &remoteConn{s: s, idx: i, w: w}
	}
	s.closeLinks = func() {
		s.remote = nil
		s.remoteWorkers = nil
		s.conns = local
		pool.release()
	}
	return s, nil
}

// ensureRemoteJob makes the workers hold this Sharded's (graph,
// partition, algorithm) job, shipping a fresh jobSpec when the pool
// currently holds another Sharded's job or another algorithm.
func (s *Sharded) ensureRemoteJob(algo RemoteAlgorithm) error {
	key, params := algo.RemoteSpec()
	pool := s.remote
	pool.mu.Lock()
	same := pool.current == s && s.remoteKey == key && slices.Equal(s.remoteParams, params)
	if !same {
		pool.jobSeq++
		s.remoteJob = pool.jobSeq
		pool.current = s
		s.remoteKey, s.remoteParams = key, append([]int64(nil), params...)
	}
	pool.mu.Unlock()
	if same {
		return nil
	}
	topo := s.plan.topo
	workers := s.remoteWorkers
	peers := make([]string, len(workers))
	for i, w := range workers {
		peers[i] = w.dataAddr
	}
	for i, w := range workers {
		spec := &jobSpec{
			Job:        s.remoteJob,
			Offsets:    topo.Offsets,
			Nbrs:       topo.Nbrs,
			Bounds:     s.part.Bounds,
			Shard:      int32(i),
			Width:      int32(s.width),
			AlgoKey:    key,
			AlgoParams: params,
			Peers:      peers,
			TimeoutMS:  s.linkTimeout.Milliseconds(),
		}
		if err := w.send(&ctrlMsg{Job: spec}); err != nil {
			return fmt.Errorf("local: send job to worker %d: %w", i, err)
		}
	}
	for i, w := range workers {
		// Link setup dials peers with retry, so an ack may take a while;
		// the worker's heartbeats keep refreshing the deadline throughout.
		msg, err := w.recv(w.readTimeout())
		if err != nil {
			return fmt.Errorf("local: worker %d job ack: %w", i, err)
		}
		if msg.Ready == nil {
			w.markDead() // protocol violation: the stream is desynced
			return fmt.Errorf("local: worker %d answered a job with no ready ack", i)
		}
		if msg.Ready.Err != "" {
			return fmt.Errorf("local: worker %d job setup: %s", i, msg.Ready.Err)
		}
	}
	return nil
}

// flattenRun builds a lane block's control-stream form, once per block
// for every worker: deduplicated instances with per-lane indices, draw
// seeds, and the effective fault plan as flat fields (decodeRun rebuilds
// them).
func flattenRun(run *shardRun) *runSpec {
	k := run.k
	rs := &runSpec{K: int32(k), Block: int32(run.block), Lane: make([]int32, k)}
	idxOf := make(map[*lang.Instance]int32, 1)
	for b := 0; b < k; b++ {
		in := run.src.instance(b)
		idx, ok := idxOf[in]
		if !ok {
			idx = int32(len(rs.Insts))
			idxOf[in] = idx
			rs.Insts = append(rs.Insts, instPayload{ID: in.ID, X: in.X})
		}
		rs.Lane[b] = idx
	}
	if run.draws != nil {
		rs.HasDraws = true
		rs.Draws = make([]uint64, k)
		for b := 0; b < k; b++ {
			rs.Draws[b] = run.draws[b].Seed()
		}
	}
	if f := run.fault; f.Enabled() {
		rs.HasFault = true
		rs.FaultSeed = f.Seed
		rs.FaultDrop = f.Drop
		rs.FaultDelay = f.Delay
		rs.FaultCrashP = f.CrashP
		rs.FaultCrashFrom = int32(f.CrashFrom)
		rs.FaultCrashUntil = int32(f.CrashUntil)
		for _, c := range f.Surgery {
			rs.FaultCuts = append(rs.FaultCuts, int64(c.Round), int64(c.U), int64(c.Z))
		}
	}
	return rs
}

// remoteConn is the control-stream carrier of shard idx: its handler
// runs in the worker process behind w, the block crosses as its runSpec,
// and each command and report as one gob message.
type remoteConn struct {
	s   *Sharded
	idx int
	w   *WorkerConn
}

func (c *remoteConn) begin(run *shardRun) error {
	if err := c.w.send(&ctrlMsg{Run: run.spec}); err != nil {
		return fmt.Errorf("local: send run to worker %d: %w", c.idx, err)
	}
	return nil
}

func (c *remoteConn) exec(cmd cmdMsg) (shardReport, error) {
	w := c.w
	// Round replies are small and heartbeat-covered; a collect reply can
	// be a large gob message whose decode outlasts the heartbeat window
	// on a slow link, so it gets the more generous of the two bounds.
	timeout := w.readTimeout()
	if cmd.Collect {
		timeout = max(timeout, 2*c.s.linkTimeout)
	}
	if err := w.send(&ctrlMsg{Cmd: &cmd}); err != nil {
		return shardReport{}, fmt.Errorf("local: worker %d command: %w", c.idx, err)
	}
	wm, err := w.recv(timeout)
	if err != nil {
		return shardReport{}, fmt.Errorf("local: worker %d report: %w", c.idx, err)
	}
	rep := wm.Report
	switch {
	case rep == nil:
		w.markDead() // protocol violation: the stream is desynced
		return shardReport{}, fmt.Errorf("local: worker %d answered a command with no report", c.idx)
	case rep.Panicked != "":
		return shardReport{panicked: workerPanic(rep.Panicked)}, nil
	case rep.Err != "":
		return shardReport{err: errors.New(rep.Err)}, nil
	}
	return shardReport{msgs: rep.Msgs, fins: rep.Fins, out: rep.Out}, nil
}
