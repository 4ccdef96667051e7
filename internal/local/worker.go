package local

import (
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"rlnc/internal/graph"
	"rlnc/internal/lang"
	"rlnc/internal/localrand"
)

// This file is the worker half of the shard-worker protocol (see
// remote.go for the orchestrator and the message catalogue): ServeShard
// turns the current process into one shard of a remote Sharded. The
// worker rebuilds the job's graph and its compacted slot window from the
// shipped CSR adjacency, establishes direct TCP data links to its peer
// workers, and then drives the very same shardExec machinery the
// in-process orchestrator uses — startPass, execRound, collectInto — one
// control command at a time. `rlnc shard-worker` is the process entry
// point.

// dataPreambleLen is the fixed-width connection preamble a dialing
// worker writes before its first frame: magic "rlSW", the job id, and
// the directed pair. Fixed width (no gob) so the receiving side cannot
// over-read into the first cut-block frame.
const dataPreambleLen = 4 + 8 + 4 + 4

// writeDataPreamble identifies a fresh data connection.
func writeDataPreamble(conn net.Conn, job int64, from, to int32) error {
	var b [dataPreambleLen]byte
	copy(b[0:4], "rlSW")
	binary.LittleEndian.PutUint64(b[4:12], uint64(job))
	binary.LittleEndian.PutUint32(b[12:16], uint32(from))
	binary.LittleEndian.PutUint32(b[16:20], uint32(to))
	_, err := conn.Write(b[:])
	return err
}

// readDataPreamble parses a peer's preamble.
func readDataPreamble(conn net.Conn) (job int64, from, to int32, err error) {
	var b [dataPreambleLen]byte
	if _, err = io.ReadFull(conn, b[:]); err != nil {
		return 0, 0, 0, err
	}
	if string(b[0:4]) != "rlSW" {
		return 0, 0, 0, fmt.Errorf("local: bad data-link preamble magic %q", b[0:4])
	}
	job = int64(binary.LittleEndian.Uint64(b[4:12]))
	from = int32(binary.LittleEndian.Uint32(b[12:16]))
	to = int32(binary.LittleEndian.Uint32(b[16:20]))
	return job, from, to, nil
}

// shardWorker is one serving worker's state: the control connection and
// codecs, the data listener peers dial, and the current job and run.
// sendMu serializes control-stream writes between the serve loop and the
// heartbeat goroutine — a gob encoder is not safe for concurrent use.
type shardWorker struct {
	ctrl   net.Conn
	enc    *gob.Encoder
	dec    *gob.Decoder
	sendMu sync.Mutex
	ln     net.Listener

	// dieAfter counts down on each round command when positive; at zero
	// the worker abruptly closes every connection and exits — the
	// deterministic stand-in for a worker process dying mid-run
	// (ServeOptions.DieAfterRounds, `rlnc shard-worker -die-after-rounds`).
	dieAfter int

	job *workerJob
	run *workerRun
}

// sendMsg encodes one worker message under the write deadline. Deadline
// errors are real failures (a closed or deadline-refusing conn), not
// noise to discard: they surface so the serve loop can exit descriptively.
func (w *shardWorker) sendMsg(m *workerMsg) error {
	w.sendMu.Lock()
	defer w.sendMu.Unlock()
	if err := w.ctrl.SetWriteDeadline(time.Now().Add(ctrlWriteTimeout)); err != nil {
		return fmt.Errorf("local: shard worker write deadline: %w", err)
	}
	if err := w.enc.Encode(m); err != nil {
		return err
	}
	if err := w.ctrl.SetWriteDeadline(time.Time{}); err != nil {
		return fmt.Errorf("local: shard worker clear write deadline: %w", err)
	}
	return nil
}

// workerJob is one (graph, partition, algorithm) job: the rebuilt plan,
// this shard's executor with its windowed batch, and the data
// connections backing its links.
type workerJob struct {
	id      int64
	g       *graph.Graph
	wa      WireAlgorithm
	width   int
	timeout time.Duration
	sh      *shardExec
	conns   []net.Conn
}

// workerRun is one execution vector in flight: lane count, the
// per-lane instances and liveness, and any setup failure to report on
// the next command.
type workerRun struct {
	k        int
	insts    []*lang.Instance
	alive    []bool
	tapes    []localrand.Tape
	errText  string
	panicked string
}

// DefaultWorkerBeat is the heartbeat period a serving worker announces
// and keeps when ServeOptions.Beat is zero. The orchestrator declares a
// worker dead after four silent periods, so with the default a frozen
// worker is detected in ~8s; deployments with very large collect
// payloads on slow links can raise it (`rlnc shard-worker -heartbeat`).
const DefaultWorkerBeat = 2 * time.Second

// ServeOptions configures one serving shard worker.
type ServeOptions struct {
	// Listen is the address the worker's data listener binds. Empty
	// selects a loopback ephemeral port — single-host default. Multi-host
	// workers bind a reachable interface (or ":0" for all interfaces).
	Listen string
	// Advertise is the data address reported to the orchestrator and
	// dialed by peer workers. Empty derives it from the listener: a
	// wildcard host (":0", "0.0.0.0") is replaced by the local address of
	// the control connection — the interface that reaches the
	// orchestrator is the best default guess for what peers can reach.
	Advertise string
	// Beat is the heartbeat period on the control stream; 0 selects
	// DefaultWorkerBeat, negative disables heartbeats entirely.
	Beat time.Duration
	// DieAfterRounds, when positive, abruptly closes every connection and
	// exits with an error after that many round commands — fault
	// injection at the process level, used by CI to prove a mid-run
	// worker death requeues cleanly. Zero never dies.
	DieAfterRounds int
}

// ServeShard serves shard jobs on the control connection until the
// orchestrator closes it, hosting one shard of a remote Sharded per job.
// listenAddr is the data listener's bind address ("" selects a loopback
// ephemeral port). ServeShardOpts is the full-option form.
func ServeShard(ctrl net.Conn, listenAddr string) error {
	return ServeShardOpts(ctrl, ServeOptions{Listen: listenAddr})
}

// errWorkerChaosExit marks a deliberate DieAfterRounds death.
var errWorkerChaosExit = errors.New("local: shard worker chaos exit (die-after-rounds reached)")

// ServeShardOpts serves shard jobs on the control connection until the
// orchestrator closes it. It announces itself with a versioned hello
// (protocol version, data address, registered-algorithm capabilities,
// heartbeat period) and then heartbeats from a dedicated goroutine so
// the orchestrator can tell a long computation from a dead worker.
func ServeShardOpts(ctrl net.Conn, o ServeOptions) error {
	listenAddr := o.Listen
	if listenAddr == "" {
		listenAddr = "127.0.0.1:0"
	}
	ln, err := net.Listen("tcp", listenAddr)
	if err != nil {
		return fmt.Errorf("local: shard worker listen: %w", err)
	}
	beat := o.Beat
	if beat == 0 {
		beat = DefaultWorkerBeat
	}
	w := &shardWorker{
		ctrl:     ctrl,
		enc:      gob.NewEncoder(ctrl),
		dec:      gob.NewDecoder(ctrl),
		ln:       ln,
		dieAfter: o.DieAfterRounds,
	}
	defer w.teardownJob()
	defer ln.Close()
	hello := &helloMsg{
		Version:  ctrlProtoVersion,
		DataAddr: advertiseAddr(o.Advertise, ctrl, ln),
		Algos:    RegisteredRemoteAlgorithms(),
	}
	if beat > 0 {
		hello.BeatMS = beat.Milliseconds()
	}
	if err := w.sendHello(hello); err != nil {
		return fmt.Errorf("local: shard worker hello: %w", err)
	}
	if beat > 0 {
		stop := make(chan struct{})
		defer close(stop)
		go w.heartbeat(beat, stop)
	}
	for {
		var msg ctrlMsg
		if err := w.dec.Decode(&msg); err != nil {
			if errors.Is(err, io.EOF) || errors.Is(err, net.ErrClosed) {
				return nil // orderly shutdown: orchestrator hung up
			}
			return fmt.Errorf("local: shard worker control: %w", err)
		}
		switch {
		case msg.Job != nil:
			ready := &reportMsg{}
			if err := w.setupJob(msg.Job); err != nil {
				ready.Err = err.Error()
			}
			if err := w.sendMsg(&workerMsg{Ready: ready}); err != nil {
				return err
			}
		case msg.Run != nil:
			w.beginRun(msg.Run)
		case msg.Cmd != nil:
			if msg.Cmd.Run && w.dieAfter > 0 {
				if w.dieAfter--; w.dieAfter == 0 {
					// Simulated process death: no farewell on any stream —
					// peers and orchestrator see exactly what a kill -9
					// produces (reset data links, dead control stream).
					w.abruptClose()
					return errWorkerChaosExit
				}
			}
			if err := w.sendMsg(&workerMsg{Report: w.execCmd(msg.Cmd)}); err != nil {
				return err
			}
		}
	}
}

// sendHello encodes the hello under the write deadline (the hello
// predates workerMsg framing, so it cannot ride sendMsg).
func (w *shardWorker) sendHello(h *helloMsg) error {
	w.sendMu.Lock()
	defer w.sendMu.Unlock()
	if err := w.ctrl.SetWriteDeadline(time.Now().Add(ctrlWriteTimeout)); err != nil {
		return fmt.Errorf("local: shard worker write deadline: %w", err)
	}
	if err := w.enc.Encode(h); err != nil {
		return err
	}
	if err := w.ctrl.SetWriteDeadline(time.Time{}); err != nil {
		return fmt.Errorf("local: shard worker clear write deadline: %w", err)
	}
	return nil
}

// heartbeat sends one Beat per period until stop closes or a send fails.
// A failed beat is not itself fatal to the worker: either the control
// stream is dead (the serve loop is about to find out) or nothing has
// read the stream for a full write deadline — both end the goroutine.
func (w *shardWorker) heartbeat(period time.Duration, stop chan struct{}) {
	t := time.NewTicker(period)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			if err := w.sendMsg(&workerMsg{Beat: true}); err != nil {
				return
			}
		case <-stop:
			return
		}
	}
}

// abruptClose severs every connection the worker holds — control, data
// listener, and the current job's data links — with no protocol
// farewell, emulating sudden process death.
func (w *shardWorker) abruptClose() {
	w.ctrl.Close()
	w.ln.Close()
	if w.job != nil {
		for _, c := range w.job.conns {
			c.Close()
		}
	}
}

// advertiseAddr resolves the data address peers will dial: the explicit
// override when set, otherwise the listener's address with a wildcard
// host substituted by the control connection's local IP (a peer cannot
// dial "0.0.0.0"; the interface facing the orchestrator is the sanest
// guess for one peers reach too).
func advertiseAddr(advertise string, ctrl net.Conn, ln net.Listener) string {
	if advertise != "" {
		return advertise
	}
	lnAddr := ln.Addr().String()
	host, port, err := net.SplitHostPort(lnAddr)
	if err != nil {
		return lnAddr
	}
	ip := net.ParseIP(host)
	if host != "" && (ip == nil || !ip.IsUnspecified()) {
		return lnAddr
	}
	if la, ok := ctrl.LocalAddr().(*net.TCPAddr); ok && la.IP != nil && !la.IP.IsUnspecified() {
		return net.JoinHostPort(la.IP.String(), port)
	}
	return lnAddr
}

// teardownJob closes the current job's data connections.
func (w *shardWorker) teardownJob() {
	if w.job == nil {
		return
	}
	for _, c := range w.job.conns {
		c.Close()
	}
	w.job = nil
	w.run = nil
}

// setupJob rebuilds the job's graph, window, and shard executor, and
// establishes the data links to its peers.
func (w *shardWorker) setupJob(spec *jobSpec) error {
	w.teardownJob()
	n := len(spec.Offsets) - 1
	if n < 1 || int(spec.Offsets[n]) != len(spec.Nbrs) {
		return fmt.Errorf("local: job %d ships a malformed CSR adjacency", spec.Job)
	}
	adj := make([][]int32, n)
	for v := 0; v < n; v++ {
		adj[v] = spec.Nbrs[spec.Offsets[v]:spec.Offsets[v+1]]
	}
	g, err := graph.FromAdjacency(adj)
	if err != nil {
		return fmt.Errorf("local: job %d adjacency: %w", spec.Job, err)
	}
	plan, err := NewPlan(g)
	if err != nil {
		return err
	}
	part := graph.Partition{Bounds: spec.Bounds}
	if err := plan.topo.CheckPartition(part); err != nil {
		return fmt.Errorf("local: job %d partition: %w", spec.Job, err)
	}
	me := int(spec.Shard)
	if me < 0 || me >= part.NumShards() || part.NumShards() != len(spec.Peers) {
		return fmt.Errorf("local: job %d names shard %d of %d with %d peers", spec.Job, me, part.NumShards(), len(spec.Peers))
	}
	algo, err := remoteAlgoFor(spec.AlgoKey, spec.AlgoParams)
	if err != nil {
		return err
	}
	cuts := plan.topo.CutSlots(part)
	win := plan.topo.ShardSlots(part, cuts, me)
	lo, hi := part.Shard(me)
	sh := &shardExec{idx: me, lo: lo, hi: hi, win: &win, bt: plan.newWindowBatch(int(spec.Width), &win)}
	for j := 0; j < part.NumShards(); j++ {
		if len(cuts[me][j]) > 0 {
			sh.out = append(sh.out, shardPort{peer: j, cut: cuts[me][j]})
		}
		if len(cuts[j][me]) > 0 {
			sh.in = append(sh.in, shardPort{peer: j, cut: cuts[j][me], haloLo: win.HaloLocal(j)})
		}
	}
	job := &workerJob{
		id:      spec.Job,
		g:       g,
		wa:      wireOf(algo),
		width:   int(spec.Width),
		timeout: time.Duration(spec.TimeoutMS) * time.Millisecond,
		sh:      sh,
	}
	if err := job.connectLinks(w.ln, spec.Peers); err != nil {
		for _, c := range job.conns {
			c.Close()
		}
		return err
	}
	w.job = job
	return nil
}

// connectLinks establishes the job's data connections: one dialed TCP
// connection per out-cut (identified by a fixed preamble) and one
// accepted connection per in-cut, matched to its port by the preamble's
// sender shard. Dials retry with backoff — on separate hosts a peer's
// listener may not be up yet when this worker's job arrives — and never
// wait on accepts (the listener backlog holds them), so the symmetric
// setup cannot deadlock. Deadline errors are checked everywhere: a conn
// that refuses deadlines would otherwise turn a vanished peer into an
// unbounded hang, and the listener deadline is cleared afterwards so a
// stale deadline cannot poison the next job's accepts.
func (j *workerJob) connectLinks(ln net.Listener, peers []string) error {
	window := j.timeout + 5*time.Second
	deadline := time.Now().Add(window)
	for oi := range j.sh.out {
		port := &j.sh.out[oi]
		conn, err := DialRetry("tcp", peers[port.peer], window)
		if err != nil {
			return fmt.Errorf("local: dial peer shard %d: %w", port.peer, err)
		}
		j.conns = append(j.conns, conn)
		if tc, ok := conn.(*net.TCPConn); ok {
			tc.SetNoDelay(true)
		}
		if err := conn.SetWriteDeadline(deadline); err != nil {
			return fmt.Errorf("local: peer shard %d write deadline: %w", port.peer, err)
		}
		if err := writeDataPreamble(conn, j.id, int32(j.sh.idx), int32(port.peer)); err != nil {
			return fmt.Errorf("local: preamble to peer shard %d: %w", port.peer, err)
		}
		if err := conn.SetWriteDeadline(time.Time{}); err != nil {
			return fmt.Errorf("local: peer shard %d clear write deadline: %w", port.peer, err)
		}
		port.link = StreamLink(conn, nil, j.timeout)
	}
	type deadliner interface{ SetDeadline(time.Time) error }
	pending := len(j.sh.in)
	for pending > 0 {
		if d, ok := ln.(deadliner); ok {
			if err := d.SetDeadline(deadline); err != nil {
				return fmt.Errorf("local: data listener deadline: %w", err)
			}
		}
		conn, err := ln.Accept()
		if err != nil {
			return fmt.Errorf("local: accept peer data link: %w", err)
		}
		if err := conn.SetReadDeadline(deadline); err != nil {
			conn.Close()
			return fmt.Errorf("local: peer data-link read deadline: %w", err)
		}
		job, from, to, err := readDataPreamble(conn)
		if err != nil {
			conn.Close()
			return fmt.Errorf("local: peer data-link preamble: %w", err)
		}
		if job != j.id || int(to) != j.sh.idx {
			// A connection from a stale job (or a confused peer): drop it
			// and keep waiting for the current job's links.
			conn.Close()
			continue
		}
		matched := false
		for ii := range j.sh.in {
			port := &j.sh.in[ii]
			if port.peer == int(from) && port.link == nil {
				if err := conn.SetReadDeadline(time.Time{}); err != nil {
					conn.Close()
					return fmt.Errorf("local: peer data-link clear read deadline: %w", err)
				}
				if tc, ok := conn.(*net.TCPConn); ok {
					tc.SetNoDelay(true)
				}
				port.link = StreamLink(nil, conn, j.timeout)
				j.conns = append(j.conns, conn)
				matched = true
				pending--
				break
			}
		}
		if !matched {
			conn.Close()
			return fmt.Errorf("local: unexpected data link from shard %d", from)
		}
	}
	// The accept loop is done: clear the listener deadline so the next
	// job's accepts (or a long idle period) don't inherit a stale one.
	if d, ok := ln.(deadliner); ok {
		if err := d.SetDeadline(time.Time{}); err != nil {
			return fmt.Errorf("local: clear data listener deadline: %w", err)
		}
	}
	return nil
}

// beginRun stands one execution vector up: instances, draws, tapes, and
// the startPass staging. Failures (including panics out of the
// algorithm's Start) are parked and reported on the next command, which
// is when the orchestrator listens.
func (w *shardWorker) beginRun(rs *runSpec) {
	run := &workerRun{}
	w.run = run
	defer func() {
		if r := recover(); r != nil {
			run.panicked = fmt.Sprint(r)
		}
	}()
	if w.job == nil {
		run.errText = "local: run before any job"
		return
	}
	j := w.job
	bt, sh := j.sh.bt, j.sh
	k := int(rs.K)
	if k < 1 || k > j.width {
		run.errText = fmt.Sprintf("local: run of %d lanes on width %d", k, j.width)
		return
	}
	bt.layoutWire(j.wa)
	if int(rs.Block) > bt.block || int(rs.Block) < k {
		run.errText = fmt.Sprintf("local: run block %d outside [%d, %d]", rs.Block, k, bt.block)
		return
	}
	bt.block = int(rs.Block)
	bt.armVec(j.wa, k)
	run.k = k
	if len(rs.Lane) != k {
		run.errText = fmt.Sprintf("local: %d lane indices for %d lanes", len(rs.Lane), k)
		return
	}
	run.insts = make([]*lang.Instance, len(rs.Insts))
	for i, ip := range rs.Insts {
		x := ip.X
		if x == nil {
			x = make([][]byte, j.g.N())
		}
		in, err := lang.NewInstance(j.g, x, ip.ID)
		if err != nil {
			run.errText = fmt.Sprintf("local: run instance %d: %v", i, err)
			return
		}
		run.insts[i] = in
	}
	for _, li := range rs.Lane {
		if int(li) < 0 || int(li) >= len(run.insts) {
			run.errText = fmt.Sprintf("local: run lane instance index %d out of %d", li, len(run.insts))
			return
		}
	}
	laneIns := make([]*lang.Instance, k)
	for b := 0; b < k; b++ {
		laneIns[b] = run.insts[rs.Lane[b]]
	}
	// Reconstruct the effective fault plan (or disarm any previous run's).
	// Lane identities come from the same draw seeds the tapes use, so a
	// faulty remote shard makes byte-identical fault decisions to its
	// in-process twin.
	if rs.HasFault {
		f := &FaultPlan{
			Seed:       rs.FaultSeed,
			Drop:       rs.FaultDrop,
			Delay:      rs.FaultDelay,
			CrashP:     rs.FaultCrashP,
			CrashFrom:  int(rs.FaultCrashFrom),
			CrashUntil: int(rs.FaultCrashUntil),
		}
		if len(rs.FaultCuts)%3 != 0 {
			run.errText = fmt.Sprintf("local: %d fault cut words, want a multiple of 3", len(rs.FaultCuts))
			return
		}
		for i := 0; i < len(rs.FaultCuts); i += 3 {
			f.Surgery = append(f.Surgery, EdgeCut{
				Round: int(rs.FaultCuts[i]),
				U:     int(rs.FaultCuts[i+1]),
				Z:     int(rs.FaultCuts[i+2]),
			})
		}
		var seeds []uint64
		if rs.HasDraws {
			seeds = rs.Draws
		}
		bt.installFaultSeeds(f, seeds, k)
	} else {
		bt.installFaultSeeds(nil, nil, k)
	}
	src := laneSrc{ins: laneIns}
	if rs.HasDraws {
		if len(rs.Draws) != k {
			run.errText = fmt.Sprintf("local: %d draw seeds for %d lanes", len(rs.Draws), k)
			return
		}
		nwin := sh.hi - sh.lo
		run.tapes = make([]localrand.Tape, k*nwin)
		for b := 0; b < k; b++ {
			d := localrand.DrawFromSeed(rs.Draws[b])
			d.TapeVecInto(run.tapes[b*nwin:(b+1)*nwin], laneIns[b].ID[sh.lo:sh.hi])
		}
		src.tapes, src.tlo, src.tn = run.tapes, sh.lo, nwin
	}
	run.alive = make([]bool, j.width)
	for b := 0; b < k; b++ {
		run.alive[b] = true
	}
	bt.ensureWireState()
	bt.ensureWorkerScratch(1)
	// Zero the counter rows before staging, exactly as the in-process
	// shard loop does: a previous run's uncaptured final-round stage
	// counts must not replay into this run's first round.
	clear(bt.wkStage[0])
	clear(bt.wkMsgs[0])
	clear(bt.wkFin[0])
	bt.alive = run.alive
	bt.preparePools(j.wa)
	bt.rk, bt.rwa, bt.rsrc = k, j.wa, src
	bt.startPass(0, sh.lo, sh.hi)
}

// execCmd executes one orchestrator command against the current run and
// returns its report.
func (w *shardWorker) execCmd(cmd *cmdMsg) (rep *reportMsg) {
	rep = &reportMsg{}
	run := w.run
	if run == nil {
		rep.Err = "local: command before any run"
		return rep
	}
	defer func() {
		if r := recover(); r != nil {
			rep = &reportMsg{Panicked: fmt.Sprint(r)}
		}
	}()
	sh := w.job.sh
	bt := sh.bt
	if !cmd.Run {
		if run.errText == "" && run.panicked == "" && cmd.Collect {
			nwin := sh.hi - sh.lo
			rep.Out = make([][]byte, run.k*nwin)
			for v := sh.lo; v < sh.hi; v++ {
				for b := 0; b < run.k; b++ {
					rep.Out[b*nwin+(v-sh.lo)] = bt.outputOf(v, b)
				}
			}
		}
		sh.cleanup()
		w.run = nil
		return rep
	}
	switch {
	case run.panicked != "":
		rep.Panicked = run.panicked
	case run.errText != "":
		rep.Err = run.errText
	case len(cmd.Alive) != run.k:
		rep.Err = fmt.Sprintf("local: liveness vector carries %d lanes, want %d", len(cmd.Alive), run.k)
	default:
		copy(run.alive[:run.k], cmd.Alive)
		if err := sh.execRound(int(cmd.Round), run.k); err != nil {
			rep.Err = err.Error()
			return rep
		}
		rep.Msgs = bt.wkMsgs[0][:run.k]
		rep.Fins = make([]int32, run.k)
		for b, f := range bt.wkFin[0][:run.k] {
			rep.Fins[b] = int32(f)
		}
	}
	return rep
}
