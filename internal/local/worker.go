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
// shipped CSR adjacency and establishes direct TCP data links to its
// peer workers. Its serve loop decodes each shipped block (decodeRun)
// and hands it, and every command after it, to the shardExec handler
// an in-process shard runs too. `rlnc shard-worker` is the process
// entry point.

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
// codecs, the data listener peers dial, and the current job.
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
}

// sendMsg encodes one worker message — the hello, or a workerMsg —
// under the write deadline; its errors surface so the serve loop can
// exit descriptively.
func (w *shardWorker) sendMsg(m any) error {
	w.sendMu.Lock()
	defer w.sendMu.Unlock()
	return encodeWithin(w.ctrl, w.enc, m)
}

// workerJob is one (graph, partition, algorithm) job: the algorithm,
// this shard's handler with its windowed batch over the rebuilt plan,
// and the data connections backing its links.
type workerJob struct {
	id      int64
	wa      WireAlgorithm
	timeout time.Duration
	sh      *shardExec
	conns   []net.Conn
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
	if err := w.sendMsg(hello); err != nil {
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
	w.teardownJob()
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
	if spec.Width < 1 {
		return fmt.Errorf("local: job %d width %d, need >= 1", spec.Job, spec.Width)
	}
	job := &workerJob{
		id:      spec.Job,
		wa:      algo,
		timeout: time.Duration(spec.TimeoutMS) * time.Millisecond,
		sh:      plan.newShardExec(int(spec.Width), part, plan.topo.CutSlots(part), me),
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

// beginRun decodes a shipped block and begins it on the job's handler; a
// decode failure is parked like any setup failure (with no job, the next
// command reports that instead).
func (w *shardWorker) beginRun(rs *runSpec) {
	if w.job == nil {
		return
	}
	run, err := decodeRun(w.job.sh.bt.plan.g, w.job.wa, rs)
	if err != nil {
		w.job.sh.reset(err)
		return
	}
	w.job.sh.begin(&run)
}

// execCmd answers one command through the job's handler.
func (w *shardWorker) execCmd(cmd *cmdMsg) *reportMsg {
	if w.job == nil {
		return &reportMsg{Err: "local: command before any job"}
	}
	rep := w.job.sh.exec(*cmd)
	m := &reportMsg{Msgs: rep.msgs, Fins: rep.fins, Out: rep.out}
	if rep.err != nil {
		m.Err = rep.err.Error()
	}
	if rep.panicked != nil {
		m.Panicked = fmt.Sprint(rep.panicked)
	}
	return m
}

// decodeRun turns a shipped runSpec back into the handler's run form over
// the job's graph and algorithm — instances, lane indices, draws from
// their seeds, and the fault plan from its flattened fields, which is
// the one place a plan is rebuilt. It rejects every shape the handler
// could not run without faulting; k against the width and the block
// against the layout are begin's checks.
func decodeRun(g *graph.Graph, wa WireAlgorithm, rs *runSpec) (shardRun, error) {
	k := int(rs.K)
	if len(rs.Lane) != k {
		return shardRun{}, fmt.Errorf("local: %d lane indices for %d lanes", len(rs.Lane), k)
	}
	insts := make([]*lang.Instance, len(rs.Insts))
	for i, ip := range rs.Insts {
		x := ip.X
		if x == nil {
			x = make([][]byte, g.N())
		}
		in, err := lang.NewInstance(g, x, ip.ID)
		if err != nil {
			return shardRun{}, fmt.Errorf("local: run instance %d: %w", i, err)
		}
		insts[i] = in
	}
	ins := make([]*lang.Instance, k)
	for b, li := range rs.Lane {
		if li < 0 || int(li) >= len(insts) {
			return shardRun{}, fmt.Errorf("local: run lane instance index %d out of %d", li, len(insts))
		}
		ins[b] = insts[li]
	}
	run := shardRun{k: k, block: int(rs.Block), wa: wa, src: laneSrc{ins: ins}}
	// Lane identities come from the shipped draw seeds: they seed this
	// shard's tape window and key the fault plan, so a remote shard makes
	// byte-identical decisions to its in-process twin.
	if rs.HasDraws {
		if len(rs.Draws) != k {
			return shardRun{}, fmt.Errorf("local: %d draw seeds for %d lanes", len(rs.Draws), k)
		}
		run.draws = make([]localrand.Draw, k)
		for b, seed := range rs.Draws {
			run.draws[b] = localrand.DrawFromSeed(seed)
		}
	}
	// The effective fault plan; nil disarms any previous run's.
	if rs.HasFault {
		if len(rs.FaultCuts)%3 != 0 {
			return shardRun{}, fmt.Errorf("local: %d fault cut words, want a multiple of 3", len(rs.FaultCuts))
		}
		f := &FaultPlan{
			Seed:       rs.FaultSeed,
			Drop:       rs.FaultDrop,
			Delay:      rs.FaultDelay,
			CrashP:     rs.FaultCrashP,
			CrashFrom:  int(rs.FaultCrashFrom),
			CrashUntil: int(rs.FaultCrashUntil),
		}
		for i := 0; i < len(rs.FaultCuts); i += 3 {
			c := EdgeCut{Round: int(rs.FaultCuts[i]), U: int(rs.FaultCuts[i+1]), Z: int(rs.FaultCuts[i+2])}
			if c.U < 0 || c.U >= g.N() || c.Z < 0 || c.Z >= g.N() {
				return shardRun{}, fmt.Errorf("local: fault cut {%d, %d} names a node outside [0, %d)", c.U, c.Z, g.N())
			}
			f.Surgery = append(f.Surgery, c)
		}
		run.fault = f
	}
	return run, nil
}
