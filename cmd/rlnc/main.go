// Command rlnc drives the Randomized Local Network Computing
// reproduction: it lists and runs the experiment suite E1–E17 (one per
// quantitative statement of the paper, see README.md, plus the E17
// fault-injection study), inspects graph families, runs individual
// construction algorithms, and hosts shard workers for multi-process
// sharded execution.
//
// Usage:
//
//	rlnc list
//	rlnc run E1 E4 ...      [-quick] [-seed N] [-shards N] [-transport T]
//	                        [-drop P] [-delay P] [-crash P] [-crash-from R]
//	                        [-crash-until R] [-fault-seed N]
//	rlnc run all            [-quick] [-seed N] [-shards N] [-transport T]
//	rlnc graph -family cycle -n 12
//	rlnc sim -algo cv -n 64 [-seed N]
//	rlnc serve -listen HOST:PORT [-store DIR] [-control HOST:PORT -shards N]
//	rlnc shard-worker -connect HOST:PORT [-listen ADDR] [-advertise ADDR]
//	                  [-heartbeat D] [-connect-timeout D]
//
// # Fault injection
//
// The -drop/-delay/-crash flags assemble a local.FaultPlan and arm it on
// every trial executor of the run (report.Config.Fault): each message
// independently dropped with probability -drop or held one round with
// probability -delay, each live node crashing per round with probability
// -crash from round -crash-from on (recovering at -crash-until, or
// frozen for good when 0). Fault decisions come from a dedicated tape
// seeded by -fault-seed, decoupled from the experiment seed and keyed by
// (round, edge slot, lane), so faulty runs are exactly reproducible and
// per-trial outputs stay byte-identical across batch widths, shard
// counts, and transports. All-zero rates reproduce fault-free runs bit
// for bit. Experiment E17 sweeps this axis systematically — degradation
// of the E2/E3/E4 quantities against drop and crash rates.
//
// # Sharded transports
//
// With -shards N > 1, message-algorithm trial loops run on a sharded
// engine whose per-round cut exchange travels over the transport named
// by -transport:
//
//	chan          in-process channel links (default; zero-copy)
//	tcp-loopback  framed byte streams over loopback TCP sockets inside
//	              this process — the full codec/kernel path, one process
//	tcp           N real `rlnc shard-worker` OS processes: by default
//	              this process spawns them on loopback; with -control it
//	              instead listens for externally started workers (other
//	              hosts included), ships each one its shard of the job
//	              over a gob control stream, and the workers exchange cut
//	              blocks directly with each other over TCP
//
// Per-trial outputs are byte-identical across all transports; rendered
// tables additionally match the unsharded run whenever the Monte-Carlo
// worker chunking coincides (pin GOMAXPROCS=1 for exact equality, as CI
// does when diffing against the committed goldens).
//
// # The shard-worker protocol
//
// `rlnc shard-worker -connect HOST:PORT` dials the orchestrator's
// control listener (retrying with backoff for -connect-timeout, so
// worker and orchestrator start order is free) and serves jobs until
// the control connection closes. On its control stream the worker
// (1) announces itself with a versioned hello — protocol version, data
// listener address, the algorithm keys its binary registers, and its
// heartbeat period; a version mismatch fails registration immediately,
// so mixed fleet binaries cannot desync mid-run, (2) heartbeats every
// -heartbeat period so the orchestrator can tell a long computation
// from a dead process (four silent periods mark the worker dead),
// (3) receives jobs — CSR adjacency, partition bounds, its shard index,
// an algorithm registry key with flat int64 parameters, the peers' data
// addresses — and acks each after dialing/accepting the direct
// worker-to-worker TCP data links for its cuts (peer dials also retry
// with backoff while a peer's listener comes up), then (4) executes
// runs: per-run instances and draw seeds, followed by one command per
// round carrying the lane-liveness vector, each answered with per-lane
// delivered/finished counts (and collected outputs on the final
// command). Cut blocks cross the data links as the framed, versioned
// byte encoding of internal/local's codec. Randomness ships as draw
// seeds, so worker-side tapes are bit-identical to in-process ones.
//
// # Multi-host deployment
//
// One host runs the orchestrator, listening for worker registrations:
//
//	rlnc run E2 -shards 3 -transport tcp -control 0.0.0.0:7000
//
// Each worker host then runs (in any order, before or after — the
// control dial retries until -connect-timeout):
//
//	rlnc shard-worker -connect orch.example:7000 -listen 0.0.0.0:7001
//
// Firewalling: the orchestrator's -control port must accept the
// workers, and every worker's -listen port must accept its peer
// workers (cut blocks travel worker-to-worker, not through the
// orchestrator). When a worker binds a wildcard address, the address
// it advertises to peers is derived from its interface on the control
// connection; -advertise overrides it for NAT or multi-homed hosts.
// The run starts once -shards workers have registered. If a worker
// process dies mid-run, the orchestrator marks it dead via the lost
// control stream (or four missed heartbeats) and the Monte-Carlo
// scheduler requeues that worker group's trial chunk onto a fresh
// executor built from the survivors — output bytes are unchanged, per
// the sharding contract. When no workers survive, trial chunks fall
// back to in-process execution, still byte-identical.
//
// # The serve control plane
//
// `rlnc serve` turns the binary into a long-lived experiment daemon: an
// HTTP+JSON API (internal/serve) that accepts experiment and algorithm
// jobs, executes them on the same Monte-Carlo machinery as `rlnc run`,
// streams per-run progress as Server-Sent Events, and archives every
// finished table in a content-addressed run store under -store. Run IDs
// hash the job's canonical configuration, so resubmitting an identical
// job — however the JSON is spelled — is a cache hit served from the
// store without recompute. With -control and -shards the daemon fronts
// a multi-host shard-worker fleet: jobs submitted over HTTP execute
// across externally started `rlnc shard-worker` processes, exactly as
// `rlnc run -transport tcp -control` does for one run. See
// docs/OPERATIONS.md for the API reference and deployment walkthroughs,
// docs/ARCHITECTURE.md for where the daemon sits on the execution
// stack.
package main

import (
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strings"
	"time"

	"rlnc/internal/construct"
	"rlnc/internal/exp"
	"rlnc/internal/graph"
	"rlnc/internal/ids"
	"rlnc/internal/lang"
	"rlnc/internal/local"
	"rlnc/internal/localrand"
	"rlnc/internal/report"
	"rlnc/internal/serve"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	var err error
	switch os.Args[1] {
	case "list":
		err = cmdList()
	case "run":
		err = cmdRun(os.Args[2:])
	case "graph":
		err = cmdGraph(os.Args[2:])
	case "sim":
		err = cmdSim(os.Args[2:])
	case "serve":
		err = cmdServe(os.Args[2:])
	case "shard-worker":
		err = cmdShardWorker(os.Args[2:])
	case "help", "-h", "--help":
		usage()
	default:
		fmt.Fprintf(os.Stderr, "rlnc: unknown command %q\n", os.Args[1])
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "rlnc: %v\n", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprint(os.Stderr, `rlnc — Randomized Local Network Computing (SPAA 2015) reproduction

commands:
  list                         list the experiment suite
  run <id>... | all            run experiments
                               (flags: -quick, -seed N, -shards N,
                                -transport chan|tcp-loopback|tcp,
                                -control ADDR for multi-host workers)
  graph -family F -n N         describe a graph family instance
  sim -algo A -n N             run a construction algorithm on a ring
  serve -listen ADDR           HTTP control plane with a content-addressed
                               run store (-store DIR; -control ADDR
                               -shards N to front a worker fleet)
  shard-worker -connect ADDR   host one shard for a tcp-transport run
                               (-listen/-advertise for multi-host)

`)
}

func cmdList() error {
	for _, e := range exp.All() {
		fmt.Printf("%-4s %s\n     reproduces: %s\n", e.ID(), e.Title(), e.PaperRef())
	}
	return nil
}

func cmdRun(args []string) error {
	fs := flag.NewFlagSet("run", flag.ExitOnError)
	quick := fs.Bool("quick", false, "reduced trial counts")
	seed := fs.Uint64("seed", 1, "tape-space seed")
	shards := fs.Int("shards", 1, "run message-algorithm trials on a sharded engine of N shards (byte-identical per-trial outputs)")
	transport := fs.String("transport", "chan", "sharded cut-exchange transport: chan (in-process links), tcp-loopback (byte streams over loopback sockets), tcp (N shard-worker OS processes)")
	control := fs.String("control", "", "with -transport tcp: listen on this address and await -shards externally started `rlnc shard-worker -connect` registrations (multi-host) instead of spawning loopback workers")
	drop := fs.Float64("drop", 0, "fault injection: per-message drop probability in [0,1]")
	delay := fs.Float64("delay", 0, "fault injection: per-message one-round delay probability in [0,1]")
	crash := fs.Float64("crash", 0, "fault injection: per-node per-round crash probability in [0,1]")
	crashFrom := fs.Int("crash-from", 1, "fault injection: first round crashes may fire (with -crash)")
	crashUntil := fs.Int("crash-until", 0, "fault injection: crashed nodes recover at this round (0: crashes are permanent)")
	faultSeed := fs.Uint64("fault-seed", 0, "fault injection: seed of the fault tape (decoupled from -seed)")
	var idArgs []string
	for _, a := range args {
		if strings.HasPrefix(a, "-") {
			break
		}
		idArgs = append(idArgs, a)
	}
	if err := fs.Parse(args[len(idArgs):]); err != nil {
		return err
	}
	if len(idArgs) == 0 {
		return fmt.Errorf("run: no experiment ids given (try `rlnc run all`)")
	}
	var exps []report.Experiment
	if len(idArgs) == 1 && strings.EqualFold(idArgs[0], "all") {
		exps = exp.All()
	} else {
		for _, id := range idArgs {
			e, ok := report.ByID(id)
			if !ok {
				return fmt.Errorf("run: unknown experiment %q", id)
			}
			exps = append(exps, e)
		}
	}
	cfg := report.Config{Quick: *quick, Seed: *seed, Shards: *shards}
	if *drop > 0 || *delay > 0 || *crash > 0 {
		cfg.Fault = &local.FaultPlan{
			Seed:       *faultSeed,
			Drop:       *drop,
			Delay:      *delay,
			CrashP:     *crash,
			CrashFrom:  *crashFrom,
			CrashUntil: *crashUntil,
		}
	}
	switch *transport {
	case "chan", "":
		// Default in-process channel links.
	case "tcp-loopback":
		cfg.NewSharded = func(plan *local.Plan, width, shards int) (*local.Sharded, error) {
			sh, err := plan.NewSharded(width, shards)
			if err != nil {
				return nil, err
			}
			sh.UseTCPLoopback()
			return sh, nil
		}
	case "tcp":
		if *shards < 2 {
			return fmt.Errorf("run: -transport tcp needs -shards >= 2")
		}
		var pool *local.WorkerPool
		var stop func()
		var err error
		if *control != "" {
			pool, stop, err = awaitWorkerFleet(*control, *shards)
		} else {
			pool, stop, err = startWorkerProcesses(*shards)
		}
		if err != nil {
			return fmt.Errorf("run: start shard workers: %w", err)
		}
		defer stop()
		cfg.NewSharded = func(plan *local.Plan, width, shards int) (*local.Sharded, error) {
			// The pool decides the shard count, not the request: the
			// executor is built from however many workers are still live
			// (clamped to the graph), so a mid-run worker death degrades
			// to the survivors instead of erroring the whole run — the
			// sharding contract keeps the output bytes identical either way.
			return plan.NewShardedRemote(width, pool)
		}
	default:
		return fmt.Errorf("run: unknown transport %q (chan, tcp-loopback, tcp)", *transport)
	}
	failed := 0
	for _, e := range exps {
		fmt.Print(report.Header(e))
		res, err := e.Run(cfg)
		if err != nil {
			return fmt.Errorf("%s: %w", e.ID(), err)
		}
		res.Render(os.Stdout)
		if !res.AllChecksPass() {
			failed++
		}
		fmt.Println()
	}
	if failed > 0 {
		return fmt.Errorf("%d experiment(s) had failing checks", failed)
	}
	return nil
}

// cmdShardWorker hosts one shard of a tcp-transport run: it dials the
// orchestrator's control listener (retrying while the orchestrator comes
// up) and serves jobs until the control connection closes (see the
// package comment for the protocol and the multi-host deployment notes).
func cmdShardWorker(args []string) error {
	fs := flag.NewFlagSet("shard-worker", flag.ExitOnError)
	connect := fs.String("connect", "", "orchestrator control address HOST:PORT (required)")
	listen := fs.String("listen", "", "data-link listen address; bind a reachable interface (e.g. 0.0.0.0:7001) for multi-host runs (default: loopback ephemeral)")
	advertise := fs.String("advertise", "", "data-link address peer workers dial (default: derived from -listen, wildcard hosts replaced by this worker's interface on the control connection; set explicitly behind NAT)")
	heartbeat := fs.Duration("heartbeat", local.DefaultWorkerBeat, "control-stream heartbeat period; the orchestrator declares this worker dead after four silent periods")
	connectTimeout := fs.Duration("connect-timeout", 30*time.Second, "how long to keep retrying the control dial before giving up")
	dieAfter := fs.Int("die-after-rounds", 0, "testing: abruptly close every connection and exit after N round commands, simulating a worker death mid-run")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *connect == "" {
		return fmt.Errorf("shard-worker: -connect is required")
	}
	ctrl, err := local.DialRetry("tcp", *connect, *connectTimeout)
	if err != nil {
		return fmt.Errorf("shard-worker: %w", err)
	}
	defer ctrl.Close()
	return local.ServeShardOpts(ctrl, local.ServeOptions{
		Listen:         *listen,
		Advertise:      *advertise,
		Beat:           *heartbeat,
		DieAfterRounds: *dieAfter,
	})
}

// acceptWorkers accepts n worker registrations on ln, handshaking each
// into a WorkerConn. On any failure every already-registered worker is
// closed before the error returns — no half-built fleet leaks.
func acceptWorkers(ln net.Listener, n int, each time.Duration) ([]*local.WorkerConn, error) {
	workers := make([]*local.WorkerConn, n)
	for i := 0; i < n; i++ {
		var err error
		if d, ok := ln.(*net.TCPListener); ok {
			err = d.SetDeadline(time.Now().Add(each))
		}
		var conn net.Conn
		if err == nil {
			conn, err = ln.Accept()
		}
		if err == nil {
			// NewWorkerConn closes the conn itself on a failed handshake.
			workers[i], err = local.NewWorkerConn(conn, each)
		}
		if err != nil {
			for _, w := range workers[:i] {
				w.Close()
			}
			return nil, fmt.Errorf("worker %d of %d: %w", i+1, n, err)
		}
	}
	return workers, nil
}

// awaitWorkerFleet listens on addr for n externally started
// `rlnc shard-worker -connect` registrations (the -control multi-host
// path) and assembles their pool; stop closes the control connections,
// which is the workers' shutdown signal.
func awaitWorkerFleet(addr string, n int) (pool *local.WorkerPool, stop func(), err error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, nil, err
	}
	defer ln.Close()
	fmt.Fprintf(os.Stderr, "rlnc: control listening on %s, awaiting %d shard workers\n", ln.Addr(), n)
	workers, err := acceptWorkers(ln, n, 2*time.Minute)
	if err != nil {
		return nil, nil, err
	}
	pool = local.NewWorkerPool(workers)
	return pool, pool.Close, nil
}

// startWorkerProcesses spawns n `rlnc shard-worker` OS processes wired
// back to this process's control listener and assembles their pool; stop
// shuts the pool down and reaps the processes. Every error path kills
// and reaps whatever was already spawned — a failed orchestrator start
// must not leave orphan worker processes behind.
func startWorkerProcesses(n int) (pool *local.WorkerPool, stop func(), err error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, nil, err
	}
	defer ln.Close()
	exe, err := os.Executable()
	if err != nil {
		return nil, nil, err
	}
	var procs []*exec.Cmd
	// reap waits for the spawned workers, escalating to kill if any is
	// still alive after a grace period: a worker wedged in a syscall must
	// not wedge the orchestrator's exit (or leak as a zombie) with it.
	reap := func() {
		done := make(chan struct{})
		go func() {
			for _, p := range procs {
				p.Wait()
			}
			close(done)
		}()
		select {
		case <-done:
		case <-time.After(10 * time.Second):
			for _, p := range procs {
				p.Process.Kill()
			}
			<-done
		}
	}
	kill := func() {
		for _, p := range procs {
			p.Process.Kill()
		}
		reap()
	}
	for i := 0; i < n; i++ {
		cmd := exec.Command(exe, "shard-worker", "-connect", ln.Addr().String())
		cmd.Stderr = os.Stderr
		if err := cmd.Start(); err != nil {
			kill()
			return nil, nil, err
		}
		procs = append(procs, cmd)
	}
	workers, err := acceptWorkers(ln, n, 30*time.Second)
	if err != nil {
		kill()
		return nil, nil, err
	}
	pool = local.NewWorkerPool(workers)
	stop = func() {
		// Closing the control connections is the workers' shutdown signal;
		// reap so no zombies outlive the run.
		pool.Close()
		reap()
	}
	return pool, stop, nil
}

func cmdGraph(args []string) error {
	fs := flag.NewFlagSet("graph", flag.ExitOnError)
	family := fs.String("family", "cycle", strings.Join(graph.Families(), "|"))
	n := fs.Int("n", 12, "size parameter")
	dot := fs.Bool("dot", false, "emit Graphviz DOT")
	if err := fs.Parse(args); err != nil {
		return err
	}
	g, err := graph.Family(*family, *n)
	if err != nil {
		return fmt.Errorf("graph: %w", err)
	}
	fmt.Printf("%s  diameter=%d connected=%v\n", g, g.Diameter(), g.Connected())
	if *dot {
		fmt.Print(g.DOT(*family, nil))
	}
	return nil
}

func cmdSim(args []string) error {
	fs := flag.NewFlagSet("sim", flag.ExitOnError)
	algoName := fs.String("algo", "cv", "cv|random|retry4|luby-mis|matching|weak|linial")
	n := fs.Int("n", 64, "ring size")
	seed := fs.Uint64("seed", 1, "seed")
	if err := fs.Parse(args); err != nil {
		return err
	}
	id := ids.RandomPerm(*n, *seed)
	in, err := lang.NewInstance(graph.Cycle(*n), lang.EmptyInputs(*n), id)
	if err != nil {
		return err
	}
	var algo construct.Algorithm
	var language lang.Language
	switch *algoName {
	case "cv":
		algo = construct.ColeVishkinColoring(63)
		language = lang.ProperColoring(3)
	case "random":
		algo = construct.RandomColoring(3)
		language = lang.ProperColoring(3)
	case "retry4":
		algo = construct.RetryColoring{Q: 3, T: 4}
		language = lang.ProperColoring(3)
	case "luby-mis":
		algo = construct.LubyMISAlgorithm()
		language = lang.MIS()
	case "matching":
		algo = construct.MaximalMatchingAlgorithm()
		language = lang.MaximalMatching()
	case "weak":
		algo = construct.WeakColoringViaMIS()
		language = lang.WeakColoring(2)
	case "linial":
		algo = construct.LinialColoringFor(in)
		language = lang.ProperColoring(3)
	default:
		return fmt.Errorf("sim: unknown algorithm %q", *algoName)
	}
	draw := localrand.NewTapeSpace(*seed).Draw(0)
	y, err := algo.Run(in, &draw)
	if err != nil {
		return err
	}
	ok, err := language.Contains(&lang.Config{G: in.G, X: in.X, Y: y})
	if err != nil {
		return err
	}
	fmt.Printf("algorithm: %s\nnetwork:   %s\nvalid %s:  %v\n", algo.Name(), in.G, language.Name(), ok)
	if msg, isMsg := algo.(construct.MessageConstruction); isMsg {
		if res, err := local.RunMessage(in, msg.Algo, &draw, msg.Opts); err == nil {
			fmt.Printf("rounds:    %d\nmessages:  %d\n", res.Stats.Rounds, res.Stats.Messages)
		}
	}
	return nil
}

// cmdServe hosts the experiment control plane: an HTTP+JSON daemon
// accepting jobs against the experiment and algorithm registries,
// executing them through the shared Monte-Carlo machinery, and caching
// every finished table in the content-addressed run store under -store.
// With -control and -shards, the daemon first assembles a multi-host
// shard-worker fleet (externally started `rlnc shard-worker -connect`
// processes) and routes every job's sharded trial loops through it.
func cmdServe(args []string) error {
	fs := flag.NewFlagSet("serve", flag.ExitOnError)
	listen := fs.String("listen", "127.0.0.1:7080", "HTTP listen address HOST:PORT")
	storeDir := fs.String("store", "runstore", "run-store directory (created if missing)")
	control := fs.String("control", "", "listen on this address for `rlnc shard-worker -connect` registrations and run jobs on the fleet (requires -shards)")
	shards := fs.Int("shards", 0, "with -control: fleet size to await before serving")
	maxQueue := fs.Int("max-queue", 64, "maximum accepted-but-unexecuted runs before submissions get 503")
	maxTrials := fs.Int("max-trials", 0, "maximum trials an algorithm job may request (0: default 100000)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if (*control != "") != (*shards > 0) {
		return fmt.Errorf("serve: -control and -shards must be set together")
	}
	st, err := serve.OpenStore(*storeDir)
	if err != nil {
		return fmt.Errorf("serve: %w", err)
	}
	opts := serve.Options{
		Store:    st,
		MaxQueue: *maxQueue,
		Limits:   serve.Limits{MaxTrials: *maxTrials},
		Logf: func(format string, fargs ...any) {
			fmt.Fprintf(os.Stderr, "rlnc serve: "+format+"\n", fargs...)
		},
	}
	if *control != "" {
		if *shards < 2 {
			return fmt.Errorf("serve: -shards must be at least 2 with -control")
		}
		pool, stop, err := awaitWorkerFleet(*control, *shards)
		if err != nil {
			return fmt.Errorf("serve: start shard workers: %w", err)
		}
		defer stop()
		opts.NewSharded = func(plan *local.Plan, width, shards int) (*local.Sharded, error) {
			// As in cmdRun's tcp transport: the pool sizes the executor from
			// its surviving workers, so fleet deaths degrade instead of
			// erroring (see the package comment on multi-host deployment).
			return plan.NewShardedRemote(width, pool)
		}
	}
	srv, err := serve.NewServer(opts)
	if err != nil {
		return fmt.Errorf("serve: %w", err)
	}
	defer srv.Close()
	ln, err := net.Listen("tcp", *listen)
	if err != nil {
		return fmt.Errorf("serve: %w", err)
	}
	fmt.Fprintf(os.Stderr, "rlnc serve: listening on http://%s (run store %s)\n", ln.Addr(), st.Dir())
	return http.Serve(ln, srv)
}
