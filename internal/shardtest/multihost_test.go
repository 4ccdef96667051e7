package shardtest

// The multi-host half of the harness: the differential rerun with every
// shard hosted by a separate OS process on its own port, and the
// fault-tolerance acceptance test — kill a worker process mid-run and
// require the Monte-Carlo sweep to complete with byte-identical results
// through the scheduler's requeue.
//
// Worker processes are this test binary re-exec'd: TestMain dispatches
// on SHARDTEST_WORKER before any test runs, so a "worker host" is one
// more copy of the binary dialing the orchestrator's control listener —
// exactly the `rlnc shard-worker -connect` deployment shape, scaled
// down to loopback.

import (
	"fmt"
	"net"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"sync/atomic"
	"testing"
	"time"

	"rlnc/internal/construct"
	"rlnc/internal/graph"
	"rlnc/internal/local"
	"rlnc/internal/localrand"
	"rlnc/internal/mc"
)

const (
	workerEnv   = "SHARDTEST_WORKER"    // control address to dial; presence selects worker mode
	dieAfterEnv = "SHARDTEST_DIE_AFTER" // optional: round commands before the chaos exit
)

func TestMain(m *testing.M) {
	if addr := os.Getenv(workerEnv); addr != "" {
		os.Exit(serveWorker(addr))
	}
	os.Exit(m.Run())
}

// serveWorker is the re-exec'd worker-process body: dial the control
// listener (with retry — start order is free) and serve shard jobs
// until the orchestrator hangs up. The heartbeat is cranked down so the
// kill test detects death fast.
func serveWorker(addr string) int {
	dieAfter, _ := strconv.Atoi(os.Getenv(dieAfterEnv))
	ctrl, err := local.DialRetry("tcp", addr, 30*time.Second)
	if err != nil {
		fmt.Fprintf(os.Stderr, "shardtest worker: %v\n", err)
		return 1
	}
	defer ctrl.Close()
	if err := local.ServeShardOpts(ctrl, local.ServeOptions{
		Listen:         "127.0.0.1:0",
		Beat:           100 * time.Millisecond,
		DieAfterRounds: dieAfter,
	}); err != nil {
		fmt.Fprintf(os.Stderr, "shardtest worker: %v\n", err)
		return 1
	}
	return 0
}

// startProcessPool re-execs this test binary as n shard-worker OS
// processes — each with its own data listener on its own ephemeral
// port — and registers them into one pool. dieAfter maps a worker index
// to the number of round commands it executes before dying abruptly.
// Workers are spawned and accepted one at a time so the index mapping
// is deterministic.
func startProcessPool(t *testing.T, n int, dieAfter map[int]int) *local.WorkerPool {
	t.Helper()
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	var procs []*exec.Cmd
	t.Cleanup(func() {
		for _, p := range procs {
			p.Process.Kill()
			p.Wait()
		}
	})
	workers := make([]*local.WorkerConn, n)
	for i := 0; i < n; i++ {
		cmd := exec.Command(exe)
		cmd.Env = append(os.Environ(), workerEnv+"="+ln.Addr().String())
		if d := dieAfter[i]; d > 0 {
			cmd.Env = append(cmd.Env, fmt.Sprintf("%s=%d", dieAfterEnv, d))
		}
		cmd.Stderr = os.Stderr
		if err := cmd.Start(); err != nil {
			t.Fatal(err)
		}
		procs = append(procs, cmd)
		if err := ln.(*net.TCPListener).SetDeadline(time.Now().Add(30 * time.Second)); err != nil {
			t.Fatal(err)
		}
		conn, err := ln.Accept()
		if err != nil {
			t.Fatalf("worker %d registration: %v", i, err)
		}
		if workers[i], err = local.NewWorkerConn(conn, 30*time.Second); err != nil {
			t.Fatalf("worker %d handshake: %v", i, err)
		}
	}
	pool := local.NewWorkerPool(workers)
	t.Cleanup(pool.Close) // runs before the kill cleanup: orderly shutdown first
	return pool
}

// TestMultiHostProcessEquivalence reruns the shard differential with
// every shard in a separate OS process on its own port: remote sharded
// runs must be byte-identical to the unsharded Batch, across graphs,
// algorithms, and back-to-back pool reuse.
func TestMultiHostProcessEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process harness in -short mode")
	}
	pool := startProcessPool(t, 3, nil)
	if pool.Live() != 3 {
		t.Fatalf("pool came up with %d live workers, want 3", pool.Live())
	}
	const width = 3
	seed := uint64(6007)
	for _, g := range []*graph.Graph{graph.Cycle(24), graph.Grid(5, 5)} {
		in := Instance(t, g)
		plan := local.MustPlan(g)
		bt := plan.NewBatch(width)
		for _, algo := range []local.WireAlgorithm{construct.RetryMessage(3, 4), construct.LubyMIS{}} {
			sh, err := plan.NewShardedRemote(width, pool)
			if err != nil {
				t.Fatal(err)
			}
			space := localrand.NewTapeSpace(seed)
			draws := []localrand.Draw{space.Draw(0), space.Draw(1), space.Draw(2)}
			want, err := bt.Run(in, algo, draws, local.RunOptions{})
			if err != nil {
				t.Fatal(err)
			}
			got, err := sh.Run(in, algo, draws, local.RunOptions{})
			if err != nil {
				t.Fatal(err)
			}
			for b := range draws {
				expectSame(t, fmt.Sprintf("%s on %s lane %d", algo.Name(), g, b), want[b], got[b])
			}
			sh.Close()
			seed++
		}
	}
}

// TestMultiHostWorkerKillRequeue is the acceptance test of the requeue
// contract, library-level: two worker processes host the shards, one
// kills itself mid-run, and the Monte-Carlo sweep must (1) complete,
// (2) produce exactly the estimate of a purely local static reference,
// (3) have rebuilt the executor from the surviving worker — no trial
// lost, none double-counted, no fabricated outcomes.
func TestMultiHostWorkerKillRequeue(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process harness in -short mode")
	}
	// One mc worker, so every chunk flows through the remote executor and
	// the death deterministically fails an in-flight chunk.
	oldProcs := runtime.GOMAXPROCS(1)
	defer runtime.GOMAXPROCS(oldProcs)

	pool := startProcessPool(t, 2, map[int]int{0: 5})
	g := graph.Cycle(24)
	in := Instance(t, g)
	plan := local.MustPlan(g)
	algo := construct.RetryMessage(3, 4)
	space := localrand.NewTapeSpace(8011)
	const trials, width = 12, 3

	mkDraws := func(lo, hi int) []localrand.Draw {
		draws := make([]localrand.Draw, hi-lo)
		for i := range draws {
			draws[i] = space.Draw(uint64(lo + i))
		}
		return draws
	}
	outcome := func(r *local.Result) bool {
		sum := 0
		for i := range r.Y.Len() {
			y := r.Y.At(i)
			for _, b := range y {
				sum += int(b)
			}
		}
		return sum%2 == 1
	}

	// Static local reference: per-trial outcomes with no sharding and no
	// stealing — the ground truth the stolen remote sweep must reproduce.
	ref := plan.NewBatch(width)
	succ := 0
	for lo := 0; lo < trials; lo += width {
		hi := lo + width
		if hi > trials {
			hi = trials
		}
		rs, err := ref.Run(in, algo, mkDraws(lo, hi), local.RunOptions{})
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range rs {
			if outcome(r) {
				succ++
			}
		}
	}

	// The worker state is the batch internal/exp's trial loops hold: the
	// remote sharded executor when the process pool is free, a plain batch
	// otherwise. Both are byte-identical by the sharding contract.
	var built, remoteBuilt atomic.Int32
	remote := func(p *local.Plan, width, _ int) (*local.Sharded, error) {
		sh, err := p.NewShardedRemote(width, pool)
		if err == nil {
			sh.SetLinkTimeout(2 * time.Second) // bound the survivor's wait on its dead peer
			remoteBuilt.Add(1)
		}
		return sh, err
	}
	est := mc.Executor[*local.Batch]{
		Trials: trials,
		Batch:  width,
		Shards: 2,
		NewState: func() *local.Batch {
			built.Add(1)
			return plan.NewShardedBatch(width, 2, remote)
		},
	}.Run(func(bt *local.Batch, lo, hi int, out []bool) {
		rs, err := bt.Run(in, algo, mkDraws(lo, hi), local.RunOptions{})
		if err != nil {
			// Substrate failure (the killed worker): hand the chunk back to
			// the scheduler instead of fabricating outcomes.
			mc.Fail(err)
		}
		for i, r := range rs {
			out[i] = outcome(r)
		}
	})

	if est.Successes != succ || est.Trials != trials {
		t.Fatalf("requeued sweep estimated %d/%d, static local reference %d/%d",
			est.Successes, est.Trials, succ, trials)
	}
	if live := pool.Live(); live != 1 {
		t.Fatalf("pool reports %d live workers after the kill, want 1", live)
	}
	if built.Load() < 2 || remoteBuilt.Load() < 2 {
		t.Fatalf("states built %d (remote %d), want >= 2 of each: the failed chunk must have been retried on a rebuilt executor",
			built.Load(), remoteBuilt.Load())
	}
}
