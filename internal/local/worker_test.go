package local

import (
	"encoding/gob"
	"errors"
	"fmt"
	"net"
	"strings"
	"testing"
	"time"

	"rlnc/internal/graph"
	"rlnc/internal/lang"
	"rlnc/internal/localrand"
)

// The worker protocol is exercised here without OS processes: each
// "worker" is ServeShard on its own goroutine behind a real connection
// pair, with the data links still real loopback TCP sockets — the full
// codec and connection machinery of a multi-process run, minus exec.

func init() {
	RegisterRemoteAlgorithm("test-wiremix", func(params []int64) (WireAlgorithm, error) {
		if len(params) != 1 {
			return nil, errors.New("test-wiremix wants one param")
		}
		return wireMix{rounds: int(params[0])}, nil
	})
	RegisterRemoteAlgorithm("test-floodmin", func(params []int64) (WireAlgorithm, error) {
		return floodMin{t: int(params[0])}, nil
	})
	RegisterRemoteAlgorithm("test-panic-on-node", func(params []int64) (WireAlgorithm, error) {
		return panicOnNode{node: params[0]}, nil
	})
}

// RemoteSpec makes the package's test algorithms process-portable.
func (a wireMix) RemoteSpec() (string, []int64)     { return "test-wiremix", []int64{int64(a.rounds)} }
func (a floodMin) RemoteSpec() (string, []int64)    { return "test-floodmin", []int64{int64(a.t)} }
func (a panicOnNode) RemoteSpec() (string, []int64) { return "test-panic-on-node", []int64{a.node} }

// tcpPair returns a connected loopback TCP pair (orchestrator side,
// worker side). Control connections must be real sockets here: the
// worker heartbeats from its own goroutine, and a net.Pipe would block
// those writes (and the sendMu they hold) whenever the orchestrator
// isn't actively reading.
func tcpPair(t *testing.T) (net.Conn, net.Conn) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	type accepted struct {
		conn net.Conn
		err  error
	}
	acceptC := make(chan accepted, 1)
	go func() {
		conn, err := ln.Accept()
		acceptC <- accepted{conn, err}
	}()
	orch, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	srv := <-acceptC
	if srv.err != nil {
		orch.Close()
		t.Fatal(srv.err)
	}
	t.Cleanup(func() { orch.Close(); srv.conn.Close() })
	return orch, srv.conn
}

// startWorkerPool spins n in-process workers and returns their pool;
// cleanup shuts them down. The beat is cranked down so heartbeats
// interleave with protocol traffic during ordinary runs, exercising the
// orchestrator's beat-skipping receive path in every test below.
func startWorkerPool(t *testing.T, n int) *WorkerPool {
	t.Helper()
	return startWorkerPoolOpts(t, n, ServeOptions{Beat: 25 * time.Millisecond})
}

func startWorkerPoolOpts(t *testing.T, n int, o ServeOptions) *WorkerPool {
	t.Helper()
	workers := make([]*WorkerConn, n)
	for i := 0; i < n; i++ {
		orch, worker := tcpPair(t)
		go func() { ServeShardOpts(worker, o) }()
		w, err := NewWorkerConn(orch, 5*time.Second)
		if err != nil {
			t.Fatalf("worker %d hello: %v", i, err)
		}
		workers[i] = w
	}
	pool := NewWorkerPool(workers)
	t.Cleanup(pool.Close)
	return pool
}

// TestRemoteShardedEquivalence is the protocol's tentpole contract:
// every lane of a worker-hosted sharded run — outputs, Stats, errors —
// is byte-identical to the unsharded Batch at equal seeds, across graph
// families, ragged tails, and back-to-back reuse on one pool.
func TestRemoteShardedEquivalence(t *testing.T) {
	const width = 3
	pool := startWorkerPool(t, 3)
	space := localrand.NewTapeSpace(51)
	lo := 0
	for name, g := range testFamilies(t) {
		t.Run(name, func(t *testing.T) {
			in := mustInstance(t, g)
			plan := MustPlan(g)
			bt := plan.NewBatch(width)
			sh, err := plan.NewShardedRemote(width, pool)
			if err != nil {
				t.Fatal(err)
			}
			defer sh.Close()
			for rep, k := range []int{width, width - 1} {
				draws := drawRange(space, lo, k)
				want, err := bt.Run(in, wireMix{rounds: 4}, draws, RunOptions{})
				if err != nil {
					t.Fatal(err)
				}
				got, err := sh.Run(in, wireMix{rounds: 4}, draws, RunOptions{})
				if err != nil {
					t.Fatal(err)
				}
				for b := 0; b < k; b++ {
					expectSameResult(t, fmt.Sprintf("remote rep %d lane %d", rep, b), want[b], got[b])
				}
				lo += k
			}
		})
	}
}

// TestRemoteShardedAlgorithmSwitch pins job re-shipping: one pool serves
// successive Shardeds over different graphs and algorithms, deterministic
// runs included, each byte-identical to the local engines.
func TestRemoteShardedAlgorithmSwitch(t *testing.T) {
	pool := startWorkerPool(t, 2)
	space := localrand.NewTapeSpace(53)
	for i, g := range []*graph.Graph{graph.Cycle(14), graph.Grid(4, 4), graph.Cycle(9)} {
		in := mustInstance(t, g)
		plan := MustPlan(g)
		sh, err := plan.NewShardedRemote(2, pool)
		if err != nil {
			t.Fatal(err)
		}

		// Randomized wire algorithm.
		draws := drawRange(space, i*4, 2)
		want, err := plan.NewBatch(2).Run(in, wireMix{rounds: 3}, draws, RunOptions{})
		if err != nil {
			t.Fatal(err)
		}
		got, err := sh.Run(in, wireMix{rounds: 3}, draws, RunOptions{})
		if err != nil {
			t.Fatal(err)
		}
		for b := range draws {
			expectSameResult(t, fmt.Sprintf("graph %d wire lane %d", i, b), want[b], got[b])
		}

		// Deterministic algorithm on the same pool: a new job mid-Sharded.
		wantDet, err := RunMessage(in, floodMin{t: 2}, nil, RunOptions{})
		if err != nil {
			t.Fatal(err)
		}
		gotDet, err := sh.RunInstances([]*lang.Instance{in, in}, floodMin{t: 2}, nil, RunOptions{})
		if err != nil {
			t.Fatal(err)
		}
		for b := range gotDet {
			expectSameResult(t, fmt.Sprintf("graph %d det lane %d", i, b), wantDet, gotDet[b])
		}
		sh.Close()
	}
}

// TestRemoteShardedFallbacks pins the degradation contract: a pool in
// use refuses a second Sharded; a non-portable algorithm transparently
// runs on the batch that owns the remote Sharded, with identical results,
// while the Sharded alone refuses it.
func TestRemoteShardedFallbacks(t *testing.T) {
	pool := startWorkerPool(t, 2)
	g := graph.Cycle(12)
	in := mustInstance(t, g)
	plan := MustPlan(g)
	sh, err := plan.NewShardedRemote(2, pool)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := plan.NewShardedRemote(2, pool); err == nil {
		t.Fatal("busy pool handed out twice")
	}

	// tapeXOR has no RemoteSpec: the batch owning the remote Sharded must
	// run it itself, byte-identically.
	owner := plan.NewShardedBatch(2, 2, func(*Plan, int, int) (*Sharded, error) { return sh, nil })
	space := localrand.NewTapeSpace(55)
	draws := drawRange(space, 0, 2)
	want, err := plan.NewBatch(2).Run(in, tapeXOR{rounds: 3}, draws, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	got, err := owner.Run(in, tapeXOR{rounds: 3}, draws, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for b := range draws {
		expectSameResult(t, fmt.Sprintf("fallback lane %d", b), want[b], got[b])
	}
	if _, err := sh.Run(in, tapeXOR{rounds: 3}, draws, RunOptions{}); err == nil {
		t.Fatal("remote Sharded ran an algorithm its workers cannot build")
	}

	owner.Close()
	// Released pool serves again.
	sh2, err := plan.NewShardedRemote(2, pool)
	if err != nil {
		t.Fatal(err)
	}
	sh2.Close()
}

// TestRemoteShardedWorkerPanic pins failure containment across the
// process boundary: an algorithm panicking inside a worker surfaces as a
// descriptive error on the orchestrator — no hang, no orchestrator
// panic — and the pool stays usable.
func TestRemoteShardedWorkerPanic(t *testing.T) {
	pool := startWorkerPool(t, 2)
	g := graph.Cycle(10)
	in := mustInstance(t, g)
	plan := MustPlan(g)
	sh, err := plan.NewShardedRemote(1, pool)
	if err != nil {
		t.Fatal(err)
	}
	// The dead shard's peer unblocks via its data-link deadline; keep the
	// test snappy.
	sh.SetLinkTimeout(300 * time.Millisecond)
	_, err = sh.RunInstances([]*lang.Instance{in}, panicOnNode{node: in.ID[7]}, nil, RunOptions{})
	if err == nil || !strings.Contains(err.Error(), "detonated") {
		t.Fatalf("worker panic surfaced as %v, want a detonation error", err)
	}

	// Same executor, clean algorithm: the pool recovers.
	draws := drawRange(localrand.NewTapeSpace(57), 0, 1)
	want, err := plan.NewBatch(1).Run(in, wireMix{rounds: 2}, draws, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	got, err := sh.Run(in, wireMix{rounds: 2}, draws, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	expectSameResult(t, "after-panic", want[0], got[0])
	sh.Close()
}

// noDeadlineConn refuses every deadline call — the shape of conn the old
// code silently tolerated, turning a vanished peer into an unbounded
// hang. The handshake must now surface the refusal descriptively.
type noDeadlineConn struct{ net.Conn }

func (c noDeadlineConn) SetDeadline(time.Time) error      { return errors.New("deadlines unsupported") }
func (c noDeadlineConn) SetReadDeadline(time.Time) error  { return errors.New("deadlines unsupported") }
func (c noDeadlineConn) SetWriteDeadline(time.Time) error { return errors.New("deadlines unsupported") }

// TestWorkerConnDeadlineRefused pins the deadline bugfix: a conn whose
// SetReadDeadline errors fails the handshake with the refusal in the
// message instead of being ignored.
func TestWorkerConnDeadlineRefused(t *testing.T) {
	orch, worker := tcpPair(t)
	go ServeShard(worker, "")
	_, err := NewWorkerConn(noDeadlineConn{orch}, 2*time.Second)
	if err == nil || !strings.Contains(err.Error(), "deadlines unsupported") {
		t.Fatalf("deadline-refusing conn handshake returned %v, want the refusal surfaced", err)
	}
}

// TestWorkerConnVersionMismatch pins the versioned handshake: a worker
// speaking another protocol version is rejected at registration with
// both versions named, so mixed fleet binaries fail fast instead of
// desyncing mid-run.
func TestWorkerConnVersionMismatch(t *testing.T) {
	orch, impostor := tcpPair(t)
	go func() {
		gob.NewEncoder(impostor).Encode(&helloMsg{Version: ctrlProtoVersion + 7, DataAddr: "127.0.0.1:1"})
	}()
	_, err := NewWorkerConn(orch, 2*time.Second)
	if err == nil || !strings.Contains(err.Error(), "mismatched binaries") {
		t.Fatalf("version-mismatched hello returned %v, want a version error", err)
	}
}

// TestWorkerDeathMarksDeadAndSurvivorsServe is the local half of the
// requeue contract: a worker dying mid-run (DieAfterRounds) turns into a
// run error — not a hang — the pool marks it dead, and the next
// NewShardedRemote builds from the survivors alone with byte-identical
// results. The mc scheduler composes this into transparent retry.
func TestWorkerDeathMarksDeadAndSurvivorsServe(t *testing.T) {
	// Every worker would die at round 3 of its first run; only one pool
	// member is built with the chaos flag.
	workers := make([]*WorkerConn, 3)
	for i := range workers {
		o := ServeOptions{Beat: 25 * time.Millisecond}
		if i == 1 {
			o.DieAfterRounds = 3
		}
		orch, worker := tcpPair(t)
		go func() { ServeShardOpts(worker, o) }()
		w, err := NewWorkerConn(orch, 5*time.Second)
		if err != nil {
			t.Fatalf("worker %d hello: %v", i, err)
		}
		workers[i] = w
	}
	pool := NewWorkerPool(workers)
	t.Cleanup(pool.Close)

	g := graph.Cycle(12)
	in := mustInstance(t, g)
	plan := MustPlan(g)
	sh, err := plan.NewShardedRemote(2, pool)
	if err != nil {
		t.Fatal(err)
	}
	sh.SetLinkTimeout(500 * time.Millisecond) // peers of the dead shard unblock fast
	space := localrand.NewTapeSpace(59)
	draws := drawRange(space, 0, 2)
	if _, err := sh.Run(in, wireMix{rounds: 8}, draws, RunOptions{}); err == nil {
		t.Fatal("run across a dying worker reported success")
	}
	sh.Close()
	if live := pool.Live(); live != 2 {
		t.Fatalf("pool has %d live workers after one death, want 2", live)
	}

	// Survivors carry the next executor, byte-identical to local.
	sh2, err := plan.NewShardedRemote(2, pool)
	if err != nil {
		t.Fatal(err)
	}
	defer sh2.Close()
	want, err := plan.NewBatch(2).Run(in, wireMix{rounds: 8}, draws, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	got, err := sh2.Run(in, wireMix{rounds: 8}, draws, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for b := range draws {
		expectSameResult(t, fmt.Sprintf("survivor lane %d", b), want[b], got[b])
	}
}

// TestPoolAllDeadRefuses pins the bottom of the degradation ladder: a
// pool whose every worker is dead refuses NewShardedRemote with a
// descriptive error (exp then falls back to a plain local batch).
func TestPoolAllDeadRefuses(t *testing.T) {
	pool := startWorkerPool(t, 2)
	for _, w := range pool.workers {
		w.markDead()
	}
	g := graph.Cycle(8)
	plan := MustPlan(g)
	if _, err := plan.NewShardedRemote(1, pool); err == nil || !strings.Contains(err.Error(), "no live workers") {
		t.Fatalf("all-dead pool returned %v, want a no-live-workers error", err)
	}
	// The refusal released the pool: it must not be stuck acquired.
	if err := pool.acquire(); err != nil {
		t.Fatalf("pool left acquired after refusal: %v", err)
	}
	pool.release()
}
