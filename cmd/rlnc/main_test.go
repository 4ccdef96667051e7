package main

import (
	"bytes"
	"fmt"
	"io"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestMain doubles as the shard-worker entry point: `-transport tcp`
// spawns os.Executable() — under `go test` that is this test binary, so
// the dispatch below lets the golden tests exercise the real N-process
// execution path, worker processes included.
func TestMain(m *testing.M) {
	if len(os.Args) > 1 && os.Args[1] == "shard-worker" {
		if err := cmdShardWorker(os.Args[2:]); err != nil {
			fmt.Fprintf(os.Stderr, "rlnc: %v\n", err)
			os.Exit(1)
		}
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// captureStdout runs fn with os.Stdout redirected into a buffer and
// returns everything it printed.
func captureStdout(t *testing.T, fn func() error) []byte {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	old := os.Stdout
	os.Stdout = w
	done := make(chan []byte)
	go func() {
		var buf bytes.Buffer
		io.Copy(&buf, r)
		done <- buf.Bytes()
	}()
	errRun := fn()
	os.Stdout = old
	w.Close()
	out := <-done
	r.Close()
	if errRun != nil {
		t.Fatal(errRun)
	}
	return out
}

// expectGolden compares output against a committed golden file. The
// goldens under testdata/ were generated from the boxed message engine
// BEFORE the wire-format migration, so these tests pin byte-identical
// CLI output across it: experiment tables, construction outputs, and
// the rounds/messages Stats lines all survive the transport change.
func expectGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("output differs from %s (generated pre-wire-migration):\n--- want ---\n%s\n--- got ---\n%s", path, want, got)
	}
}

// TestRunExperimentGolden pins a full message-algorithm experiment table
// (E2: retry coloring, the message-path construction of §1.1) byte for
// byte against the pre-migration engine.
func TestRunExperimentGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment table in -short mode")
	}
	out := captureStdout(t, func() error {
		return cmdRun([]string{"E2", "-quick", "-seed", "7"})
	})
	expectGolden(t, "run_E2_quick_seed7.golden", out)
}

// TestRunExperimentGoldenSharded is the end-to-end shard-equivalence
// differential at the CLI: `run E2 -shards 2` (and 4) must reproduce the
// committed unsharded golden byte for byte — the sharded engine may not
// change a single digit of a published table.
func TestRunExperimentGoldenSharded(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment table in -short mode")
	}
	for _, shards := range []string{"2", "4"} {
		out := captureStdout(t, func() error {
			return cmdRun([]string{"E2", "-quick", "-seed", "7", "-shards", shards})
		})
		expectGolden(t, "run_E2_quick_seed7.golden", out)
	}
}

// TestRunExperimentGoldenTransports is the transport differential at
// the CLI: `run E2 -shards 2` must reproduce the committed unsharded
// golden byte for byte over every cut-exchange transport — the
// in-process loopback-TCP links and the real N-process shard-worker
// path alike.
func TestRunExperimentGoldenTransports(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment table in -short mode")
	}
	for _, transport := range []string{"tcp-loopback", "tcp"} {
		t.Run(transport, func(t *testing.T) {
			out := captureStdout(t, func() error {
				return cmdRun([]string{"E2", "-quick", "-seed", "7", "-shards", "2", "-transport", transport})
			})
			expectGolden(t, "run_E2_quick_seed7.golden", out)
		})
	}
}

// freePort reserves a loopback address for a control listener: bind an
// ephemeral port, note it, release it. The tiny window before the
// orchestrator rebinds is covered by the workers' control-dial retry.
func freePort(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	return addr
}

// startExternalWorker launches one `rlnc shard-worker` OS process (this
// test binary, re-exec'd through the TestMain dispatch) dialing the
// control address — the externally-started worker of a multi-host
// deployment, only on loopback. Workers may start before the
// orchestrator listens: the control dial retries.
func startExternalWorker(t *testing.T, control string, extra ...string) {
	t.Helper()
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	args := append([]string{"shard-worker", "-connect", control, "-listen", "127.0.0.1:0", "-heartbeat", "100ms"}, extra...)
	cmd := exec.Command(exe, args...)
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		cmd.Process.Kill()
		cmd.Wait()
	})
}

// TestRunMultiHostGolden drives the full multi-host path on loopback:
// the workers are NOT spawned by cmdRun but register themselves against
// `-control`, exactly as a fleet on separate hosts would — and the run's
// output must still be the committed unsharded golden, byte for byte.
func TestRunMultiHostGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment table in -short mode")
	}
	control := freePort(t)
	startExternalWorker(t, control)
	startExternalWorker(t, control)
	out := captureStdout(t, func() error {
		return cmdRun([]string{"E2", "-quick", "-seed", "7", "-shards", "2", "-transport", "tcp", "-control", control})
	})
	expectGolden(t, "run_E2_quick_seed7.golden", out)
}

// TestRunMultiHostWorkerDeathGolden is the acceptance test of the
// requeue contract at the CLI: one of the two registered workers
// abruptly dies mid-run (-die-after-rounds), the scheduler requeues its
// in-flight trial chunk onto an executor built from the survivor, and
// the completed output is STILL byte-identical to the committed golden.
func TestRunMultiHostWorkerDeathGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment table in -short mode")
	}
	control := freePort(t)
	startExternalWorker(t, control, "-die-after-rounds", "35")
	startExternalWorker(t, control)
	out := captureStdout(t, func() error {
		return cmdRun([]string{"E2", "-quick", "-seed", "7", "-shards", "2", "-transport", "tcp", "-control", control})
	})
	expectGolden(t, "run_E2_quick_seed7.golden", out)
}

// childPIDs lists this process's live (and zombie) direct children via
// /proc — the observable for the fleet-reap contract. Children are
// attributed to the OS thread that forked them, so every task's list is
// aggregated (the Go runtime execs from arbitrary threads).
func childPIDs(t *testing.T) []string {
	t.Helper()
	tasks, err := os.ReadDir("/proc/self/task")
	if err != nil {
		t.Skipf("no /proc children visibility: %v", err)
	}
	var pids []string
	for _, task := range tasks {
		b, err := os.ReadFile(fmt.Sprintf("/proc/self/task/%s/children", task.Name()))
		if err != nil {
			continue // thread exited between the listing and the read
		}
		pids = append(pids, strings.Fields(string(b))...)
	}
	return pids
}

// TestWorkerFleetReaped pins the orchestrator cleanup contract: after
// stop(), every spawned shard-worker process has been waited on — no
// zombies, no orphans left behind a `rlnc run -shards N -transport tcp`.
func TestWorkerFleetReaped(t *testing.T) {
	before := len(childPIDs(t))
	pool, stop, err := startWorkerProcesses(2)
	if err != nil {
		t.Fatal(err)
	}
	if pool.Size() != 2 || pool.Live() != 2 {
		t.Fatalf("fleet came up with size %d, live %d", pool.Size(), pool.Live())
	}
	if n := len(childPIDs(t)); n < before+2 {
		t.Fatalf("%d children while fleet runs, want >= %d", n, before+2)
	}
	stop()
	if n := len(childPIDs(t)); n > before {
		t.Fatalf("%d children after stop, want <= %d (workers not reaped)", n, before)
	}
}

// TestSimGolden pins the sim subcommand for every migrated message
// algorithm — outputs, validity verdicts, and Stats (rounds, messages)
// — against the pre-migration engine.
func TestSimGolden(t *testing.T) {
	for golden, args := range map[string][]string{
		"sim_cv_n24_seed5.golden":       {"-algo", "cv", "-n", "24", "-seed", "5"},
		"sim_retry4_n24_seed5.golden":   {"-algo", "retry4", "-n", "24", "-seed", "5"},
		"sim_luby_n24_seed5.golden":     {"-algo", "luby-mis", "-n", "24", "-seed", "5"},
		"sim_matching_n24_seed5.golden": {"-algo", "matching", "-n", "24", "-seed", "5"},
		"sim_linial_n24_seed5.golden":   {"-algo", "linial", "-n", "24", "-seed", "5"},
	} {
		args := args
		t.Run(golden, func(t *testing.T) {
			out := captureStdout(t, func() error { return cmdSim(args) })
			expectGolden(t, golden, out)
		})
	}
}

func TestCmdList(t *testing.T) {
	if err := cmdList(); err != nil {
		t.Fatal(err)
	}
}

func TestCmdGraphFamilies(t *testing.T) {
	for _, fam := range []string{"cycle", "path", "complete", "star", "grid", "torus", "tree", "hypercube", "petersen"} {
		if err := cmdGraph([]string{"-family", fam, "-n", "5"}); err != nil {
			t.Errorf("family %s: %v", fam, err)
		}
	}
	if err := cmdGraph([]string{"-family", "nope"}); err == nil {
		t.Error("unknown family accepted")
	}
	if err := cmdGraph([]string{"-family", "path", "-n", "4", "-dot"}); err != nil {
		t.Errorf("dot output: %v", err)
	}
}

func TestCmdSimAlgorithms(t *testing.T) {
	for _, algo := range []string{"cv", "random", "retry4", "luby-mis", "matching", "weak", "linial"} {
		if err := cmdSim([]string{"-algo", algo, "-n", "12", "-seed", "3"}); err != nil {
			t.Errorf("algo %s: %v", algo, err)
		}
	}
	if err := cmdSim([]string{"-algo", "nope"}); err == nil {
		t.Error("unknown algorithm accepted")
	}
}

func TestCmdRun(t *testing.T) {
	if err := cmdRun([]string{"E15", "-quick", "-seed", "2"}); err != nil {
		t.Fatal(err)
	}
	if err := cmdRun([]string{"nope"}); err == nil {
		t.Error("unknown experiment accepted")
	}
	if err := cmdRun([]string{"-quick"}); err == nil {
		t.Error("missing ids accepted")
	}
}
