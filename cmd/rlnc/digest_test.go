package main

import (
	"bytes"
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"testing"

	"rlnc/internal/exp"
	"rlnc/internal/report"
)

var (
	update = flag.Bool("update", false, "rewrite the digest files of the suite tests that run from this build's output")
	full   = flag.Bool("full", false, "run TestFullSuiteDigests (the full-size suite, several seconds)")
)

// quickDigestsFile pins the quick suite: one "<sha256>  <experiment ID>"
// line per experiment of `rlnc run all -quick -seed 7`, in suite order,
// then "<sha256>  all" for the whole output. An intended table change
// rewrites it with `go test ./cmd/rlnc -run TestQuickSuiteDigests
// -update`, in the same change that moves the table.
const quickDigestsFile = "testdata/run_all_quick_seed7.sha256"

// fullDigestsFile pins the full-size suite, `rlnc run all -seed 1`, in
// the same format. `go test ./cmd/rlnc -run TestFullSuiteDigests -full
// -update` rewrites it.
const fullDigestsFile = "testdata/run_all_seed1.sha256"

// suiteDigests runs `rlnc run` with args (which must select "all") and
// renders the digest-file lines of its output: one per experiment, cut
// at the experiment headers, then one for the whole output.
func suiteDigests(t *testing.T, args ...string) []string {
	t.Helper()
	out := captureStdout(t, func() error { return cmdRun(args) })
	exps := exp.All()
	starts := make([]int, len(exps)+1)
	from := 0
	for i, e := range exps {
		at := bytes.Index(out[from:], []byte(report.Header(e)))
		if at < 0 {
			t.Fatalf("%v: no %s header after byte %d of the suite output", args, e.ID(), from)
		}
		starts[i] = from + at
		from = starts[i] + 1
	}
	if starts[0] != 0 {
		t.Fatalf("%v: %d bytes precede the first experiment", args, starts[0])
	}
	starts[len(exps)] = len(out)
	lines := make([]string, 0, len(exps)+1)
	for i, e := range exps {
		lines = append(lines, fmt.Sprintf("%x  %s", sha256.Sum256(out[starts[i]:starts[i+1]]), e.ID()))
	}
	return append(lines, fmt.Sprintf("%x  all", sha256.Sum256(out)))
}

// quickSuiteDigests renders the quick suite's digest lines at the given
// shard count.
func quickSuiteDigests(t *testing.T, shards int) []string {
	t.Helper()
	return suiteDigests(t, "all", "-quick", "-seed", "7", "-shards", strconv.Itoa(shards))
}

// readDigests loads a digest file, first rewriting it from fresh when
// -update is set.
func readDigests(t *testing.T, file string, fresh func() []string) []string {
	t.Helper()
	if *update {
		if err := os.WriteFile(file, []byte(strings.Join(fresh(), "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	raw, err := os.ReadFile(file)
	if err != nil {
		t.Fatal(err)
	}
	return strings.Split(strings.TrimSuffix(string(raw), "\n"), "\n")
}

// compareDigests fails on every line of got that differs from want.
func compareDigests(t *testing.T, shape, file string, got, want []string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d digests, %s has %d", shape, len(got), file, len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("%s: table digest moved:\n got %s\nwant %s", shape, got[i], want[i])
		}
	}
}

// TestQuickSuiteDigests pins every table of the quick suite to the
// committed digests, on four execution shapes: shards {1, 2} ×
// GOMAXPROCS {1, 4}. Changing any cell of any table fails here, naming
// its experiment, unless the same change updates the digest file. The
// test sets GOMAXPROCS itself, so it must not run in parallel.
func TestQuickSuiteDigests(t *testing.T) {
	if testing.Short() {
		t.Skip("whole quick suite in -short mode")
	}
	want := readDigests(t, quickDigestsFile, func() []string { return quickSuiteDigests(t, 1) })
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 4} {
		runtime.GOMAXPROCS(procs)
		for _, shards := range []int{1, 2} {
			compareDigests(t, fmt.Sprintf("GOMAXPROCS %d shards %d", procs, shards), quickDigestsFile,
				quickSuiteDigests(t, shards), want)
		}
	}
}

// TestFullSuiteDigests pins every table of the full-size suite, `rlnc
// run all -seed 1`, to the committed digests. It takes several seconds,
// so it runs only under the -full flag.
func TestFullSuiteDigests(t *testing.T) {
	if !*full {
		t.Skip("full-size suite runs only with -full")
	}
	fresh := func() []string { return suiteDigests(t, "all", "-seed", "1") }
	want := readDigests(t, fullDigestsFile, fresh)
	compareDigests(t, "run all -seed 1", fullDigestsFile, fresh(), want)
}
