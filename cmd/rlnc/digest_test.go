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

var update = flag.Bool("update", false, "rewrite "+quickDigestsFile+" from this build's output")

// quickDigestsFile pins the quick suite: one "<sha256>  <experiment ID>"
// line per experiment of `rlnc run all -quick -seed 7`, in suite order,
// then "<sha256>  all" for the whole output. An intended table change
// rewrites it with `go test ./cmd/rlnc -run TestQuickSuiteDigests
// -update`, in the same change that moves the table.
const quickDigestsFile = "testdata/run_all_quick_seed7.sha256"

// quickSuiteDigests runs the quick suite at the given shard count and
// renders the digest-file lines of its output.
func quickSuiteDigests(t *testing.T, shards int) []string {
	t.Helper()
	out := captureStdout(t, func() error {
		return cmdRun([]string{"all", "-quick", "-seed", "7", "-shards", strconv.Itoa(shards)})
	})
	exps := exp.All()
	starts := make([]int, len(exps)+1)
	from := 0
	for i, e := range exps {
		at := bytes.Index(out[from:], []byte(report.Header(e)))
		if at < 0 {
			t.Fatalf("shards %d: no %s header after byte %d of the suite output", shards, e.ID(), from)
		}
		starts[i] = from + at
		from = starts[i] + 1
	}
	if starts[0] != 0 {
		t.Fatalf("shards %d: %d bytes precede the first experiment", shards, starts[0])
	}
	starts[len(exps)] = len(out)
	lines := make([]string, 0, len(exps)+1)
	for i, e := range exps {
		lines = append(lines, fmt.Sprintf("%x  %s", sha256.Sum256(out[starts[i]:starts[i+1]]), e.ID()))
	}
	return append(lines, fmt.Sprintf("%x  all", sha256.Sum256(out)))
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
	if *update {
		lines := quickSuiteDigests(t, 1)
		if err := os.WriteFile(quickDigestsFile, []byte(strings.Join(lines, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	raw, err := os.ReadFile(quickDigestsFile)
	if err != nil {
		t.Fatal(err)
	}
	want := strings.Split(strings.TrimSuffix(string(raw), "\n"), "\n")
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 4} {
		runtime.GOMAXPROCS(procs)
		for _, shards := range []int{1, 2} {
			got := quickSuiteDigests(t, shards)
			if len(got) != len(want) {
				t.Fatalf("GOMAXPROCS %d shards %d: %d digests, %s has %d", procs, shards, len(got), quickDigestsFile, len(want))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Errorf("GOMAXPROCS %d shards %d: table digest moved:\n got %s\nwant %s", procs, shards, got[i], want[i])
				}
			}
		}
	}
}
