package serve

import (
	"crypto/sha256"
	"errors"
	"fmt"
	"os"
	"strings"
	"sync"
	"testing"

	"rlnc/internal/local"
)

// algoTablesFile holds one "<sha256>  <job description>" line per pinned
// algorithm job; the serve-e2e CI job checks a table fetched from the
// real daemon against the same file.
const algoTablesFile = "testdata/algo_tables.sha256"

// algoTableCases are the pinned algorithm jobs: every registry key that
// runs on empty inputs (greedy-mis-from-coloring needs a coloring as
// input, which algorithm jobs never carry), trial counts that fill no
// whole lane vector, two and three shards, and one faulty run.
func algoTableCases() []JobSpec {
	algo := func(key string, params []int64, family string, n, trials int) *AlgoSpec {
		return &AlgoSpec{Key: key, Params: params, Family: family, N: n, Trials: trials}
	}
	return []JobSpec{
		{Algorithm: algo("retry-coloring", []int64{3, 4}, "cycle", 256, 50), Seed: 5},
		{Algorithm: algo("retry-coloring", []int64{3, 4}, "cycle", 256, 13), Seed: 5, Shards: 2},
		{Algorithm: algo("retry-coloring", []int64{4, 2}, "torus", 6, 1), Seed: 2},
		{Algorithm: algo("luby-mis", nil, "torus", 8, 30), Seed: 3},
		{Algorithm: algo("luby-mis", nil, "torus", 8, 7), Seed: 3, Shards: 3},
		{Algorithm: algo("luby-mis", nil, "cycle", 64, 21), Seed: 9, Fault: &FaultSpec{Drop: 0.1}},
		{Algorithm: algo("edge-luby-matching", nil, "grid", 6, 17), Seed: 4},
		{Algorithm: algo("edge-luby-matching", nil, "petersen", 0, 10), Seed: 4, Shards: 2},
		{Algorithm: algo("cole-vishkin", []int64{12}, "cycle", 128, 9), Seed: 1},
		{Algorithm: algo("cole-vishkin", []int64{12}, "cycle", 128, 6), Seed: 1, Shards: 3},
	}
}

// algoTableLines runs the given jobs on the server's algorithm runner
// and renders one digest-file line per job.
func algoTableLines(t *testing.T, s *Server, specs []JobSpec) []string {
	t.Helper()
	var lines []string
	for _, spec := range specs {
		if err := spec.normalize(Limits{}); err != nil {
			t.Fatalf("%s: %v", spec.Describe(), err)
		}
		table, pass, err := s.runAlgorithm(spec, nil)
		if err != nil || !pass {
			t.Fatalf("%s: pass=%v err=%v", spec.Describe(), pass, err)
		}
		lines = append(lines, fmt.Sprintf("%x  %s", sha256.Sum256(table), spec.Describe()))
	}
	return lines
}

// TestAlgorithmTablesPinned pins the rendered table of every algorithm
// job shape to a committed sha256: any change to a mean, a stderr digit
// or the table layout fails here unless the digest file changes with it.
// Sharded jobs run twice, once on real shards and once through a
// provider that refuses, so the plain-batch fallback is pinned to the
// same bytes.
func TestAlgorithmTablesPinned(t *testing.T) {
	cases := algoTableCases()
	got := algoTableLines(t, &Server{}, cases)
	raw, err := os.ReadFile(algoTablesFile)
	if err != nil {
		t.Fatal(err)
	}
	want := strings.Split(strings.TrimSuffix(string(raw), "\n"), "\n")
	if len(want) != len(got) {
		t.Fatalf("%s has %d lines, the cases render %d", algoTablesFile, len(want), len(got))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("table digest moved:\n got %s\nwant %s", got[i], want[i])
		}
	}

	refusing := &Server{opts: Options{NewSharded: func(*local.Plan, int, int) (*local.Sharded, error) {
		return nil, errors.New("worker pool busy")
	}}}
	var sharded []JobSpec
	var shardedGot []string
	for i, spec := range cases {
		if spec.Shards > 1 {
			sharded = append(sharded, spec)
			shardedGot = append(shardedGot, got[i])
		}
	}
	fallback := algoTableLines(t, refusing, sharded)
	for i := range fallback {
		if fallback[i] != shardedGot[i] {
			t.Errorf("refused provider changed the table:\n got %s\nwant %s", fallback[i], shardedGot[i])
		}
	}
}

// TestAlgorithmJobChunks pins the lane vectorization of algorithm jobs:
// a ragged 13-trial job is one sweep of ceil(13/algoBatchWidth) chunks.
func TestAlgorithmJobChunks(t *testing.T) {
	spec := JobSpec{Algorithm: &AlgoSpec{Key: "luby-mis", Family: "cycle", N: 32, Trials: 13}}
	if err := spec.normalize(Limits{}); err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	var totals []int
	calls := 0
	s := &Server{}
	if _, _, err := s.runAlgorithm(spec, func(done, total int) {
		mu.Lock()
		defer mu.Unlock()
		calls++
		if done == 0 {
			totals = append(totals, total)
		}
	}); err != nil {
		t.Fatal(err)
	}
	want := (13 + algoBatchWidth - 1) / algoBatchWidth
	if len(totals) != 1 || totals[0] != want || calls != want+1 {
		t.Fatalf("sweeps announced %v chunks over %d progress calls, want one sweep of %d", totals, calls, want)
	}
}
