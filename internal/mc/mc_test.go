package mc

import (
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"rlnc/internal/localrand"
)

// runTrials and meanTrials run a per-trial body through the zero-option
// Executor: scalar chunks, no state, a GOMAXPROCS pool.
func runTrials(trials int, f func(trial int) bool) Estimate {
	return Executor[struct{}]{Trials: trials}.
		Run(Scalar(func(_ struct{}, trial int) bool { return f(trial) }))
}

func meanTrials(trials int, f func(trial int) float64) (mean, stderr float64) {
	return Executor[struct{}]{Trials: trials}.
		Mean(ScalarMean(func(_ struct{}, trial int) float64 { return f(trial) }))
}

func TestRunCountsDeterministically(t *testing.T) {
	// f depends only on the trial index, so the estimate is exact and
	// independent of scheduling.
	est := runTrials(1000, func(trial int) bool { return trial%4 == 0 })
	if est.Successes != 250 || est.Trials != 1000 {
		t.Errorf("est = %+v, want 250/1000", est)
	}
	if math.Abs(est.P()-0.25) > 1e-12 {
		t.Errorf("P = %v", est.P())
	}
}

func TestRunMatchesSequential(t *testing.T) {
	f := func(trial int) bool {
		return localrand.NewSource(uint64(trial)).Float64() < 0.37
	}
	par := runTrials(5000, f)
	seq := 0
	for i := 0; i < 5000; i++ {
		if f(i) {
			seq++
		}
	}
	if par.Successes != seq {
		t.Errorf("parallel %d != sequential %d", par.Successes, seq)
	}
}

func TestWilsonCoversTruth(t *testing.T) {
	est := runTrials(20000, func(trial int) bool {
		return localrand.NewSource(uint64(trial)).Float64() < 0.618
	})
	lo, hi := est.Wilson(3.3)
	if 0.618 < lo || 0.618 > hi {
		t.Errorf("interval [%v, %v] misses 0.618 (est %v)", lo, hi, est)
	}
	if hi-lo > 0.03 {
		t.Errorf("interval too wide: [%v, %v]", lo, hi)
	}
}

func TestWilsonClamped(t *testing.T) {
	all := Estimate{Trials: 100, Successes: 100}
	lo, hi := all.Wilson(1.96)
	if hi > 1 || lo < 0 {
		t.Errorf("interval [%v, %v] out of [0,1]", lo, hi)
	}
	none := Estimate{Trials: 100, Successes: 0}
	lo, _ = none.Wilson(1.96)
	if lo != 0 {
		t.Errorf("lo = %v, want 0", lo)
	}
}

func TestEmptyEstimate(t *testing.T) {
	var e Estimate
	if !math.IsNaN(e.P()) {
		t.Error("empty estimate should be NaN")
	}
	lo, hi := e.Wilson(1.96)
	if !math.IsNaN(lo) || !math.IsNaN(hi) {
		t.Error("empty Wilson should be NaN")
	}
}

func TestEstimateString(t *testing.T) {
	e := Estimate{Trials: 100, Successes: 62}
	if e.String() != "p=0.6200 (62/100)" {
		t.Errorf("String = %q", e.String())
	}
}

func TestMean(t *testing.T) {
	mean, stderr := meanTrials(4000, func(trial int) float64 {
		return localrand.NewSource(uint64(trial)).Float64()
	})
	if math.Abs(mean-0.5) > 0.02 {
		t.Errorf("mean = %v, want ≈ 0.5", mean)
	}
	// Uniform stddev = 1/sqrt(12) ≈ 0.2887; stderr ≈ 0.00456.
	if stderr < 0.003 || stderr > 0.006 {
		t.Errorf("stderr = %v out of expected range", stderr)
	}
}

func TestMeanConstant(t *testing.T) {
	mean, stderr := meanTrials(100, func(int) float64 { return 7 })
	if mean != 7 || stderr != 0 {
		t.Errorf("mean=%v stderr=%v, want 7, 0", mean, stderr)
	}
}

func TestMeanSingleTrial(t *testing.T) {
	mean, stderr := meanTrials(1, func(int) float64 { return 3 })
	if mean != 3 || stderr != 0 {
		t.Errorf("mean=%v stderr=%v", mean, stderr)
	}
}

// scratch is a stand-in for a reusable per-worker engine: it records that
// the harness created it once per worker, not once per trial.
type scratch struct{ uses int }

func TestRunWithMatchesRun(t *testing.T) {
	f := func(trial int) bool {
		return localrand.NewSource(uint64(trial)).Float64() < 0.37
	}
	want := runTrials(5000, f)
	var created atomic.Int64
	got := Executor[*scratch]{
		Trials:   5000,
		NewState: func() *scratch { created.Add(1); return &scratch{} },
	}.Run(Scalar(func(s *scratch, trial int) bool { s.uses++; return f(trial) }))
	if got != want {
		t.Errorf("stateful run = %+v, want %+v", got, want)
	}
	if c := created.Load(); c < 1 || c > int64(runtime.GOMAXPROCS(0)) {
		t.Errorf("newState called %d times; want once per worker", c)
	}
}

func TestMeanWithMatchesMean(t *testing.T) {
	f := func(trial int) float64 {
		return localrand.NewSource(uint64(trial)).Float64()
	}
	wantMean, wantSE := meanTrials(4000, f)
	gotMean, gotSE := Executor[*scratch]{
		Trials:   4000,
		NewState: func() *scratch { return &scratch{} },
	}.Mean(ScalarMean(func(s *scratch, trial int) float64 { return f(trial) }))
	if gotMean != wantMean || gotSE != wantSE {
		t.Errorf("stateful mean = (%v, %v), want (%v, %v)", gotMean, gotSE, wantMean, wantSE)
	}
}

func TestRunWithZeroTrials(t *testing.T) {
	est := Executor[*scratch]{
		NewState: func() *scratch { t.Error("state created for zero trials"); return nil },
	}.Run(Scalar(func(*scratch, int) bool { t.Error("trial executed"); return false }))
	if est.Trials != 0 || est.Successes != 0 {
		t.Errorf("est = %+v", est)
	}
}

func TestRunWithStateIsPerWorker(t *testing.T) {
	// Every trial must observe the state its own worker created. If a
	// regression shared one state across workers, the unsynchronized
	// increments below would lose updates, the use counts would no longer
	// sum to the trial count, and -race would flag the writes.
	var mu sync.Mutex
	var states []*scratch
	est := Executor[*scratch]{
		Trials: 2000,
		NewState: func() *scratch {
			s := &scratch{}
			mu.Lock()
			states = append(states, s)
			mu.Unlock()
			return s
		},
	}.Run(Scalar(func(s *scratch, trial int) bool {
		s.uses++
		return true
	}))
	if est.Successes != 2000 {
		t.Errorf("successes = %d, want 2000", est.Successes)
	}
	total := 0
	for _, s := range states {
		if s.uses == 0 {
			t.Error("a worker state ran zero trials")
		}
		total += s.uses
	}
	if total != 2000 {
		t.Errorf("per-state use counts sum to %d, want 2000 (states shared across workers?)", total)
	}
}

// TestRunBatchedMatchesRun pins that batched execution visits exactly
// the same trial indices with the same per-trial outcomes as scalar, across
// chunk shapes that do and do not divide the trial count.
func TestRunBatchedMatchesRun(t *testing.T) {
	pred := func(trial int) bool { return trial%3 == 0 || trial%7 == 2 }
	for _, trials := range []int{1, 31, 96, 1000} {
		for _, batch := range []int{1, 4, 32} {
			want := runTrials(trials, pred)
			got := Executor[struct{}]{Trials: trials, Batch: batch}.
				Run(func(_ struct{}, lo, hi int, out []bool) {
					if hi-lo > batch {
						t.Fatalf("chunk [%d,%d) exceeds batch %d", lo, hi, batch)
					}
					for i := lo; i < hi; i++ {
						out[i-lo] = pred(i)
					}
				})
			if got != want {
				t.Errorf("trials=%d batch=%d: %v, want %v", trials, batch, got, want)
			}
		}
	}
}

// TestRunShardedMatchesRun pins that shard-group distribution changes
// only which worker evaluates which chunk: success counts are integers,
// so the estimate is exact at every shard count, including shard counts
// above GOMAXPROCS (one group) and below (several groups).
func TestRunShardedMatchesRun(t *testing.T) {
	pred := func(trial int) bool { return trial%5 == 0 || trial%11 == 3 }
	for _, trials := range []int{1, 47, 500} {
		for _, shards := range []int{1, 2, 4, 64} {
			want := runTrials(trials, pred)
			got := Executor[struct{}]{Trials: trials, Batch: 8, Shards: shards}.
				Run(func(_ struct{}, lo, hi int, out []bool) {
					for i := lo; i < hi; i++ {
						out[i-lo] = pred(i)
					}
				})
			if got != want {
				t.Errorf("trials=%d shards=%d: %v, want %v", trials, shards, got, want)
			}
		}
	}
}

// TestRunShardedPoolSize pins the group sizing: with S-shard state each
// group occupies S goroutines, so the pool must shrink to
// GOMAXPROCS/S groups (floored at one). Worker indices are observed
// through the per-worker state constructor.
func TestRunShardedPoolSize(t *testing.T) {
	procs := runtime.GOMAXPROCS(0)
	for _, shards := range []int{1, 2, procs, 4 * procs} {
		wantMax := procs / shards
		if wantMax < 1 {
			wantMax = 1
		}
		var states atomic.Int64
		Executor[struct{}]{
			Trials: 1000, Batch: 8, Shards: shards,
			NewState: func() struct{} {
				states.Add(1)
				return struct{}{}
			},
		}.Run(func(_ struct{}, lo, hi int, out []bool) {})
		if got := states.Load(); got > int64(wantMax) {
			t.Errorf("shards=%d: %d worker states, want <= %d", shards, got, wantMax)
		}
	}
}

// TestMeanShardedMatchesMean pins the sharded-pool mean against a
// sequential sum at one worker group (shards >= GOMAXPROCS forces a
// single group).
func TestMeanShardedMatchesMean(t *testing.T) {
	obs := func(trial int) float64 { return float64(trial%13) * 0.29 }
	trials := 300
	wantMean := 0.0
	for i := 0; i < trials; i++ {
		wantMean += obs(i)
	}
	wantMean /= float64(trials)
	gotMean, gotSE := Executor[struct{}]{Trials: trials, Batch: 8, Shards: 4 * runtime.GOMAXPROCS(0)}.
		Mean(func(_ struct{}, lo, hi int, out []float64) {
			for i := lo; i < hi; i++ {
				out[i-lo] = obs(i)
			}
		})
	if gotMean != wantMean {
		t.Errorf("mean %v, want %v", gotMean, wantMean)
	}
	if gotSE <= 0 {
		t.Errorf("stderr %v, want > 0", gotSE)
	}
}

// TestMeanBatchedMatchesMean pins bit-identical mean and stderr: values
// accumulate in trial order whatever the batch width, so floating-point
// results agree exactly with scalar execution.
func TestMeanBatchedMatchesMean(t *testing.T) {
	obs := func(trial int) float64 { return float64(trial%17) * 0.37 }
	for _, trials := range []int{1, 31, 1000} {
		for _, batch := range []int{1, 5, 32} {
			wantMean, wantSE := meanTrials(trials, obs)
			gotMean, gotSE := Executor[struct{}]{Trials: trials, Batch: batch}.
				Mean(func(_ struct{}, lo, hi int, out []float64) {
					for i := lo; i < hi; i++ {
						out[i-lo] = obs(i)
					}
				})
			if gotMean != wantMean || gotSE != wantSE {
				t.Errorf("trials=%d batch=%d: mean %v se %v, want %v %v", trials, batch, gotMean, gotSE, wantMean, wantSE)
			}
		}
	}
}
