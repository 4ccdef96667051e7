package mc

import (
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"testing"
)

// trialOutcome is the deterministic per-trial Bernoulli body every
// scheduler test shares: outcome is a pure function of the trial index,
// exactly the contract real trial bodies honor (all randomness derived
// from the index), so any two schedulers must agree bit for bit.
func trialOutcome(trial int) bool {
	x := uint64(trial)*0x9e3779b97f4a7c15 + 0x1234
	x ^= x >> 29
	return x%3 == 0
}

func trialValue(trial int) float64 {
	x := uint64(trial)*0x9e3779b97f4a7c15 + 0x77
	x ^= x >> 31
	return float64(x%1000) / 997.0
}

// sequentialEstimate and sequentialMean are the scheduler tests' oracle:
// one loop over the trials in index order, with no pool, no chunking and
// no stealing. Every schedule must reproduce them bit for bit — the
// mean included, because values fold in trial order.
func sequentialEstimate(trials int, outcome func(trial int) bool) Estimate {
	e := Estimate{Trials: trials}
	for i := 0; i < trials; i++ {
		if outcome(i) {
			e.Successes++
		}
	}
	return e
}

func sequentialMean(trials int, value func(trial int) float64) (mean, stderr float64) {
	var sum, sq float64
	for i := 0; i < trials; i++ {
		v := value(i)
		sum += v
		sq += v * v
	}
	n := float64(trials)
	mean = sum / n
	if variance := sq/n - mean*mean; trials > 1 && variance > 0 {
		stderr = math.Sqrt(variance / (n - 1))
	}
	return mean, stderr
}

// schedulerShapes is the trials/batch/workers sweep of the differential
// tests: zero trials, trials < workers, trials < batch, ragged tails,
// single-chunk, and bulk shapes.
var schedulerShapes = []struct{ trials, batch, workers int }{
	{0, 1, 4},
	{0, 32, 1},
	{1, 1, 8},
	{1, 4, 8},
	{3, 1, 8},   // trials < workers, scalar chunks
	{5, 32, 4},  // trials < batch: one ragged chunk
	{7, 2, 3},   // ragged tail
	{64, 32, 2}, // exact chunks
	{100, 7, 16},
	{257, 32, 5},
}

// TestStealEstimateMatchesStaticSplit is the work-stealing scheduler's
// acceptance gate: for every pool shape — trials below the worker count
// and zero trials included — the stolen Estimate equals the sequential
// trial loop's, and every trial executes exactly once.
func TestStealEstimateMatchesStaticSplit(t *testing.T) {
	for _, shape := range schedulerShapes {
		shape := shape
		t.Run(fmt.Sprintf("t%d_b%d_w%d", shape.trials, shape.batch, shape.workers), func(t *testing.T) {
			body := func(_ struct{}, lo, hi int, out []bool) {
				for i := lo; i < hi; i++ {
					out[i-lo] = trialOutcome(i)
				}
			}
			newState := func() struct{} { return struct{}{} }
			want := sequentialEstimate(shape.trials, trialOutcome)

			ran := make([]atomic.Int32, shape.trials)
			got := runSteal(shape.trials, shape.batch, shape.workers, newState, nil,
				func(s struct{}, lo, hi int, out []bool) {
					for i := lo; i < hi; i++ {
						ran[i].Add(1)
					}
					body(s, lo, hi, out)
				})
			if got != want {
				t.Fatalf("steal %+v != sequential %+v", got, want)
			}
			for i := range ran {
				if n := ran[i].Load(); n != 1 {
					t.Fatalf("trial %d executed %d times", i, n)
				}
			}
		})
	}
}

// TestStealMeanTrialOrderDeterminism pins the Mean merge contract: the
// stolen mean and standard error are bitwise identical to the sequential
// trial loop for every pool shape — i.e. the float accumulation order is
// the fixed trial order no matter how many workers steal.
func TestStealMeanTrialOrderDeterminism(t *testing.T) {
	body := func(_ struct{}, lo, hi int, out []float64) {
		for i := lo; i < hi; i++ {
			out[i-lo] = trialValue(i)
		}
	}
	newState := func() struct{} { return struct{}{} }
	for _, shape := range schedulerShapes {
		if shape.trials == 0 {
			continue // NaN/NaN on both sides; compared below
		}
		wantMean, wantErr := sequentialMean(shape.trials, trialValue)
		gotMean, gotErr := meanSteal(shape.trials, shape.batch, shape.workers, newState, nil, body)
		if math.Float64bits(gotMean) != math.Float64bits(wantMean) ||
			math.Float64bits(gotErr) != math.Float64bits(wantErr) {
			t.Fatalf("shape %+v: steal mean (%v, %v) != sequential (%v, %v)",
				shape, gotMean, gotErr, wantMean, wantErr)
		}
	}
	// Zero trials: NaN mean, zero stderr, no body calls.
	mean, stderr := meanSteal(0, 4, 3, newState, nil, body)
	if !math.IsNaN(mean) || stderr != 0 {
		t.Fatalf("zero-trial mean = (%v, %v), want (NaN, 0)", mean, stderr)
	}
}

// flakyState fails every chunk attempt while the shared failure budget
// lasts, then runs clean; Close counts so the test can assert failed
// states are actually released before their replacements are built.
type flakyState struct {
	failures *atomic.Int32 // remaining attempts to fail
	closed   *atomic.Int32
}

func (s flakyState) Close() error {
	s.closed.Add(1)
	return nil
}

// TestStealRequeuesFailedChunk pins the requeue contract: a chunk whose
// body fails is retried on a fresh state, the sweep completes with every
// trial counted exactly once, and the failed state was closed.
func TestStealRequeuesFailedChunk(t *testing.T) {
	var failures, closed, built atomic.Int32
	failures.Store(2) // two attempts die (possibly on different chunks)
	newState := func() flakyState {
		built.Add(1)
		return flakyState{failures: &failures, closed: &closed}
	}
	trials, batch, workers := 40, 4, 3
	want := sequentialEstimate(trials, trialOutcome)
	ran := make([]atomic.Int32, trials)
	got := runSteal(trials, batch, workers, newState, nil, func(s flakyState, lo, hi int, out []bool) {
		if s.failures.Add(-1) >= 0 {
			Fail(errors.New("substrate failure"))
		}
		for i := lo; i < hi; i++ {
			ran[i].Add(1)
			out[i-lo] = trialOutcome(i)
		}
	})
	if got != want {
		t.Fatalf("estimate after requeue %+v != sequential %+v", got, want)
	}
	for i := range ran {
		if n := ran[i].Load(); n != 1 {
			t.Fatalf("trial %d completed %d times", i, n)
		}
	}
	if closed.Load() < 2 {
		t.Fatalf("%d states closed, want >= 2 (one per failed attempt)", closed.Load())
	}
	// States are built on claim: at least the first state plus one
	// replacement per failed attempt, at most one per worker plus those
	// replacements — and every built state is closed exactly once.
	if b := built.Load(); b < 1+2 || b > 3+2 {
		t.Fatalf("%d states built, want 3..5 (first claim + a replacement per failed attempt, ≤ one per worker)", b)
	}
	if closed.Load() != built.Load() {
		t.Fatalf("%d states closed, %d built: want every built state closed once", closed.Load(), built.Load())
	}
}

// TestStealBuildsStateOnClaim pins lazy state construction. A chunk
// that fails permanently on one worker builds exactly one state per
// attempt — the fatal attempt does not build a replacement it would
// only close — and every built state is closed. Across a contended
// sweep, no built state goes unused.
func TestStealBuildsStateOnClaim(t *testing.T) {
	var built, closed atomic.Int32
	newState := func() flakyState {
		built.Add(1)
		return flakyState{closed: &closed}
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("permanently failing chunk did not panic")
			}
		}()
		runSteal(4, 4, 1, newState, nil, func(flakyState, int, int, []bool) {
			Fail(errors.New("permanently broken"))
		})
	}()
	if built.Load() != maxChunkAttempts || closed.Load() != maxChunkAttempts {
		t.Fatalf("built %d, closed %d states; want %d each (one per attempt)",
			built.Load(), closed.Load(), maxChunkAttempts)
	}

	type counted struct{ chunks *atomic.Int32 }
	var mu sync.Mutex
	var states []counted
	runSteal(400, 1, 4, func() counted {
		s := counted{chunks: new(atomic.Int32)}
		mu.Lock()
		states = append(states, s)
		mu.Unlock()
		return s
	}, nil, func(s counted, lo, hi int, out []bool) {
		s.chunks.Add(1)
	})
	for i, s := range states {
		if s.chunks.Load() == 0 {
			t.Fatalf("state %d of %d was built but ran no chunk", i, len(states))
		}
	}
}

// TestStealPermanentFailurePanics pins the retry bound: a chunk that
// fails on every fresh state aborts the sweep by re-raising the original
// panic value after maxChunkAttempts attempts — it neither spins forever
// nor silently drops trials.
func TestStealPermanentFailurePanics(t *testing.T) {
	sentinel := errors.New("permanently broken")
	var attempts atomic.Int32
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("permanently failing chunk did not panic")
		}
		err, ok := r.(error)
		if !ok || !errors.Is(err, sentinel) {
			t.Fatalf("panic value %v, want the original failure", r)
		}
		// The failing chunk burned exactly its attempt budget; other
		// chunks may or may not have run, but none more than the budget.
		if n := attempts.Load(); n < maxChunkAttempts {
			t.Fatalf("%d attempts before permanent failure, want >= %d", n, maxChunkAttempts)
		}
	}()
	runSteal(8, 4, 2, func() struct{} { return struct{}{} }, nil,
		func(_ struct{}, lo, hi int, out []bool) {
			if lo == 0 {
				attempts.Add(1)
				Fail(sentinel)
			}
			for i := lo; i < hi; i++ {
				out[i-lo] = trialOutcome(i)
			}
		})
}

// TestStealProgressReports pins the Progress hook contract: one leading
// (0, total) call before any chunk completes, then exactly one call per
// completed chunk carrying a distinct cumulative count, so the full
// event set is {0, 1, ..., total} — with requeued failures reporting
// only on their eventually-clean rerun. The estimate itself must be
// unchanged by observation.
func TestStealProgressReports(t *testing.T) {
	var mu sync.Mutex
	var dones []int
	total := -1
	var failures atomic.Int32
	failures.Store(2)
	trials, batch := 40, 4
	est := Executor[struct{}]{
		Trials: trials, Batch: batch,
		Progress: func(done, n int) {
			mu.Lock()
			defer mu.Unlock()
			dones = append(dones, done)
			total = n
		},
	}.Run(func(_ struct{}, lo, hi int, out []bool) {
		if failures.Add(-1) >= 0 {
			Fail(errors.New("substrate failure"))
		}
		for i := lo; i < hi; i++ {
			out[i-lo] = trialOutcome(i)
		}
	})
	want := sequentialEstimate(trials, trialOutcome)
	if est != want {
		t.Fatalf("observed estimate %+v != sequential %+v", est, want)
	}
	nchunks := (trials + batch - 1) / batch
	if total != nchunks {
		t.Fatalf("reported total %d, want %d", total, nchunks)
	}
	if len(dones) != nchunks+1 {
		t.Fatalf("%d progress calls, want %d (leading zero + one per chunk)", len(dones), nchunks+1)
	}
	if dones[0] != 0 {
		t.Fatalf("first progress call reported done=%d, want 0", dones[0])
	}
	seen := make(map[int]bool, len(dones))
	for _, d := range dones {
		if d < 0 || d > nchunks || seen[d] {
			t.Fatalf("progress counts %v: want each of 0..%d exactly once", dones, nchunks)
		}
		seen[d] = true
	}
}

// TestExecutorStealMatrix runs the same differential through the public
// Executor surface — Batch/Shards field combinations included — so the
// wiring from Executor.Run/Mean down to the stealing cores is covered,
// not just the cores themselves.
func TestExecutorStealMatrix(t *testing.T) {
	for _, trials := range []int{0, 1, 5, 97} {
		for _, batch := range []int{0, 1, 8} {
			est := Executor[struct{}]{Trials: trials, Batch: batch}.
				Run(Scalar(func(_ struct{}, trial int) bool { return trialOutcome(trial) }))
			want := sequentialEstimate(trials, trialOutcome)
			if est != want {
				t.Fatalf("trials=%d batch=%d: executor %+v != sequential %+v", trials, batch, est, want)
			}
			// Shard-group pool sizing must not change the estimate either.
			est2 := Executor[struct{}]{Trials: trials, Batch: batch, Shards: 2}.
				Run(Scalar(func(_ struct{}, trial int) bool { return trialOutcome(trial) }))
			if est2 != want {
				t.Fatalf("trials=%d batch=%d shards=2: %+v != %+v", trials, batch, est2, want)
			}
		}
	}
}
