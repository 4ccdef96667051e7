package mc

import (
	"math"
	"sync"
	"sync/atomic"
)

// This file is the work-stealing trial scheduler: the execution core of
// Executor.Run and Executor.Mean. The trial range is cut into [lo, hi)
// chunks of one batch each on a shared queue; workers dequeue, execute,
// and come back for more, so a slow or straggling worker simply ends up
// with fewer chunks instead of gating the sweep.
//
// Two properties make stealing safe for a measurement harness:
//
//   - Estimates are a function of the trial bodies alone. Trial bodies
//     derive all randomness from the trial index, so a trial's outcome
//     does not depend on which worker ran it; Run sums integers
//     (order-free), and Mean writes every trial's value into a shared
//     per-trial slice and accumulates it in trial order after the last
//     chunk — one fixed summation order regardless of pool size or
//     scheduling, the order of a sequential trial loop.
//
//   - A failing chunk is requeued, not fatal. A body that cannot
//     complete its chunk signals with Fail (or any panic): the worker
//     discards its state — a sharded executor whose worker process died,
//     a poisoned transport — closes it, builds a fresh one on its next
//     claim, and the chunk goes back on the queue for another attempt.
//     Only a chunk that keeps failing (maxChunkAttempts fresh states)
//     aborts the sweep, re-raising the original panic.

// Fail aborts the current trial chunk with err: the scheduler closes the
// worker's state, requeues the chunk, and retries it on a freshly built
// state. Trial bodies call it when the failure is in the execution
// substrate (a dead worker process, a broken transport) rather than the
// measured algorithm — fabricating a degraded measurement instead would
// silently corrupt the estimate.
func Fail(err error) {
	panic(err)
}

// maxChunkAttempts bounds how many fresh states one chunk may consume
// before its failure is considered permanent and re-raised: the first
// attempt plus two retries.
const maxChunkAttempts = 3

// stealChunk is one [lo, hi) trial span in flight, carrying its attempt
// count across requeues.
type stealChunk struct {
	lo, hi  int
	attempt int
}

// chunkFailure wraps a recovered chunk panic so the scheduler can tell
// "this attempt failed" from "ran clean".
type chunkFailure struct{ val any }

// runChunk executes one chunk attempt, converting a panic into a
// failure value.
func runChunk(body func()) (failure *chunkFailure) {
	defer func() {
		if r := recover(); r != nil {
			failure = &chunkFailure{val: r}
		}
	}()
	body()
	return nil
}

// stealWorkers runs body(w, s, lo, hi) over [0, trials) in chunks of
// batch on up to `workers` goroutines fed from a shared chunk queue.
// w < workers indexes the goroutine (bodies may keep worker-indexed
// accumulators); s is the goroutine's current state. The queue is FIFO,
// so a single worker processes chunks in ascending trial order.
//
// States are built lazily: a worker calls newState when it claims its
// first chunk, so every built state runs at least one chunk attempt and
// a worker that finds the sweep already drained builds none.
//
// A body panic fails the attempt: the state is closed, a fresh one is
// built on the worker's next claim, and the chunk is requeued until
// maxChunkAttempts is exhausted, at which point the sweep drains and the
// original panic value is re-raised.
//
// progress, when non-nil, observes the schedule: (0, nchunks) once
// before the first chunk is handed out, then the cumulative completed
// count after each clean chunk — the latter concurrently from worker
// goroutines (Executor.Progress documents the contract).
func stealWorkers[S any](trials, batch, workers int, newState func() S, progress func(done, total int), body func(w int, s S, lo, hi int)) {
	if batch < 1 {
		batch = 1
	}
	nchunks := (trials + batch - 1) / batch
	if nchunks == 0 {
		return
	}
	if progress != nil {
		progress(0, nchunks)
	}
	if workers > nchunks {
		workers = nchunks
	}
	if workers < 1 {
		workers = 1
	}
	// Capacity covers every chunk plus one requeue slot per worker, so a
	// requeue send can never block (each worker holds at most one chunk).
	queue := make(chan stealChunk, nchunks+workers)
	for lo := 0; lo < trials; lo += batch {
		hi := lo + batch
		if hi > trials {
			hi = trials
		}
		queue <- stealChunk{lo: lo, hi: hi}
	}
	var pending atomic.Int64
	pending.Store(int64(nchunks))
	// done closes when the sweep is over — all chunks completed, or one
	// failed permanently. The queue itself is never closed: a concurrent
	// requeue racing a close would panic on the send.
	done := make(chan struct{})
	var doneOnce sync.Once
	finish := func() { doneOnce.Do(func() { close(done) }) }
	var fatalMu sync.Mutex
	var fatal *chunkFailure

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			// Built on claim: a worker whose peers drain the queue first
			// never builds a batch or dials a fleet just to close it.
			var s S
			built := false
			defer func() {
				if built {
					closeState(s)
				}
			}()
			for {
				var c stealChunk
				select {
				case c = <-queue:
				case <-done:
					return
				}
				if !built {
					s, built = newState(), true
				}
				if failure := runChunk(func() { body(w, s, c.lo, c.hi) }); failure != nil {
					// The attempt died with its state: discard the state and
					// retry the chunk on a fresh one, built by whichever
					// worker claims it next. The fresh build re-runs the
					// state constructor, which is where degraded modes live
					// (a sharded provider excluding dead workers, or falling
					// back to a local batch).
					closeState(s)
					built = false
					if c.attempt+1 >= maxChunkAttempts {
						fatalMu.Lock()
						if fatal == nil {
							fatal = failure
						}
						fatalMu.Unlock()
						finish()
						return
					}
					queue <- stealChunk{lo: c.lo, hi: c.hi, attempt: c.attempt + 1}
					continue
				}
				left := pending.Add(-1)
				if progress != nil {
					progress(nchunks-int(left), nchunks)
				}
				if left == 0 {
					finish()
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if fatal != nil {
		panic(fatal.val)
	}
}

// runSteal is Run's core: per-worker success counters (integer sums are
// order-free, so the estimate does not depend on the schedule) over the
// stealing scheduler. A chunk's successes are counted only
// after its body returns clean — a failed attempt contributes nothing,
// and its requeued rerun recounts from a zeroed row.
func runSteal[S any](trials, batch, workers int, newState func() S, progress func(done, total int), f func(s S, lo, hi int, out []bool)) Estimate {
	if batch < 1 {
		batch = 1
	}
	counts := make([]int, workers)
	outs := make([][]bool, workers)
	stealWorkers(trials, batch, workers, newState, progress, func(w int, s S, lo, hi int) {
		if outs[w] == nil {
			outs[w] = make([]bool, batch)
		}
		chunk := outs[w][:hi-lo]
		clear(chunk)
		f(s, lo, hi, chunk)
		for _, ok := range chunk {
			if ok {
				counts[w]++
			}
		}
	})
	succ := 0
	for _, c := range counts {
		succ += c
	}
	return Estimate{Trials: trials, Successes: succ}
}

// meanSteal is Mean's core: every trial's value lands in its own slot of
// a shared per-trial slice (chunks cover disjoint ranges, so workers
// never race), and the mean and standard error accumulate in trial order
// once the sweep completes. The summation order is therefore a fixed
// function of the trial count — independent of pool size, scheduling,
// and stealing — and equal to a sequential trial loop's.
func meanSteal[S any](trials, batch, workers int, newState func() S, progress func(done, total int), f func(s S, lo, hi int, out []float64)) (mean, stderr float64) {
	if batch < 1 {
		batch = 1
	}
	vals := make([]float64, trials)
	stealWorkers(trials, batch, workers, newState, progress, func(w int, s S, lo, hi int) {
		chunk := vals[lo:hi]
		clear(chunk)
		f(s, lo, hi, chunk)
	})
	return meanOf(trials, vals)
}

// meanOf folds per-trial values in index order into the sample mean and
// standard error.
func meanOf(trials int, vals []float64) (mean, stderr float64) {
	var sum, sq float64
	for _, v := range vals {
		sum += v
		sq += v * v
	}
	n := float64(trials)
	mean = sum / n
	variance := sq/n - mean*mean
	if variance < 0 {
		variance = 0
	}
	if trials > 1 {
		stderr = math.Sqrt(variance / (n - 1))
	}
	return mean, stderr
}
