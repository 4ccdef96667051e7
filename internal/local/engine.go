package local

import (
	"errors"
	"runtime"
	"sync"

	"rlnc/internal/lang"
	"rlnc/internal/localrand"
)

// NodeInfo is the static information a node holds when an execution
// starts: its identity, degree, input, and (for Monte-Carlo algorithms)
// its private random tape.
type NodeInfo struct {
	ID     int64
	Degree int
	Input  []byte
	// Tape is nil in deterministic executions.
	Tape *localrand.Tape
}

// Stats records the observable cost of an execution.
type Stats struct {
	// Rounds is the number of communication rounds executed.
	Rounds int
	// Messages is the number of (non-nil) messages delivered.
	Messages int64
}

// Result is the outcome of a message-passing execution: the output
// column (node v's output is Y.At(v)) and the run's cost.
type Result struct {
	Y     lang.Column
	Stats Stats
}

// ErrNoHalt reports an execution that exceeded its round budget.
var ErrNoHalt = errors.New("local: algorithm did not halt within the round budget")

// RunOptions tunes an execution.
type RunOptions struct {
	// MaxRounds caps the number of rounds; 0 selects 2n+64, a generous
	// bound for the algorithms in this repository.
	MaxRounds int
	// StopAfter, when positive, ends the execution after exactly that
	// many communication rounds whether or not all nodes reported done
	// (the completion time of a LOCAL algorithm is deterministic,
	// §2.1.2). Fixed-round algorithms must have valid outputs then.
	StopAfter int
	// Fault, when non-nil and enabled, injects the plan's faults —
	// message drop/delay, node crashes, topology surgery — into the run
	// (see fault.go). It overrides any executor default installed with
	// SetFault; nil falls back to that default, and a nil-or-zero
	// effective plan runs the unperturbed fast path. Every execution
	// shape honors the same plan byte-identically at equal fault seeds.
	Fault *FaultPlan
}

// RunMessage executes a message-passing algorithm on an instance. A nil
// draw yields a deterministic execution; otherwise each node's tape is
// drawn from σ by identity.
//
// RunMessage is the single-shot convenience wrapper over the Plan/Batch
// layer: it builds the instance's execution plan (the CSR flattening and
// reverse-port table are cached on the graph, so repeat runs share them)
// and a transient width-1 Batch. Callers measuring many executions on
// one graph — Monte-Carlo trial loops above all — should hold a Plan and
// give each worker its own Batch; see plan.go and batch.go.
func RunMessage(in *lang.Instance, algo WireAlgorithm, draw *localrand.Draw, opts RunOptions) (*Result, error) {
	plan, err := NewPlan(in.G)
	if err != nil {
		return nil, err
	}
	return plan.Run(in, algo, draw, opts)
}

// parallelFor runs fn(i) for i in [0, n) on a pool of GOMAXPROCS workers,
// in contiguous chunks. Callers guarantee fn touches disjoint state per
// index, so the iteration is deterministic regardless of scheduling. A
// panic inside fn is captured and re-raised on the calling goroutine, so
// algorithm contract violations surface as ordinary recoverable panics.
func parallelFor(n int, fn func(i int)) {
	parallelChunks(n, maxWorkers(n), func(w, lo, hi int) {
		for i := lo; i < hi; i++ {
			fn(i)
		}
	})
}

// maxWorkers is the worker count of a parallel pass over n indices:
// GOMAXPROCS, at most n, at least 1.
func maxWorkers(n int) int {
	workers := runtime.GOMAXPROCS(0)
	if workers > n {
		workers = n
	}
	if workers < 1 {
		workers = 1
	}
	return workers
}

// parallelChunks partitions [0, n) into at most `workers` contiguous
// chunks and runs body(w, lo, hi) for each on its own goroutine (inline
// when one worker suffices). w < workers always holds, so bodies may
// accumulate into worker-indexed scratch sized by the caller without
// atomics — the batched round loop counts delivered messages and
// halting transitions this way, with one worker count for the whole run.
// Panics are captured and re-raised on the calling goroutine.
func parallelChunks(n, workers int, body func(w, lo, hi int)) {
	if workers <= 1 {
		if n > 0 {
			body(0, 0, n)
		}
		return
	}
	var wg sync.WaitGroup
	var mu sync.Mutex
	var panicked any
	chunk := (n + workers - 1) / workers
	for w := 0; w < workers; w++ {
		lo := w * chunk
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		if lo >= hi {
			break
		}
		wg.Add(1)
		go func(w, lo, hi int) {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					mu.Lock()
					if panicked == nil {
						panicked = r
					}
					mu.Unlock()
				}
			}()
			body(w, lo, hi)
		}(w, lo, hi)
	}
	wg.Wait()
	if panicked != nil {
		panic(panicked)
	}
}
