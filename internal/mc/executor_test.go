package mc

import (
	"math"
	"testing"

	"rlnc/internal/local"
)

// trialPredicate is the reference Bernoulli body of the executor tests:
// success iff the trial index hashes to an even word.
func trialPredicate(trial int) bool {
	x := uint64(trial)*0x9e3779b97f4a7c15 + 1
	x ^= x >> 33
	return x&1 == 0
}

// TestExecutorMatchesLegacy pins the unification: every Executor
// configuration — scalar, batched, and sharded — computes the sequential
// trial loop's estimate bit for bit for the same per-trial bodies.
func TestExecutorMatchesLegacy(t *testing.T) {
	const trials = 1000
	want := sequentialEstimate(trials, trialPredicate)
	got := Executor[struct{}]{Trials: trials}.
		Run(Scalar(func(_ struct{}, trial int) bool { return trialPredicate(trial) }))
	if want != got {
		t.Errorf("scalar: executor %+v, sequential %+v", got, want)
	}

	batched := Executor[struct{}]{Trials: trials, Batch: 7}.
		Run(func(_ struct{}, lo, hi int, out []bool) {
			for i := lo; i < hi; i++ {
				out[i-lo] = trialPredicate(i)
			}
		})
	if want != batched {
		t.Errorf("batched: executor %+v, sequential %+v", batched, want)
	}

	sharded := Executor[struct{}]{Trials: trials, Batch: 7, Shards: 2}.
		Run(func(_ struct{}, lo, hi int, out []bool) {
			for i := lo; i < hi; i++ {
				out[i-lo] = trialPredicate(i)
			}
		})
	if want != sharded {
		t.Errorf("sharded pool: executor %+v, sequential %+v", sharded, want)
	}

	obs := func(trial int) float64 { return float64(trial%17) / 17 }
	wm, ws := sequentialMean(trials, obs)
	gm, gs := Executor[struct{}]{Trials: trials}.
		Mean(ScalarMean(func(_ struct{}, trial int) float64 { return obs(trial) }))
	if wm != gm || ws != gs {
		t.Errorf("mean: executor (%v, %v), sequential (%v, %v)", gm, gs, wm, ws)
	}
	if math.IsNaN(gm) {
		t.Error("mean is NaN")
	}
}

// faultRecorder is a worker state that records the armed plan.
type faultRecorder struct{ got *local.FaultPlan }

func (r *faultRecorder) SetFault(f *local.FaultPlan) { r.got = f }

// TestExecutorArmsFault checks the fault axis: a non-nil Executor.Fault
// is installed on every worker state exposing SetFault, and states
// without the method are silently left alone.
func TestExecutorArmsFault(t *testing.T) {
	fp := &local.FaultPlan{Seed: 9, Drop: 0.1}
	est := Executor[*faultRecorder]{
		Trials:   4,
		Fault:    fp,
		NewState: func() *faultRecorder { return &faultRecorder{} },
	}.Run(Scalar(func(s *faultRecorder, _ int) bool {
		return s.got == fp
	}))
	if est.Successes != est.Trials {
		t.Errorf("fault armed on %d/%d trials' states", est.Successes, est.Trials)
	}

	// A state without SetFault runs unperturbed.
	plain := Executor[int]{Trials: 2, Fault: fp}.
		Run(Scalar(func(int, int) bool { return true }))
	if plain.Successes != 2 {
		t.Errorf("stateless run under fault option: %+v", plain)
	}
}
