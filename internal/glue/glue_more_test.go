package glue

import (
	"errors"
	"math"
	"testing"

	"rlnc/internal/construct"
	"rlnc/internal/graph"
	"rlnc/internal/ids"
	"rlnc/internal/lang"
	"rlnc/internal/localrand"
	"rlnc/internal/mc"
)

// coinRunner fails (monochromatic output) with probability 1/2 per run,
// decided by the tape of the minimum identity.
type coinRunner struct{}

func (coinRunner) Name() string { return "coin" }
func (coinRunner) Run(in *lang.Instance, draw *localrand.Draw) (lang.Column, error) {
	y := make([][]byte, in.G.N())
	fail := draw != nil && draw.Tape(in.ID.Min()).Bernoulli(0.5)
	for v := range y {
		c := v % 3
		if fail {
			c = 1
		}
		y[v] = lang.EncodeColor(c)
	}
	return lang.ColumnOf(y), nil
}

func TestFindHardCycleRandomized(t *testing.T) {
	l := lang.ProperColoring(3)
	space := localrand.NewTapeSpace(3)
	hi, err := FindHardCycle(coinRunner{}, l, 4, 1, 0.3, space, 400, 1<<10)
	if err != nil {
		t.Fatal(err)
	}
	if p := hi.FailureProb.P(); math.Abs(p-0.5) > 0.15 {
		t.Errorf("failure prob %v, want ≈ 0.5", p)
	}
}

func TestHardSequencePropagatesFailure(t *testing.T) {
	l := lang.ProperColoring(3)
	if _, _, err := HardSequence(perfectRunner{}, l, 2, 4, 1.0, nil, 1, 32); err == nil {
		t.Error("expected propagation of block search failure")
	}
}

func TestNuDisjointRejectsBadParams(t *testing.T) {
	cases := []struct{ r, p, beta float64 }{
		{0.5, 0.5, 0.1},  // p too small
		{0.5, 1.01, 0.1}, // p too large
		{0, 0.75, 0.1},   // r zero
		{0.5, 0.75, 0},   // beta zero
		{1.5, 0.75, 0.1}, // r above 1
	}
	for _, tc := range cases {
		if _, err := NuDisjoint(tc.r, tc.p, tc.beta); !errors.Is(err, ErrParam) {
			t.Errorf("NuDisjoint(%v,%v,%v): err = %v, want ErrParam", tc.r, tc.p, tc.beta, err)
		}
		if _, err := NuDisjointSearch(tc.r, tc.p, tc.beta); !errors.Is(err, ErrParam) {
			t.Errorf("NuDisjointSearch(%v,%v,%v): err = %v, want ErrParam", tc.r, tc.p, tc.beta, err)
		}
		if _, err := NuPrimeSearch(tc.r, tc.p, tc.beta, 3); !errors.Is(err, ErrParam) {
			t.Errorf("NuPrimeSearch(%v,%v,%v): err = %v, want ErrParam", tc.r, tc.p, tc.beta, err)
		}
		if _, err := NuPrimeCorrected(tc.r, tc.p, tc.beta, 3); !errors.Is(err, ErrParam) {
			t.Errorf("NuPrimeCorrected(%v,%v,%v): err = %v, want ErrParam", tc.r, tc.p, tc.beta, err)
		}
	}
	if _, err := NuPrimeSearch(0.5, 0.75, 0.2, 0); !errors.Is(err, ErrParam) {
		t.Error("µ = 0 accepted")
	}
	if _, err := NuPrimeCorrected(0.5, 0.75, 0.2, 0); !errors.Is(err, ErrParam) {
		t.Error("µ = 0 accepted by corrected formula")
	}
}

func TestBuildDisjointUnionEmpty(t *testing.T) {
	if _, err := BuildDisjointUnion(nil); err == nil {
		t.Error("empty union accepted")
	}
}

func TestScatteredAnchorsCustomPick(t *testing.T) {
	parts := []*lang.Instance{
		cycleInstance(t, 40, 1),
		cycleInstance(t, 40, 100),
	}
	picked := make([]int, 0, 2)
	anchors, err := ScatteredAnchors(parts, 3, 1, 1, func(block int, candidates []int) int {
		picked = append(picked, len(candidates))
		return len(candidates) - 1 // always the last candidate
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(anchors) != 2 || picked[0] < 3 {
		t.Errorf("custom pick not honored: %v %v", anchors, picked)
	}
}

func TestEstimateFailureRunnerError(t *testing.T) {
	l := lang.ProperColoring(3)
	// A runner that always errors counts as failure.
	hi, err := FindHardCycle(errorRunner{}, l, 4, 1, 1.0, nil, 1, 64)
	if err != nil {
		t.Fatal(err)
	}
	if hi.FailureProb.P() != 1 {
		t.Error("erroring runner should be a certain failure")
	}
}

type errorRunner struct{}

func (errorRunner) Name() string { return "error" }
func (errorRunner) Run(in *lang.Instance, draw *localrand.Draw) (lang.Column, error) {
	return lang.Column{}, errors.New("boom")
}

// TestEstimateFailurePathsAgree pins that the failure estimate replays
// exactly the single-shot per-trial draws — same trial indexing, same
// estimate, not merely the same limit — both for a runner with only Run
// (lanes fall back to single-shot runs) and for a construction algorithm
// with an engine fast path.
func TestEstimateFailurePathsAgree(t *testing.T) {
	l := lang.ProperColoring(3)
	space := localrand.NewTapeSpace(5)
	in, err := lang.NewInstance(graph.Cycle(12), lang.EmptyInputs(12), ids.Consecutive(12))
	if err != nil {
		t.Fatal(err)
	}
	const trials = 200
	for _, r := range []Runner{coinRunner{}, construct.RetryColoring{Q: 3, T: 1}} {
		want := mc.Estimate{Trials: trials}
		for trial := 0; trial < trials; trial++ {
			draw := space.Draw(uint64(trial))
			y, err := r.Run(in, &draw)
			if err != nil {
				t.Fatal(err)
			}
			if ok, err := l.Contains(&lang.Config{G: in.G, X: in.X, Y: y}); err != nil || !ok {
				want.Successes++
			}
		}
		if got := estimateFailure(r, l, in, space, trials); got != want {
			t.Errorf("%s: estimate %v, single-shot %v", r.Name(), got, want)
		}
	}
}
