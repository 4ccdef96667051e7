package exp

import (
	"fmt"
	"math"

	"rlnc/internal/construct"
	"rlnc/internal/lang"
	"rlnc/internal/local"
	"rlnc/internal/localrand"
	"rlnc/internal/mc"
	"rlnc/internal/report"
)

func init() { report.Register(e2{}) }

// e2 reproduces the §1.1 claim that randomization solves ε-slack
// relaxations in constant time: the zero-round uniform 3-coloring leaves
// a 5/9 fraction of ring nodes conflicted independent of n, and t retry
// rounds shrink the fraction geometrically, so the rounds needed for any
// fixed ε do not grow with n.
type e2 struct{}

func (e2) ID() string    { return "E2" }
func (e2) Title() string { return "ε-slack coloring: constant-round randomized algorithms suffice" }
func (e2) PaperRef() string {
	return "§1.1 (randomization helps for ε-slack relaxations)"
}

// meanBadFraction estimates the expected fraction of bad balls left by
// the retry algorithm with T rounds on C_n. Trials run in vectors of
// trialBatchWidth through one batched engine per worker — or, when
// shards > 1, through one sharded executor per worker group, with
// byte-identical per-trial outputs.
func meanBadFraction(n, T, nTrials int, seed uint64, cfg report.Config) (float64, float64) {
	l := lang.ProperColoring(3)
	in := cycleInstance(n, 1)
	space := localrand.NewTapeSpace(seed)
	plan := local.MustPlan(in.G)
	return meanTrials(nTrials, plan, cfg, func(s *trialBatch, lo, hi int, out []float64) {
		draws := s.lanes(space, lo, hi, func(t int) uint64 { return uint64(t) })
		ys, err := s.construct(construct.RetryColoring{Q: 3, T: T}, in, draws)
		if err != nil {
			// A construct error here is substrate failure (a dead worker, a
			// poisoned transport), not a measurement: fabricating "all bad"
			// rows would silently skew the statistic. Fail the chunk so the
			// scheduler retries it on a fresh executor.
			mc.Fail(err)
		}
		for i, y := range ys {
			bad := l.CountBadBalls(&lang.Config{G: in.G, X: in.X, Y: y})
			out[i] = float64(bad) / float64(n)
		}
	})
}

func (e e2) Run(cfg report.Config) (*report.Result, error) {
	res := &report.Result{}
	nTrials := trials(cfg, 60, 10)

	// (a) Zero rounds: bad fraction flat in n at 5/9.
	ta := res.NewTable("E2a: zero-round random 3-coloring of C_n — conflicted fraction vs n",
		"n", "mean bad fraction", "stderr", "analytic 5/9")
	flat := true
	for _, n := range pick(cfg, []int{600, 2400, 9600, 38400}, []int{300, 1200}) {
		mean, se := meanBadFraction(n, 0, nTrials, cfg.Seed^0xE2A, cfg)
		ta.AddRow(n, fmt.Sprintf("%.4f", mean), fmt.Sprintf("%.4f", se), fmt.Sprintf("%.4f", 5.0/9))
		if math.Abs(mean-5.0/9) > 0.03 {
			flat = false
		}
	}

	// (b) Retry rounds: geometric decay at fixed n.
	tb := res.NewTable("E2b: retry rounds vs conflicted fraction (C_2400)",
		"retry rounds T", "mean bad fraction", "stderr")
	nB := 2400
	if cfg.Quick {
		nB = 600
	}
	var fractions []float64
	for _, T := range pick(cfg, []int{0, 1, 2, 3, 4, 6, 8}, []int{0, 2, 4}) {
		mean, se := meanBadFraction(nB, T, nTrials, cfg.Seed^0xE2B, cfg)
		tb.AddRow(T, fmt.Sprintf("%.4f", mean), fmt.Sprintf("%.4f", se))
		fractions = append(fractions, mean)
	}
	decays := true
	for i := 1; i < len(fractions); i++ {
		if fractions[i] >= fractions[i-1] {
			decays = false
		}
	}

	// (c) Rounds to reach a target ε: independent of n.
	tc := res.NewTable("E2c: retry rounds needed to reach bad fraction ≤ ε — independent of n",
		"ε", "rounds at n=600", "rounds at n=4800")
	roundsFor := func(eps float64, n int) int {
		for T := 0; T <= 16; T++ {
			mean, _ := meanBadFraction(n, T, nTrials, cfg.Seed^0xE2C, cfg)
			if mean <= eps {
				return T
			}
		}
		return -1
	}
	sizeB := 4800
	if cfg.Quick {
		sizeB = 1200
	}
	independent := true
	for _, eps := range pick(cfg, []float64{0.5, 0.3, 0.15, 0.08}, []float64{0.3}) {
		small := roundsFor(eps, 600)
		big := roundsFor(eps, sizeB)
		tc.AddRow(fmt.Sprintf("%.2f", eps), small, big)
		if small < 0 || big < 0 || abs(small-big) > 1 {
			independent = false
		}
	}
	tc.AddNote("a gap of one round is sampling noise; the paper's claim is O(1) rounds for fixed ε")

	res.AddCheck("zero-round bad fraction ≈ 5/9, flat in n", flat, "within ±0.03 of 5/9 at every n")
	res.AddCheck("bad fraction decays with retry rounds", decays, "strictly decreasing over the sweep")
	res.AddCheck("rounds-to-ε independent of n", independent, "small-vs-large n round counts differ by ≤ 1")
	return res, nil
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}
