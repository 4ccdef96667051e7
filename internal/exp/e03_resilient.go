package exp

import (
	"fmt"

	"rlnc/internal/construct"
	"rlnc/internal/lang"
	"rlnc/internal/local"
	"rlnc/internal/localrand"
	"rlnc/internal/report"
)

func init() { report.Register(e3{}) }

// e3 reproduces the Section 4 impossibility engine: on consecutive-
// identity cycles every order-invariant t-round algorithm mono-colors at
// least n−(2t−1) interior nodes, so its bad-ball count grows linearly in
// n and exceeds every fixed f. Constant-round randomized algorithms fare
// no better (linear expected violations); only the Θ(log* n)-round
// Cole–Vishkin algorithm reaches zero violations — which is the entire
// point of Corollary 1.
type e3 struct{}

func (e3) ID() string    { return "E3" }
func (e3) Title() string { return "f-resilience impossibility on consecutive-identity cycles" }
func (e3) PaperRef() string {
	return "§4 (order-invariant algorithms mono-color n−(2t−1) nodes; Corollary 1 application)"
}

func (e e3) Run(cfg report.Config) (*report.Result, error) {
	res := &report.Result{}
	l := lang.ProperColoring(3)
	sizes := pick(cfg, []int{64, 256, 1024, 4096}, []int{64, 256})
	nTrials := trials(cfg, 40, 8)
	space := localrand.NewTapeSpace(cfg.Seed ^ 0xE3)

	table := res.NewTable("E3: violations (bad balls) on consecutive-identity C_n",
		"algorithm", "rounds", "n", "violations", "violations/n", "meets f=8?")

	// Order-invariant corpus: deterministic, measured exactly.
	linearOK := true
	corpus := construct.OrderInvariantCorpus(3, 2)
	if cfg.Quick {
		corpus = corpus[:2]
	}
	for _, algo := range corpus {
		var perN []float64
		for _, n := range sizes {
			in := cycleInstance(n, 1)
			y := local.RunView(in, algo, nil)
			bad := l.CountBadBalls(&lang.Config{G: in.G, X: in.X, Y: y})
			table.AddRow(algo.Name(), algo.Radius(), n, bad,
				fmt.Sprintf("%.3f", float64(bad)/float64(n)), bad <= 8)
			perN = append(perN, float64(bad)/float64(n))
		}
		// Linear growth: the per-n ratio must stay bounded away from 0.
		for _, r := range perN {
			if r < 0.5 {
				linearOK = false
			}
		}
	}

	// Randomized constant-round algorithms: expected violations, measured
	// in batched trial vectors.
	randLinear := true
	for _, T := range pick(cfg, []int{0, 4}, []int{0}) {
		for _, n := range sizes {
			in := cycleInstance(n, 1)
			plan := local.MustPlan(in.G)
			mean, _ := meanTrials(nTrials, plan, cfg, func(s *trialBatch, lo, hi int, out []float64) {
				draws := s.lanes(space, lo, hi, func(t int) uint64 { return uint64(T)<<32 | uint64(t) })
				ys, err := s.construct(construct.RetryColoring{Q: 3, T: T}, in, draws)
				if err != nil {
					for i := range out {
						out[i] = float64(n)
					}
					return
				}
				for i, y := range ys {
					out[i] = float64(l.CountBadBalls(&lang.Config{G: in.G, X: in.X, Y: y}))
				}
			})
			table.AddRow(fmt.Sprintf("retry-3-coloring(T=%d)", T), T+1, n,
				fmt.Sprintf("%.1f", mean), fmt.Sprintf("%.3f", mean/float64(n)), mean <= 8)
			if n >= 1024 && mean <= 8 {
				randLinear = false
			}
		}
	}

	// Cole–Vishkin: zero violations, but Θ(log* n) rounds — not O(1).
	cvOK := true
	for _, n := range sizes {
		in := cycleInstance(n, 1)
		algo := construct.ColeVishkin{MaxIDBits: 63}
		r, err := local.RunMessage(in, algo, nil, local.RunOptions{})
		if err != nil {
			return nil, err
		}
		bad := l.CountBadBalls(&lang.Config{G: in.G, X: in.X, Y: r.Y})
		table.AddRow(algo.Name(), r.Stats.Rounds, n, bad, "0.000", bad <= 8)
		if bad != 0 {
			cvOK = false
		}
	}
	table.AddNote("f-resilient 3-coloring with f=8 is met by no constant-round algorithm once n ≥ 1024")

	res.AddCheck("order-invariant algorithms violate linearly", linearOK,
		"violations/n ≥ 0.5 for every corpus member at every n")
	res.AddCheck("constant-round randomized algorithms exceed f", randLinear,
		"expected violations > 8 at n ≥ 1024 for 0- and 4-retry coloring")
	res.AddCheck("Cole–Vishkin meets f with zero violations (non-constant rounds)", cvOK,
		"0 bad balls at every n")
	return res, nil
}
