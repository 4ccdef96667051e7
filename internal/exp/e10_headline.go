package exp

import (
	"fmt"

	"rlnc/internal/construct"
	"rlnc/internal/lang"
	"rlnc/internal/local"
	"rlnc/internal/localrand"
	"rlnc/internal/mc"
	"rlnc/internal/relax"
	"rlnc/internal/report"
)

func init() { report.Register(e10{}) }

// e10 is the headline table of §1.2: randomization helps for ε-slack
// relaxations but not for f-resilient ones. For each algorithm and ring
// size, the expected violation count is compared against the ε-slack
// budget ⌊εn⌋ (grows with n — constant-round randomized algorithms meet
// it) and the f-resilient budget f (constant — nothing constant-round
// meets it; Cole–Vishkin does, at Θ(log* n) rounds).
type e10 struct{}

func (e10) ID() string    { return "E10" }
func (e10) Title() string { return "Headline: randomization helps ε-slack, not f-resilience" }
func (e10) PaperRef() string {
	return "§1.2 headline claim (ε-slack vs f-resilient relaxations of 3-coloring)"
}

func (e e10) Run(cfg report.Config) (*report.Result, error) {
	res := &report.Result{}
	l := lang.ProperColoring(3)
	eps := 0.62 // above the 5/9 zero-round plateau: the trivial algorithm qualifies
	f := 8
	slack := &relax.EpsSlack{L: l, Eps: eps}
	nTrials := trials(cfg, 30, 6)
	space := localrand.NewTapeSpace(cfg.Seed ^ 0x10)
	sizes := pick(cfg, []int{256, 1024, 4096}, []int{256, 1024})

	table := res.NewTable(
		fmt.Sprintf("E10: violations vs budgets (ε=%.2f slack, f=%d resilient) on consecutive-id C_n", eps, f),
		"algorithm", "type", "rounds", "n", "mean violations", "slack budget ⌊εn⌋", "meets slack", "meets f")

	meanOf := func(runner construct.Algorithm, tag uint64) func(n int) float64 {
		return func(n int) float64 {
			in := cycleInstance(n, 1)
			plan := local.MustPlan(in.G)
			// cfg.Shards > 1 runs the message constructions across shard
			// groups; every trial's outputs are byte-identical to the
			// unsharded run (the table too, when the worker chunking
			// coincides — see report.Config.Shards).
			m, _ := meanTrials(nTrials, plan, cfg, func(s *trialBatch, lo, hi int, out []float64) {
				draws := s.lanes(space, lo, hi, func(t int) uint64 { return tag<<32 | uint64(t) })
				ys, err := s.construct(runner, in, draws)
				if err != nil {
					// Substrate failure, not data: retry on a fresh executor
					// instead of recording every node as violated.
					mc.Fail(err)
				}
				for i, y := range ys {
					out[i] = float64(l.CountBadBalls(&lang.Config{G: in.G, X: in.X, Y: y}))
				}
			})
			return m
		}
	}
	rows := []struct {
		name, kind, rounds string
		mean               func(n int) float64
	}{
		{"random-3-coloring", "randomized", "0", meanOf(construct.RandomColoring(3), 1)},
		{"retry-3-coloring(T=4)", "randomized", "5", meanOf(construct.RetryColoring{Q: 3, T: 4}, 2)},
		{"oi-rank-color", "det. order-inv", "1", func(n int) float64 {
			in := cycleInstance(n, 1)
			y := local.RunView(in, construct.RankColor{Q: 3, T: 1}, nil)
			return float64(l.CountBadBalls(&lang.Config{G: in.G, X: in.X, Y: y}))
		}},
		{"cole-vishkin", "det. log* n", "log*", func(n int) float64 {
			in := cycleInstance(n, 1)
			r, err := local.RunMessage(in, construct.ColeVishkin{MaxIDBits: 63}, nil, local.RunOptions{})
			if err != nil {
				return float64(n)
			}
			return float64(l.CountBadBalls(&lang.Config{G: in.G, X: in.X, Y: r.Y}))
		}},
	}

	randomMeetsSlack := true
	constantRoundMeetsF := false
	cvMeetsF := true
	detMeetsSlack := false
	for _, row := range rows {
		for _, n := range sizes {
			mean := row.mean(n)
			budget := slack.Budget(n)
			meetsSlack := mean <= float64(budget)
			meetsF := mean <= float64(f)
			table.AddRow(row.name, row.kind, row.rounds, n,
				fmt.Sprintf("%.1f", mean), budget, meetsSlack, meetsF)
			switch row.name {
			case "random-3-coloring", "retry-3-coloring(T=4)":
				if !meetsSlack {
					randomMeetsSlack = false
				}
				if meetsF && n >= 1024 {
					constantRoundMeetsF = true
				}
			case "oi-rank-color":
				if meetsSlack {
					detMeetsSlack = true
				}
				if meetsF && n >= 1024 {
					constantRoundMeetsF = true
				}
			case "cole-vishkin":
				if !meetsF {
					cvMeetsF = false
				}
			}
		}
	}
	table.AddNote("budgets: ε-slack grows linearly with n; f-resilient stays constant — that asymmetry is the whole story")

	res.AddCheck("constant-round randomized meets ε-slack at every n", randomMeetsSlack,
		"mean violations within ⌊εn⌋ for the 0- and 5-round algorithms")
	res.AddCheck("no constant-round algorithm meets f-resilience", !constantRoundMeetsF,
		"violations exceed f=8 for n ≥ 1024 across the constant-round suite")
	res.AddCheck("order-invariant deterministic fails even ε-slack", !detMeetsSlack,
		"mono-coloring violates ~n ≥ εn")
	res.AddCheck("Cole–Vishkin meets f (at log* rounds)", cvMeetsF, "zero violations")
	return res, nil
}
