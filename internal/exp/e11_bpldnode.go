package exp

import (
	"fmt"

	"rlnc/internal/construct"
	"rlnc/internal/decide"
	"rlnc/internal/lang"
	"rlnc/internal/local"
	"rlnc/internal/localrand"
	"rlnc/internal/relax"
	"rlnc/internal/report"
)

func init() { report.Register(e11{}) }

// e11 reproduces the §5 boundary observation: the ε-slack relaxation of
// (Δ+1)-coloring lies in BPLD#node (deciding it needs the node count n),
// it is randomly constructible in zero rounds, yet it is not
// deterministically constructible in O(1) rounds — so Theorem 1 cannot
// extend to BPLD#node.
type e11 struct{}

func (e11) ID() string    { return "E11" }
func (e11) Title() string { return "BPLD#node boundary: ε-slack coloring breaks the derandomization" }
func (e11) PaperRef() string {
	return "§5 (Theorem 1 does not extend to BPLD#node)"
}

func (e e11) Run(cfg report.Config) (*report.Result, error) {
	res := &report.Result{}
	l := lang.ProperColoring(3)
	eps := 0.7
	slackLang := &relax.EpsSlack{L: l, Eps: eps}
	nTrials := trials(cfg, 20000, 2000)
	space := localrand.NewTapeSpace(cfg.Seed ^ 0x11)

	// (a) The n-aware decider has guarantee > 1/2 on both sides.
	ta := res.NewTable("E11a: n-aware ε-slack decider (ε=0.7) on C_n",
		"n", "f=⌊εn⌋", "instance", "in language", "success prob", "> 1/2")
	deciderOK := true
	sizes := pick(cfg, []int{36, 72}, []int{36})
	for _, n := range sizes {
		d := decide.NewSlackNodeAwareDecider(l, eps, n)
		cases := []struct {
			name  string
			pairs int
		}{
			{"proper", 0},
			{"light damage", n / 24},  // 2·(n/24) bad balls << εn
			{"monochrome-ish", n / 6}, // 2·(n/6) = n/3 bad balls < εn... keep in language
		}
		// Out-of-language instance: all one color → n bad balls > εn.
		for _, tc := range cases {
			di := coloredInstance(cycleInstance(n, 1).G, plantedRingColoring(n, tc.pairs))
			inL, err := slackLang.Contains(di.Config())
			if err != nil {
				return nil, err
			}
			plan := local.MustPlan(di.G)
			est := runTrials(nTrials, plan, cfg, func(s *trialBatch, lo, hi int, out []bool) {
				draws := s.lanes(space, lo, hi, func(t int) uint64 { return uint64(n)<<32 | uint64(t) })
				for i := range draws {
					s.dis[i] = di
				}
				for i, acc := range s.decide().Accepts(s.dis[:len(draws)], d, draws) {
					out[i] = acc == inL
				}
			})
			ta.AddRow(n, d.F, tc.name, inL, fmt.Sprintf("%.4f", est.P()), est.P() > 0.5)
			if est.P() <= 0.5 {
				deciderOK = false
			}
		}
		mono := make([]int, n)
		diMono := coloredInstance(cycleInstance(n, 1).G, mono)
		inL, _ := slackLang.Contains(diMono.Config())
		planMono := local.MustPlan(diMono.G)
		est := runTrials(nTrials, planMono, cfg, func(s *trialBatch, lo, hi int, out []bool) {
			draws := s.lanes(space, lo, hi, func(t int) uint64 { return uint64(n)<<33 | uint64(t) })
			for i := range draws {
				s.dis[i] = diMono
			}
			for i, acc := range s.decide().Accepts(s.dis[:len(draws)], d, draws) {
				out[i] = acc == inL
			}
		})
		ta.AddRow(n, d.F, "monochromatic", inL, fmt.Sprintf("%.4f", est.P()), est.P() > 0.5)
		if est.P() <= 0.5 {
			deciderOK = false
		}
	}
	ta.AddNote("the decider's acceptance probability 2^{-|F|/(εn)}-ish needs n — that dependence is what BPLD forbids")

	// (b) Zero-round randomized construction succeeds with probability → 1.
	tb := res.NewTable("E11b: zero-round random coloring constructs the ε-slack language",
		"n", "Pr[output ∈ ε-slack]", "mean violations / εn budget")
	constructionOK := true
	for _, n := range pick(cfg, []int{300, 1200, 4800}, []int{300, 1200}) {
		in := cycleInstance(n, 1)
		plan := local.MustPlan(in.G)
		est := runTrials(trials(cfg, 400, 60), plan, cfg, func(s *trialBatch, lo, hi int, out []bool) {
			draws := s.lanes(space, lo, hi, func(t int) uint64 { return uint64(n)<<34 | uint64(t) })
			ys, err := s.construct(construct.RandomColoring(3), in, draws)
			if err != nil {
				return
			}
			for i, y := range ys {
				ok, err := slackLang.Contains(&lang.Config{G: in.G, X: in.X, Y: y})
				out[i] = err == nil && ok
			}
		})
		tb.AddRow(n, fmt.Sprintf("%.4f", est.P()),
			fmt.Sprintf("≈ %.2fn / %.2fn", 5.0/9, eps))
		if est.P() < 0.95 {
			constructionOK = false
		}
	}

	// (c) Deterministic order-invariant algorithms fail the language.
	tc := res.NewTable("E11c: deterministic order-invariant algorithms on consecutive-id C_n",
		"algorithm", "n", "violations", "budget ⌊εn⌋", "in language")
	detFails := true
	for _, algo := range construct.OrderInvariantCorpus(3, 1)[:2] {
		for _, n := range pick(cfg, []int{300, 1200}, []int{300}) {
			in := cycleInstance(n, 1)
			y := local.RunView(in, algo, nil)
			bad := l.CountBadBalls(&lang.Config{G: in.G, X: in.X, Y: y})
			inL := bad <= slackLang.Budget(n)
			tc.AddRow(algo.Name(), n, bad, slackLang.Budget(n), inL)
			if inL {
				detFails = false
			}
		}
	}

	res.AddCheck("ε-slack ∈ BPLD#node", deciderOK, "n-aware decider succeeds with probability > 1/2 on both sides")
	res.AddCheck("randomized zero-round construction succeeds", constructionOK,
		"success probability ≥ 0.95 at every n (5/9 < ε)")
	res.AddCheck("deterministic order-invariant construction fails", detFails,
		"violations ≈ n exceed the εn budget on consecutive-identity cycles")
	res.AddCheck("Theorem 1 cannot extend to BPLD#node", deciderOK && constructionOK && detFails,
		"the language separates randomized from deterministic O(1)-round construction")
	return res, nil
}
