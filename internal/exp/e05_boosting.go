package exp

import (
	"fmt"

	"rlnc/internal/decide"
	"rlnc/internal/glue"
	"rlnc/internal/lang"
	"rlnc/internal/local"
	"rlnc/internal/localrand"
	"rlnc/internal/report"
)

func init() { report.Register(e5{}) }

// e5 reproduces the disjoint-union boosting of Claim 3: a one-round LOCAL
// construction algorithm that fails independently with probability β per
// block, run on the union of ν blocks, is accepted by a decider with
// guarantee p with probability at most (1−βp)^ν; at ν from Eq. (3) the
// acceptance drops below r·p, forcing Pr[C(G) ∈ L] < r — the
// contradiction that kills hypothesis (⋆).
type e5 struct{}

func (e5) ID() string    { return "E5" }
func (e5) Title() string { return "Claim 3: error boosting on disjoint unions, ν from Eq. (3)" }
func (e5) PaperRef() string {
	return "Claim 3 and Eq. (3) (Pr[D accepts C(G)] ≤ (1−βp)^ν)"
}

func (e e5) Run(cfg report.Config) (*report.Result, error) {
	res := &report.Result{}
	nTrials := trials(cfg, 8000, 800)
	l := lang.ProperColoring(3)
	blockLen := 12

	params := pick(cfg,
		[]struct{ beta, p, r float64 }{{0.3, 0.75, 0.5}, {0.15, 0.9, 0.5}, {0.5, 0.6, 0.75}},
		[]struct{ beta, p, r float64 }{{0.3, 0.75, 0.5}})

	table := res.NewTable("E5: acceptance on the union of ν sabotaged blocks vs the Claim 3 bound",
		"β", "p", "ν", "empirical Pr[D accepts C(G)]", "bound (1−βp)^ν", "below r·p threshold")
	boundHolds := true
	formulaWorks := true
	for _, pr := range params {
		sab := PlantedSaboteur{Beta: pr.beta}
		d := &decide.LCLDecider{L: l, P: pr.p, Invert: true}
		nuFormula, err := glue.NuDisjoint(pr.r, pr.p, pr.beta)
		if err != nil {
			return nil, err
		}
		nuSearch, err := glue.NuDisjointSearch(pr.r, pr.p, pr.beta)
		if err != nil {
			return nil, err
		}
		cSpace := localrand.NewTapeSpace(cfg.Seed ^ 0xE5C)
		dSpace := localrand.NewTapeSpace(cfg.Seed ^ 0xE5D)
		nus := []int{1, 2, 4, nuFormula}
		if cfg.Quick {
			nus = []int{1, nuFormula}
		}
		for _, nu := range nus {
			parts := make([]*lang.Instance, nu)
			start := int64(1)
			for i := range parts {
				parts[i] = plantedBlock(blockLen, start)
				start += int64(blockLen)
			}
			union, err := glue.BuildDisjointUnion(parts)
			if err != nil {
				return nil, err
			}
			plan := local.MustPlan(union.Instance.G)
			est := runTrials(nTrials, plan, cfg, func(s *trialBatch, lo, hi int, out []bool) {
				drawsC := s.lanes(cSpace, lo, hi, func(t int) uint64 { return uint64(nu)<<32 | uint64(t) })
				ys, err := s.RunView(union.Instance, sab, drawsC)
				if err != nil {
					panic(err) // lane/plan mismatch: programmer error, not a trial outcome
				}
				drawsD := s.lanes2(dSpace, lo, hi, func(t int) uint64 { return uint64(nu)<<32 | uint64(t) })
				copy(out, s.decide().Accepts(s.decisions(union.Instance, ys), d, drawsD))
			})
			bound := glue.DisjointAcceptBound(pr.p, pr.beta, nu)
			lo, _ := est.Wilson(3.3)
			if lo > bound {
				boundHolds = false
			}
			crossed := est.P() < pr.r*pr.p // acceptance < r·p ⇒ Pr[C ∈ L] < r by Eq. (5)
			table.AddRow(pr.beta, pr.p, nu,
				fmt.Sprintf("%.4f", est.P()), fmt.Sprintf("%.4f", bound),
				fmt.Sprintf("%v (thr %.3f)", crossed, pr.r*pr.p))
			if nu == nuFormula && !crossed {
				formulaWorks = false
			}
		}
		table.AddNote("β=%g p=%g r=%g: Eq. (3) gives ν=%d; exact minimal ν=%d",
			pr.beta, pr.p, pr.r, nuFormula, nuSearch)
		if nuFormula < nuSearch {
			formulaWorks = false
		}
	}

	res.AddCheck("empirical acceptance ≤ (1−βp)^ν", boundHolds,
		"Wilson lower bound never exceeds the Claim 3 bound")
	res.AddCheck("Eq. (3) ν forces the contradiction", formulaWorks,
		"at ν from Eq. (3), acceptance < r·p, so Pr[C(G) ∈ L] < r")
	return res, nil
}
