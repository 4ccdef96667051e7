package exp

import (
	"fmt"
	"math"

	"rlnc/internal/construct"
	"rlnc/internal/glue"
	"rlnc/internal/lang"
	"rlnc/internal/local"
	"rlnc/internal/localrand"
	"rlnc/internal/relax"
	"rlnc/internal/report"
)

func init() { report.Register(e14{}) }

// e14 runs the Theorem 1 adversarial pipeline end to end against real
// constant-round randomized constructors: the target language is the
// f-resilient 3-coloring L_f with f = 1 (in BPLD by Corollary 1); the
// hard instances are consecutive-identity cycles glued per the proof; and
// the success probability of every fixed constant-round Monte-Carlo
// constructor decays geometrically with the number of glued blocks ν′ —
// exactly the boosting behaviour that forces the contradiction with a
// claimed constant success probability r.
type e14 struct{}

func (e14) ID() string { return "E14" }
func (e14) Title() string {
	return "Theorem 1 end-to-end: glued instances kill constant-round constructors"
}
func (e14) PaperRef() string {
	return "Theorem 1 + Corollary 1 (no O(1)-round Monte-Carlo algorithm for L_f)"
}

func (e e14) Run(cfg report.Config) (*report.Result, error) {
	res := &report.Result{}
	l := lang.ProperColoring(3)
	lf := &relax.FResilient{L: l, F: 1}
	nTrials := trials(cfg, 300, 60)
	space := localrand.NewTapeSpace(cfg.Seed ^ 0x14)
	blockLen := 48
	nus := pick(cfg, []int{1, 2, 4, 8, 16}, []int{1, 2, 4})

	table := res.NewTable("E14: Pr[C(glued) ∈ L_1] vs number of glued blocks ν'",
		"constructor", "ν'", "total nodes", "success prob", "per-block rate (fitted)")

	algos := []construct.Algorithm{
		construct.RandomColoring(3),
		construct.RetryColoring{Q: 3, T: 2},
		construct.RetryColoring{Q: 3, T: 4},
	}
	allDecay := true
	for ai, algo := range algos {
		var probs []float64
		for _, nu := range nus {
			// Build ν′ consecutive-identity blocks and glue them.
			var instance *lang.Instance
			if nu == 1 {
				instance = cycleInstance(blockLen, 1)
			} else {
				parts := make([]*lang.Instance, nu)
				start := int64(1)
				for i := range parts {
					parts[i] = cycleInstance(blockLen, start)
					start += int64(blockLen) + 3
				}
				anchors := make([]glue.Anchor, nu)
				for i, p := range parts {
					s := p.G.ScatteredSet(4, 1)
					anchors[i] = glue.Anchor{Node: s[0], Port: 0}
				}
				gl, err := glue.BuildGlued(parts, anchors)
				if err != nil {
					return nil, err
				}
				instance = gl.Instance
			}
			plan := local.MustPlan(instance.G)
			est := runTrials(nTrials, plan, cfg, func(s *trialBatch, lo, hi int, out []bool) {
				draws := s.lanes(space, lo, hi, func(t int) uint64 { return uint64(ai)<<48 | uint64(nu)<<32 | uint64(t) })
				ys, err := s.construct(algo, instance, draws)
				if err != nil {
					return
				}
				for i, y := range ys {
					ok, err := lf.Contains(&lang.Config{G: instance.G, X: instance.X, Y: y})
					out[i] = err == nil && ok
				}
			})
			probs = append(probs, est.P())
			rate := "-"
			if len(probs) > 1 && probs[len(probs)-2] > 0 && est.P() > 0 {
				r := est.P() / probs[len(probs)-2]
				rate = fmt.Sprintf("%.3f per doubling", r)
			}
			table.AddRow(algo.Name(), nu, instance.G.N(), fmt.Sprintf("%.4f", est.P()), rate)
		}
		// Success must not plateau above zero: the last sweep value must
		// be (near) zero or strictly below the first.
		last := probs[len(probs)-1]
		first := probs[0]
		if !(last < math.Max(0.05, first) || last == 0) {
			allDecay = false
		}
		if last > 0.2 {
			allDecay = false
		}
	}
	table.AddNote("L_1 tolerates one bad ball; each glued block contributes Θ(blockLen) expected violations, so success collapses")

	res.AddCheck("success probability decays with ν' for every constructor", allDecay,
		"no constant-round Monte-Carlo constructor sustains a constant success probability r")
	res.AddCheck("consistent with Corollary 1", allDecay,
		"randomization does not help for the f-resilient relaxation")
	return res, nil
}
