package exp

import (
	"fmt"

	"rlnc/internal/construct"
	"rlnc/internal/decide"
	"rlnc/internal/lang"
	"rlnc/internal/local"
	"rlnc/internal/localrand"
	"rlnc/internal/mc"
	"rlnc/internal/report"
)

func init() { report.Register(e17{}) }

// e17 probes the fault-injection axis: the paper's model (§2.1) assumes
// reliable synchronous links, and this experiment measures how its
// headline quantities degrade when that assumption is weakened through a
// seeded local.FaultPlan — the E2 bad-fraction curve under message-drop
// rates p, the E3 violation counts under crash fractions f, and the E4
// resilient-decider acceptance on faulty constructions. The zero-rate
// rows reproduce the fault-free baselines bit for bit (the plan is a
// pure overlay on the engine), and every faulty cell is deterministic in
// the plan's seed.
type e17 struct{}

func (e17) ID() string { return "E17" }
func (e17) Title() string {
	return "Fault injection: degradation of E2/E3/E4 under drop and crash faults"
}
func (e17) PaperRef() string {
	return "robustness extension of §2.1 (the model's reliable-link assumption, stressed)"
}

func (e e17) Run(cfg report.Config) (*report.Result, error) {
	res := &report.Result{}
	l := lang.ProperColoring(3)
	base := cfg
	base.Fault = nil // the baselines are fault-free regardless of CLI flags
	withFault := func(f local.FaultPlan) report.Config {
		fcfg := base
		f.Seed = cfg.Seed ^ 0x17F
		fcfg.Fault = &f
		return fcfg
	}
	nTrials := trials(cfg, 60, 10)

	// (a) E2 degradation: mean bad fraction of the 4-retry coloring vs
	// message-drop rate. Dropped messages hide conflicts, so as p → 1 the
	// curve climbs back to the zero-round 5/9; mild drop rates actually
	// dip below the baseline (half-seen conflicts resample one endpoint
	// instead of two, damping the collision churn of simultaneous
	// resampling), so the degradation check reads the heavy-drop end.
	nA := 2400
	if cfg.Quick {
		nA = 600
	}
	ta := res.NewTable(fmt.Sprintf("E17a: retry-3-coloring(T=4) on C_%d — bad fraction vs drop rate", nA),
		"drop rate p", "mean bad fraction", "stderr")
	baseMean, baseSE := meanBadFraction(nA, 4, nTrials, cfg.Seed^0x17A, base)
	var zeroMean, zeroSE, maxDropMean, maxDropSE float64
	drops := pick(cfg, []float64{0, 0.05, 0.2, 0.5, 0.9}, []float64{0, 0.2, 0.9})
	for _, p := range drops {
		mean, se := meanBadFraction(nA, 4, nTrials, cfg.Seed^0x17A, withFault(local.FaultPlan{Drop: p}))
		ta.AddRow(fmt.Sprintf("%.2f", p), fmt.Sprintf("%.4f", mean), fmt.Sprintf("%.4f", se))
		if p == 0 {
			zeroMean, zeroSE = mean, se
		}
		maxDropMean, maxDropSE = mean, se
	}
	ta.AddNote("p=0 is the committed E2 baseline, reproduced bit for bit through the armed-but-zero plan")
	ta.AddNote("the curve is U-shaped: light drops desynchronize resampling and help; heavy drops blind it and hurt")

	// Determinism: the worst cell, replayed, is bitwise identical.
	replayMean, replaySE := meanBadFraction(nA, 4, nTrials, cfg.Seed^0x17A,
		withFault(local.FaultPlan{Drop: drops[len(drops)-1]}))

	// (b) E3 degradation: mean violations vs crash fraction. Crashed
	// nodes freeze on their initial random color and never retry, so
	// violations grow roughly linearly in the crash fraction.
	nB := 1024
	if cfg.Quick {
		nB = 256
	}
	tb := res.NewTable(fmt.Sprintf("E17b: retry-3-coloring(T=4) on C_%d — violations vs crash fraction", nB),
		"crash fraction f", "mean violations", "violations/n")
	inB := cycleInstance(nB, 1)
	planB := local.MustPlan(inB.G)
	spaceB := localrand.NewTapeSpace(cfg.Seed ^ 0x17B)
	violationsAt := func(fcfg report.Config) float64 {
		mean, _ := meanTrials(nTrials, planB, fcfg, func(s *trialBatch, lo, hi int, out []float64) {
			draws := s.lanes(spaceB, lo, hi, func(t int) uint64 { return uint64(t) })
			ys, err := s.construct(construct.RetryColoring{Q: 3, T: 4}, inB, draws)
			if err != nil {
				// Substrate failure, not data: retry on a fresh executor
				// instead of recording every node as violated.
				mc.Fail(err)
			}
			for i, y := range ys {
				out[i] = float64(l.CountBadBalls(&lang.Config{G: inB.G, X: inB.X, Y: y}))
			}
		})
		return mean
	}
	baseViol := violationsAt(base)
	var maxCrashViol float64
	for _, f := range pick(cfg, []float64{0, 0.05, 0.1, 0.2}, []float64{0, 0.1}) {
		viol := violationsAt(withFault(local.FaultPlan{CrashP: f, CrashFrom: 1}))
		tb.AddRow(fmt.Sprintf("%.2f", f), fmt.Sprintf("%.1f", viol), fmt.Sprintf("%.3f", viol/float64(nB)))
		maxCrashViol = viol
	}

	// (c) E4 degradation: the f-resilient decider's acceptance of faulty
	// constructions. More residual conflicts mean more bad balls, and
	// acceptance p^|F| collapses geometrically.
	nC := 96
	fRes := 8
	d := decide.NewResilientDecider(l, fRes)
	inC := cycleInstance(nC, 1)
	planC := local.MustPlan(inC.G)
	spaceC := localrand.NewTapeSpace(cfg.Seed ^ 0x17C)
	spaceC2 := localrand.NewTapeSpace(cfg.Seed ^ 0x17D)
	accTrials := trials(cfg, 2000, 400)
	tc := res.NewTable(fmt.Sprintf("E17c: f-resilient decider (f=%d) acceptance of retry-3-coloring(T=4) on C_%d vs drop rate", fRes, nC),
		"drop rate p", "Pr[accept]")
	acceptanceAt := func(fcfg report.Config) float64 {
		est := runTrials(accTrials, planC, fcfg, func(s *trialBatch, lo, hi int, out []bool) {
			draws := s.lanes(spaceC, lo, hi, func(t int) uint64 { return uint64(t) })
			draws2 := s.lanes2(spaceC2, lo, hi, func(t int) uint64 { return uint64(t) })
			ys, err := s.construct(construct.RetryColoring{Q: 3, T: 4}, inC, draws)
			if err != nil {
				// Same contract as above: an all-reject chunk from a broken
				// substrate is not an acceptance measurement.
				mc.Fail(err)
			}
			dis := s.decisions(inC, ys)
			for i, acc := range s.decide().Accepts(dis, d, draws2[:len(dis)]) {
				out[i] = acc
			}
		})
		return est.P()
	}
	var accZero, accMax float64
	for _, p := range drops {
		acc := acceptanceAt(withFault(local.FaultPlan{Drop: p}))
		tc.AddRow(fmt.Sprintf("%.2f", p), fmt.Sprintf("%.4f", acc))
		if p == 0 {
			accZero = acc
		}
		accMax = acc
	}
	tc.AddNote("construction rounds run under the plan; decision views are message-free and stay exact")

	res.AddCheck("zero-rate plan reproduces the fault-free baseline", zeroMean == baseMean && zeroSE == baseSE,
		"armed FaultPlan with all-zero rates is bit-identical to no plan")
	res.AddCheck("faulty runs are deterministic in the plan seed", replayMean == maxDropMean && replaySE == maxDropSE,
		"replaying the worst drop cell reproduces it exactly")
	res.AddCheck("drop faults degrade the E2 curve", maxDropMean > baseMean,
		"bad fraction at p=%.2f exceeds the fault-free %.4f", drops[len(drops)-1], baseMean)
	res.AddCheck("crash faults degrade the E3 counts", maxCrashViol > baseViol,
		"violations under the largest crash fraction exceed the fault-free %.1f", baseViol)
	res.AddCheck("the E4 decider rejects what faults break", accZero > accMax,
		"acceptance falls from %.4f (p=0) to %.4f under the largest drop rate", accZero, accMax)
	return res, nil
}
