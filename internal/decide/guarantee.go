package decide

import (
	"rlnc/internal/lang"
	"rlnc/internal/local"
	"rlnc/internal/localrand"
	"rlnc/internal/mc"
)

// LabeledInstance pairs a decision instance with its ground-truth
// membership, for guarantee estimation.
type LabeledInstance struct {
	DI   *lang.DecisionInstance
	InL  bool
	Note string
}

// Labeled builds a LabeledInstance by evaluating the language.
func Labeled(di *lang.DecisionInstance, l lang.Language, note string) (*LabeledInstance, error) {
	in, err := l.Contains(di.Config())
	if err != nil {
		return nil, err
	}
	return &LabeledInstance{DI: di, InL: in, Note: note}, nil
}

// GuaranteeReport is the outcome of estimating a decider's guarantee on a
// corpus of labeled instances: the empirical success probability of each
// instance (Pr[all accept] when in L, Pr[some reject] when out of L) and
// the minimum over the corpus, which lower-bounds the decider's guarantee
// p in Eq. (1) on that corpus.
type GuaranteeReport struct {
	PerInstance []mc.Estimate
	Min         mc.Estimate
}

// estimatorBatch is the lane count the guarantee estimators hand to
// plan.NewBatch: wide enough to amortize view assembly across a chunk of
// trials, narrow enough that quick sweeps still fill a batch.
const estimatorBatch = 32

// guaranteeScratch is one worker's reusable trial-vector state for the
// estimators below: a batch over the instance's plan, a verdict store,
// and lanes for the (constant) instance column and the per-trial draws.
type guaranteeScratch struct {
	bt    *local.Batch
	mem   Mem
	dis   []*lang.DecisionInstance
	draws []localrand.Draw
}

// newGuaranteeScratch returns the per-worker state constructor for an
// estimator over one fixed instance: every lane of the batch decides di.
func newGuaranteeScratch(di *lang.DecisionInstance) func() *guaranteeScratch {
	plan := local.MustPlan(di.G)
	return func() *guaranteeScratch {
		s := &guaranteeScratch{
			bt:    plan.NewBatch(estimatorBatch),
			dis:   make([]*lang.DecisionInstance, estimatorBatch),
			draws: make([]localrand.Draw, estimatorBatch),
		}
		for b := range s.dis {
			s.dis[b] = di
		}
		return s
	}
}

// estimate runs trials chunks through batched workers: accept evaluates
// one chunk of lanes (lane b under s.draws[b]) and the per-trial outcome
// is want(accept). Per-trial draws are addressed by drawAt, so estimates
// match the scalar loops these estimators replaced at equal seeds.
func estimate(di *lang.DecisionInstance, trials int, drawAt func(trial int) localrand.Draw, accept func(s *guaranteeScratch, k int) []bool, want func(accept bool) bool) mc.Estimate {
	return mc.Executor[*guaranteeScratch]{
		Trials:   trials,
		Batch:    estimatorBatch,
		NewState: newGuaranteeScratch(di),
	}.Run(func(s *guaranteeScratch, lo, hi int, out []bool) {
		k := hi - lo
		for b := 0; b < k; b++ {
			s.draws[b] = drawAt(lo + b)
		}
		for b, acc := range accept(s, k) {
			out[b] = want(acc)
		}
	})
}

// acceptEstimate measures Pr[want(D accepts di)] over trials draws
// addressed by drawAt; the per-trial acceptance is identical to a
// one-lane Exec{}.Accepts of di under drawAt(trial).
func acceptEstimate(di *lang.DecisionInstance, d Decider, trials int, drawAt func(trial int) localrand.Draw, want func(accept bool) bool) mc.Estimate {
	return estimate(di, trials, drawAt, func(s *guaranteeScratch, k int) []bool {
		return Exec{Bt: s.bt, Mem: &s.mem}.Accepts(s.dis[:k], d, s.draws[:k])
	}, want)
}

// EstimateGuarantee measures the success probability of a randomized
// decider on each labeled instance over the given tape space, using
// `trials` draws per instance. Each instance's trials run through a
// batched engine (one plan per instance, one batch per worker), so the
// per-trial view assembly amortizes across the sweep.
func EstimateGuarantee(corpus []*LabeledInstance, d Decider, space *localrand.TapeSpace, trials int) GuaranteeReport {
	rep := GuaranteeReport{PerInstance: make([]mc.Estimate, len(corpus))}
	for i, li := range corpus {
		inL := li.InL
		est := acceptEstimate(li.DI, d, trials,
			func(trial int) localrand.Draw { return space.Draw(uint64(i)<<32 | uint64(trial)) },
			func(acc bool) bool { return acc == inL })
		rep.PerInstance[i] = est
		if i == 0 || est.P() < rep.Min.P() {
			rep.Min = est
		}
	}
	return rep
}

// AcceptProbability estimates Pr[D accepts (G,(x,y))] for one instance,
// on a batched engine.
func AcceptProbability(di *lang.DecisionInstance, d Decider, space *localrand.TapeSpace, trials int) mc.Estimate {
	return acceptEstimate(di, d, trials,
		func(trial int) localrand.Draw { return space.Draw(uint64(trial)) },
		func(acc bool) bool { return acc })
}

// AcceptFarFromProbability estimates Pr[D accepts far from u], the
// quantity bounded by Claims 4 and 5, on a batched engine; the distance
// column of u is read from the plan's cache once for the whole run.
func AcceptFarFromProbability(di *lang.DecisionInstance, d Decider, space *localrand.TapeSpace, trials, u, far int) mc.Estimate {
	return estimate(di, trials,
		func(trial int) localrand.Draw { return space.Draw(uint64(trial)) },
		func(s *guaranteeScratch, k int) []bool {
			return Exec{Bt: s.bt, Mem: &s.mem}.AcceptsFarFrom(s.dis[:k], d, s.draws[:k], u, far)
		},
		func(acc bool) bool { return acc })
}
