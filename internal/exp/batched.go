package exp

import (
	"rlnc/internal/construct"
	"rlnc/internal/decide"
	"rlnc/internal/lang"
	"rlnc/internal/local"
	"rlnc/internal/localrand"
	"rlnc/internal/mc"
	"rlnc/internal/report"
)

// trialBatchWidth is the lane count the experiment trial loops hand to
// plan.NewShardedBatch: wide enough that view assembly, tape seeding,
// and round scheduling amortize across a worker's chunk, narrow enough
// that quick-mode trial counts still fill whole batches.
const trialBatchWidth = 32

// trialBatch is one Monte-Carlo worker's batched-trial scratch: the
// worker's batch plus reusable lane slices for draws (two independent
// sets, for experiments that condition a decider's randomness on a
// construction draw), per-lane decision instances over one reused slab,
// and the decide.Mem its decision loops evaluate into. The embedded
// batch comes from Plan.NewShardedBatch, so under Config.Shards > 1 its
// message runs go across the worker group's shards — byte-identical
// outputs, exercised across the cut — and its SetFault and Close are
// the fault-setter and closer hooks mc.Executor drives.
type trialBatch struct {
	*local.Batch
	draws  []localrand.Draw
	draws2 []localrand.Draw
	dis    []*lang.DecisionInstance
	diSlab []lang.DecisionInstance // what decisions points dis at
	mem    decide.Mem
}

// newTrialBatch returns the per-worker state constructor for trial loops
// over the given plan; Plan.NewShardedBatch decides whether each worker
// holds a sharded executor (shards > 1, built by the injected provider
// when one is set) and falls back to a plain batch when it cannot.
func newTrialBatch(plan *local.Plan, shards int, provide local.ShardProvider) func() *trialBatch {
	return func() *trialBatch {
		return &trialBatch{
			Batch:  plan.NewShardedBatch(trialBatchWidth, shards, provide),
			draws:  make([]localrand.Draw, trialBatchWidth),
			draws2: make([]localrand.Draw, trialBatchWidth),
			dis:    make([]*lang.DecisionInstance, trialBatchWidth),
			diSlab: make([]lang.DecisionInstance, trialBatchWidth),
		}
	}
}

// construct runs one construction lane vector on the worker's batch.
func (s *trialBatch) construct(algo construct.Algorithm, in *lang.Instance, draws []localrand.Draw) ([]lang.Column, error) {
	return construct.Exec{Bt: s.Batch}.Run(algo, in, draws)
}

// lanes fills the primary draw lanes for trials [lo, hi): lane i carries
// space.Draw(tag(lo+i)), matching the per-trial draw addressing of the
// scalar loops so batched trials replay identical randomness.
func (s *trialBatch) lanes(space *localrand.TapeSpace, lo, hi int, tag func(trial int) uint64) []localrand.Draw {
	k := hi - lo
	for i := 0; i < k; i++ {
		s.draws[i] = space.Draw(tag(lo + i))
	}
	return s.draws[:k]
}

// lanes2 is lanes for the secondary draw set.
func (s *trialBatch) lanes2(space *localrand.TapeSpace, lo, hi int, tag func(trial int) uint64) []localrand.Draw {
	k := hi - lo
	for i := 0; i < k; i++ {
		s.draws2[i] = space.Draw(tag(lo + i))
	}
	return s.draws2[:k]
}

// decisions wraps per-lane construction outputs as decision instances
// over the shared instance's identity and input columns. The instances
// live in the worker's slab, rewritten by the next call.
func (s *trialBatch) decisions(in *lang.Instance, ys []lang.Column) []*lang.DecisionInstance {
	for i, y := range ys {
		s.diSlab[i] = lang.DecisionInstance{G: in.G, X: in.X, Y: y, ID: in.ID}
		s.dis[i] = &s.diSlab[i]
	}
	return s.dis[:len(ys)]
}

// decide is the worker's decision handle: its batch assembles the views
// and its Mem backs the verdicts, so a decision loop evaluates without
// per-chunk verdict allocations. Returned verdicts follow decide.Mem's
// retention contract; the loops copy them out at once.
func (s *trialBatch) decide() decide.Exec {
	return decide.Exec{Bt: s.Batch, Mem: &s.mem}
}

// executor assembles the mc.Executor of a config-driven trial loop over
// one plan: cfg.Shards > 1 distributes the trial chunks across shard
// groups of that many shards each (built through cfg.NewSharded when a
// transport was injected), and cfg.Fault arms the fault plan on every
// worker's batch via its SetFault. Message constructions then run on
// sharded engines with byte-identical per-trial outputs.
func executor(trials int, plan *local.Plan, cfg report.Config) mc.Executor[*trialBatch] {
	x := mc.Executor[*trialBatch]{
		Trials:   trials,
		Batch:    trialBatchWidth,
		Fault:    cfg.Fault,
		NewState: newTrialBatch(plan, cfg.Shards, cfg.NewSharded),
		Progress: cfg.Progress,
	}
	if cfg.Shards > 1 {
		x.Shards = cfg.Shards
	}
	return x
}

// runTrials runs a Bernoulli sweep over one plan on the config's
// executor; see executor.
func runTrials(trials int, plan *local.Plan, cfg report.Config, f func(s *trialBatch, lo, hi int, out []bool)) mc.Estimate {
	return executor(trials, plan, cfg).Run(f)
}

// meanTrials runs a real-valued sweep over one plan on the config's
// executor; see executor.
func meanTrials(trials int, plan *local.Plan, cfg report.Config, f func(s *trialBatch, lo, hi int, out []float64)) (mean, stderr float64) {
	return executor(trials, plan, cfg).Mean(f)
}
