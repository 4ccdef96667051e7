package local

import (
	"fmt"
	"sync/atomic"
	"testing"

	"rlnc/internal/graph"
	"rlnc/internal/lang"
	"rlnc/internal/localrand"
)

// vecMix is the lane-vectorized companion of wireMix: a kernel-only
// wire algorithm whose stepping must agree byte for byte with its
// process twin vecMixRef. Each round a node folds every port's payload
// into its state (missing messages perturb it, so drop faults change the
// bytes), draws one tape word (so tape cursors advance identically on
// both), and broadcasts one word into two-word slots, so the kernel's
// strided word blocks are exercised; lanes finish at the round bound or
// early when the folded state hits a sentinel residue, so the lane
// vector diverges mid-run and the done-mask skipping of the kernel is
// exercised on every graph.
type vecMix struct{ rounds int }

func (a vecMix) Name() string     { return fmt.Sprintf("vec-mix(%d)", a.rounds) }
func (a vecMix) MsgWords(int) int { return 2 }

// vecMixRef is vecMix as a ProcessAlgorithm: the per-(node, lane)
// reference the kernel is compared against.
type vecMixRef struct{ rounds int }

func (a vecMixRef) Name() string                { return fmt.Sprintf("vec-mix-ref(%d)", a.rounds) }
func (a vecMixRef) MsgWords(int) int            { return 2 }
func (a vecMixRef) NewWireProcess() WireProcess { return &vecMixProc{rounds: a.rounds} }

// vecMixProc is the process of vecMixRef.
type vecMixProc struct {
	rounds int
	tape   *localrand.Tape
	state  uint64
}

func (p *vecMixProc) ResetProcess() { *p = vecMixProc{rounds: p.rounds} }

func (p *vecMixProc) Start(info NodeInfo, out *Outbox) {
	p.state = uint64(info.ID) * 0x9e3779b97f4a7c15
	p.tape = info.Tape
	if p.tape != nil {
		p.state ^= p.tape.Uint64()
	}
	out.Broadcast(p.state)
}

func (p *vecMixProc) Step(round int, in *Inbox, out *Outbox) bool {
	for port := 0; port < in.Degree(); port++ {
		words, ok := in.Payload(port)
		if !ok {
			p.state = p.state*3 + 1
			continue
		}
		for _, w := range words {
			p.state ^= w + uint64(len(words))
		}
	}
	if p.tape != nil {
		p.state ^= p.tape.Uint64()
	}
	if round >= p.rounds || (round >= 2 && p.state&7 == 0) {
		return true
	}
	out.Broadcast(p.state)
	return false
}

func (p *vecMixProc) Output() []byte { return encode64(int64(p.state)) }

// The vecMix kernel: vecMixProc across a node range of every lane, with
// the same fold, tape draw, halting rule, and send schedule over one
// state word per lane.

func (a vecMix) VecWords() int { return 1 }

func (a vecMix) StartVec(r *VecRange) {
	for v := r.Lo; v < r.Hi; v++ {
		st := r.State(v, 0)
		for b := range st {
			s := uint64(r.ID(v, b)) * 0x9e3779b97f4a7c15
			if t := r.Tape(v, b); t != nil {
				s ^= t.Uint64()
			}
			st[b] = s
		}
		r.BroadcastRow(v, st, r.Active(v))
	}
}

func (a vecMix) StepVec(r *VecRange, round int) {
	for v := r.Lo; v < r.Hi; v++ {
		act := r.Active(v)
		if act == 0 {
			continue
		}
		st := r.State(v, 0)
		for p := 0; p < r.Degree(v); p++ {
			lens, words, stride := r.Recv(v, p)
			for b, l := range lens {
				if act>>b&1 == 0 {
					continue
				}
				if l == 0 {
					st[b] = st[b]*3 + 1
					continue
				}
				n := int(l) - 1
				for _, w := range words[b*stride : b*stride+n] {
					st[b] ^= w + uint64(n)
				}
			}
		}
		var fin uint64
		for b := range st {
			if act>>b&1 == 0 {
				continue
			}
			if t := r.Tape(v, b); t != nil {
				st[b] ^= t.Uint64()
			}
			if round >= a.rounds || (round >= 2 && st[b]&7 == 0) {
				fin |= 1 << b
			}
		}
		r.Finish(v, fin)
		r.BroadcastRow(v, st, act&^fin)
	}
}

func (a vecMix) OutputVec(r *VecRange, v, b int) []byte { return encode64(int64(r.State(v, 0)[b])) }

// TestVecMatchesScalar pins the kernel contract in the package that
// owns it: on every graph family, a batch stepping vecMix through its
// kernel must reproduce the process reference vecMixRef byte for byte,
// outputs and Stats, at widths 1, 2, and 5, on full and ragged lane
// vectors, under nil, zero, and lossy fault plans, on reused executors
// back to back.
func TestVecMatchesScalar(t *testing.T) {
	space := localrand.NewTapeSpace(57)
	plans := []struct {
		name string
		fp   *FaultPlan
	}{
		{"none", nil},
		{"zero", &FaultPlan{Seed: 5}},
		{"faulty", &FaultPlan{Seed: 19, Drop: 0.15, Delay: 0.1, CrashP: 0.05, CrashFrom: 2}},
		{"crash-recover", &FaultPlan{Seed: 29, Drop: 0.1, CrashP: 0.1, CrashFrom: 1, CrashUntil: 3}},
	}
	for name, g := range testFamilies(t) {
		t.Run(name, func(t *testing.T) {
			in := mustInstance(t, g)
			plan := MustPlan(g)
			algo := vecMix{rounds: 6}
			lo := 0
			for _, width := range []int{1, 2, 5} {
				vecBt := plan.NewBatch(width)
				sclBt := plan.NewBatch(width)
				for _, k := range []int{1, width} {
					for _, pl := range plans {
						draws := drawRange(space, lo, k)
						lo += k
						opts := RunOptions{Fault: pl.fp}
						want, wantErr := sclBt.Run(in, vecMixRef(algo), draws, opts)
						got, gotErr := vecBt.Run(in, algo, draws, opts)
						label := fmt.Sprintf("width %d k %d plan %s", width, k, pl.name)
						if (wantErr == nil) != (gotErr == nil) {
							t.Fatalf("%s: vec error %v, scalar %v", label, gotErr, wantErr)
						}
						if wantErr != nil {
							continue
						}
						for b := 0; b < k; b++ {
							expectSameResult(t, fmt.Sprintf("%s lane %d", label, b), want[b], got[b])
						}
					}
				}
			}
		})
	}
}

// TestVecSharded pins the kernel under the sharded orchestrator: a
// sharded run of a VecAlgorithm must reproduce the unsharded process
// reference byte for byte — cut exchange, windowed rev tables, and
// per-shard collection included.
func TestVecSharded(t *testing.T) {
	space := localrand.NewTapeSpace(61)
	for name, g := range testFamilies(t) {
		t.Run(name, func(t *testing.T) {
			in := mustInstance(t, g)
			plan := MustPlan(g)
			algo := vecMix{rounds: 5}
			const width = 3
			sclBt := plan.NewBatch(width)
			for _, shards := range []int{2, 3} {
				sh, err := plan.NewSharded(width, shards)
				if err != nil {
					t.Fatal(err)
				}
				for rep, k := range []int{width, width - 1} {
					draws := drawRange(space, rep*width, k)
					want, err := sclBt.Run(in, vecMixRef(algo), draws, RunOptions{})
					if err != nil {
						t.Fatal(err)
					}
					got, err := sh.Run(in, algo, draws, RunOptions{})
					if err != nil {
						t.Fatal(err)
					}
					for b := 0; b < k; b++ {
						expectSameResult(t, fmt.Sprintf("shards %d rep %d lane %d", shards, rep, b), want[b], got[b])
					}
				}
			}
		})
	}
}

// kernelProbe is vecMix with its kernel calls counted: StepVec calls in
// total, and those stepping a one-lane range.
type kernelProbe struct {
	vecMix
	calls, oneLane *atomic.Int64
}

func (a kernelProbe) StepVec(r *VecRange, round int) {
	a.calls.Add(1)
	if r.Lanes() == 1 {
		a.oneLane.Add(1)
	}
	a.vecMix.StepVec(r, round)
}

// procProbe is vecMixRef with its process steps counted. It also has a
// StepVec method, counted apart, but no other kernel method, so it is a
// ProcessAlgorithm and nothing else: no pass may call it.
type procProbe struct {
	vecMixRef
	steps, vec *atomic.Int64
}

func (a procProbe) NewWireProcess() WireProcess {
	return &countedProc{vecMixProc: vecMixProc{rounds: a.rounds}, steps: a.steps}
}

func (a procProbe) StepVec(*VecRange, int) { a.vec.Add(1) }

type countedProc struct {
	vecMixProc
	steps *atomic.Int64
}

func (p *countedProc) Step(round int, in *Inbox, out *Outbox) bool {
	p.steps.Add(1)
	return p.vecMixProc.Step(round, in, out)
}

// bothMix steps both ways, neitherMix neither: each must be refused when
// a run starts.
type bothMix struct{ vecMix }

func (a bothMix) NewWireProcess() WireProcess { return &vecMixProc{rounds: a.rounds} }

type neitherMix struct{}

func (neitherMix) Name() string     { return "neither" }
func (neitherMix) MsgWords(int) int { return 1 }

func init() {
	RegisterRemoteAlgorithm("test-both-mix", func([]int64) (WireAlgorithm, error) { return bothMix{vecMix{rounds: 3}}, nil })
	RegisterRemoteAlgorithm("test-neither-mix", func([]int64) (WireAlgorithm, error) { return neitherMix{}, nil })
}

// TestVecDispatchPerPass pins the one stepping path per algorithm: a
// kernel algorithm steps every pass through its kernel — a width-1
// batch, a one-lane run on a wide batch, and the one-lane tail of the
// C_6000 vector the slab budget splits 2 + 2 + 1, on the batch and on an
// uneven sharding whose common block is the big shard's — with every
// lane equal to the process reference; a process algorithm steps only
// through its processes; and an algorithm stepping both ways or neither
// is refused at run start by the batch, the sharded executor and the
// shard-worker registry, before any pass runs.
func TestVecDispatchPerPass(t *testing.T) {
	space := localrand.NewTapeSpace(71)
	draws := drawRange(space, 0, 5)
	type exec func(WireAlgorithm, []localrand.Draw) ([]*Result, error)
	check := func(t *testing.T, label string, run exec, k int, tail bool, ref []*Result) {
		t.Helper()
		var calls, oneLane, steps, vec atomic.Int64
		got, err := run(kernelProbe{vecMix{rounds: 4}, &calls, &oneLane}, draws[:k])
		if err != nil {
			t.Fatal(err)
		}
		if calls.Load() == 0 {
			t.Errorf("%s: the kernel never stepped", label)
		}
		if got := oneLane.Load() > 0; got != tail {
			t.Errorf("%s: one-lane kernel passes %v, want %v", label, got, tail)
		}
		for b := range got {
			expectSameResult(t, fmt.Sprintf("%s kernel lane %d", label, b), ref[b], got[b])
		}
		got, err = run(procProbe{vecMixRef{rounds: 4}, &steps, &vec}, draws[:k])
		if err != nil {
			t.Fatal(err)
		}
		if steps.Load() == 0 || vec.Load() != 0 {
			t.Errorf("%s: process algorithm made %d process steps and %d StepVec calls", label, steps.Load(), vec.Load())
		}
		for b := range got {
			expectSameResult(t, fmt.Sprintf("%s process lane %d", label, b), ref[b], got[b])
		}
		for _, bad := range []WireAlgorithm{bothMix{vecMix{rounds: 4}}, neitherMix{}} {
			if _, err := run(bad, draws[:k]); err == nil {
				t.Errorf("%s: %s ran", label, bad.Name())
			}
		}
	}
	refs := func(in *lang.Instance) []*Result {
		ref := make([]*Result, len(draws))
		for b := range ref {
			r, err := runLane(MustPlan(in.G).NewBatch(1), in, vecMixRef{rounds: 4}, &draws[b], RunOptions{})
			if err != nil {
				t.Fatal(err)
			}
			ref[b] = r
		}
		return ref
	}

	small := mustInstance(t, graph.Cycle(64))
	plan := MustPlan(small.G)
	ref := refs(small)
	check(t, "width-1", func(a WireAlgorithm, d []localrand.Draw) ([]*Result, error) {
		return plan.NewBatch(1).Run(small, a, d, RunOptions{})
	}, 1, true, ref)
	for _, k := range []int{1, 2, 5} {
		check(t, fmt.Sprintf("width 5 k %d", k), func(a WireAlgorithm, d []localrand.Draw) ([]*Result, error) {
			return plan.NewBatch(5).Run(small, a, d, RunOptions{})
		}, k, k == 1, ref)
	}

	// C_6000 under 2-word messages: the 1 MB budget fits 2 lanes per
	// pass, so 5 lanes run as 2 + 2 + 1.
	big := mustInstance(t, graph.Cycle(6000))
	plan = MustPlan(big.G)
	if lanes := plan.NewBatch(5).msgLanesFor(vecMix{rounds: 4}); lanes != 2 {
		t.Fatalf("fixture: block %d, want 2", lanes)
	}
	sh, err := plan.NewShardedPartition(5, graph.Partition{Bounds: []int32{0, 5000, 6000}})
	if err != nil {
		t.Fatal(err)
	}
	blocks := make([]int, len(sh.shards))
	for i, s := range sh.shards {
		blocks[i] = s.bt.msgLanesFor(vecMix{rounds: 4})
	}
	if blocks[0] != 2 || blocks[1] <= 2 {
		t.Fatalf("fixture: shard blocks %v, want the big shard at 2 and the small one above", blocks)
	}
	ref = refs(big)
	check(t, "batch C_6000", func(a WireAlgorithm, d []localrand.Draw) ([]*Result, error) {
		return plan.NewBatch(5).Run(big, a, d, RunOptions{})
	}, 5, true, ref)
	check(t, "sharded C_6000", func(a WireAlgorithm, d []localrand.Draw) ([]*Result, error) {
		return sh.Run(big, a, d, RunOptions{})
	}, 5, true, ref)
	if sh.run.block != 2 {
		t.Errorf("sharded block %d, want the big shard's 2", sh.run.block)
	}

	// The shard-worker side: a job names its algorithm by registry key,
	// and the lookup a worker decodes a job with refuses both shapes.
	for _, key := range []string{"test-both-mix", "test-neither-mix"} {
		if _, err := remoteAlgoFor(key, nil); err == nil {
			t.Errorf("shard-worker registry built %s", key)
		}
	}
}
