package local

import (
	"fmt"
	"sync/atomic"
	"testing"

	"rlnc/internal/graph"
	"rlnc/internal/localrand"
)

// vecMix is the lane-vectorized companion of wireMix: a wire algorithm
// implementing VecAlgorithm whose scalar and vector steppings must agree
// byte for byte. Each round a node folds every port's payload into its
// state (missing messages perturb it, so drop faults change the bytes),
// draws one tape word (so tape cursors advance identically on both
// paths), and broadcasts one word into two-word slots, so the vector
// path's strided word blocks are exercised; lanes finish at the round
// bound or early when the folded state hits a sentinel residue, so the
// lane vector diverges mid-run and the done-mask skipping of the vector
// path is exercised on every graph.
type vecMix struct{ rounds int }

func (a vecMix) Name() string                { return fmt.Sprintf("vec-mix(%d)", a.rounds) }
func (a vecMix) MsgWords(int) int            { return 2 }
func (a vecMix) NewWireProcess() WireProcess { return &vecMixProc{rounds: a.rounds} }

// vecMixProc is the scalar reference stepping of vecMix.
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

// TestVecMatchesScalar pins the tentpole contract of the vector path in
// the package that owns it: on every graph family, a batch stepping
// vecMix through its kernel must reproduce the ScalarOnly reference
// — the same algorithm stripped of the vector extension — byte for byte,
// outputs and Stats, at widths 1 (the scalar fallback), 2, and 5, on
// full and ragged lane vectors, under nil, zero, and lossy fault plans,
// on reused executors back to back.
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
						want, wantErr := sclBt.Run(in, ScalarOnly(algo), draws, opts)
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
				if width > 1 && vecBt.vecAlgo == nil {
					t.Fatalf("width %d: vector path not armed for a VecAlgorithm", width)
				}
				if sclBt.vecAlgo != nil {
					t.Fatalf("width %d: ScalarOnly failed to strip the vector path", width)
				}
			}
		})
	}
}

// TestVecSharded pins the vector path under the sharded orchestrator:
// a sharded run of a VecAlgorithm (whose shard batches step vectorized)
// must reproduce the unsharded ScalarOnly batch byte for byte — cut
// exchange, windowed rev tables, and per-shard collection included.
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
					want, err := sclBt.Run(in, ScalarOnly(algo), draws, RunOptions{})
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

// stepProbe counts which stepping path the passes of a run took: Step
// calls on scalar WireProcesses, StepVec calls of the kernel, and the
// StepVec calls that stepped fewer than two lanes.
type stepProbe struct {
	scalar, vec, vecOneLane atomic.Int64
}

// probeMix is vecMix with its steps counted into a stepProbe; both
// paths step exactly as vecMix does.
type probeMix struct {
	vecMix
	p *stepProbe
}

func (a probeMix) NewWireProcess() WireProcess {
	return &probeProc{vecMixProc: vecMixProc{rounds: a.rounds}, p: a.p}
}

func (a probeMix) StepVec(r *VecRange, round int) {
	a.p.vec.Add(1)
	if r.Lanes() < 2 {
		a.p.vecOneLane.Add(1)
	}
	a.vecMix.StepVec(r, round)
}

type probeProc struct {
	vecMixProc
	p *stepProbe
}

func (q *probeProc) Step(round int, in *Inbox, out *Outbox) bool {
	q.p.scalar.Add(1)
	return q.vecMixProc.Step(round, in, out)
}

// TestVecDispatchPerPass pins the stepping-path choice: it is made per
// pass by the pass's lane count, not per executor by its width. A
// one-lane pass — a width-1 batch, a one-lane run on a wide batch, the
// ragged one-lane tail of a lane vector the slab budget splits — steps the
// scalar WireProcess; a pass of two or more lanes runs the kernel.
// The sharded case uses an uneven partition whose shards' own slab
// budgets disagree, so the common block is the smaller shard's, and the
// tail's scalar steps must match a lone width-1 run of the tail lane.
func TestVecDispatchPerPass(t *testing.T) {
	space := localrand.NewTapeSpace(71)
	type want struct{ scalar, vec bool }
	check := func(t *testing.T, label string, p *stepProbe, w want) {
		t.Helper()
		if got := p.scalar.Load() > 0; got != w.scalar {
			t.Errorf("%s: scalar steps %d, want scalar path %v", label, p.scalar.Load(), w.scalar)
		}
		if got := p.vec.Load() > 0; got != w.vec {
			t.Errorf("%s: vec steps %d, want vec path %v", label, p.vec.Load(), w.vec)
		}
		if n := p.vecOneLane.Load(); n != 0 {
			t.Errorf("%s: %d StepVec calls on a one-lane pass", label, n)
		}
	}

	small := mustInstance(t, graph.Cycle(64))
	plan := MustPlan(small.G)
	draws := drawRange(space, 0, 5)
	var p stepProbe
	if _, err := runLane(plan.NewBatch(1), small, probeMix{vecMix{rounds: 4}, &p}, &draws[0], RunOptions{}); err != nil {
		t.Fatal(err)
	}
	check(t, "width-1", &p, want{scalar: true})
	for _, c := range []struct {
		k int
		w want
	}{{1, want{scalar: true}}, {2, want{vec: true}}, {5, want{vec: true}}} {
		var p stepProbe
		if _, err := plan.NewBatch(5).Run(small, probeMix{vecMix{rounds: 4}, &p}, draws[:c.k], RunOptions{}); err != nil {
			t.Fatal(err)
		}
		check(t, fmt.Sprintf("width 5 k %d", c.k), &p, c.w)
	}

	// C_6000 under 2-word messages: the 1 MB budget fits 2 lanes per
	// pass, so 5 lanes run as 2 + 2 + 1.
	big := mustInstance(t, graph.Cycle(6000))
	plan = MustPlan(big.G)
	algo := vecMix{rounds: 4}
	if lanes := plan.NewBatch(5).msgLanesFor(algo); lanes != 2 {
		t.Fatalf("fixture: block %d, want 2", lanes)
	}
	var tail stepProbe
	if _, err := runLane(plan.NewBatch(1), big, probeMix{algo, &tail}, &draws[4], RunOptions{}); err != nil {
		t.Fatal(err)
	}
	ref := make([]*Result, 5)
	for b := range ref {
		r, err := runLane(plan.NewBatch(1), big, algo, &draws[b], RunOptions{})
		if err != nil {
			t.Fatal(err)
		}
		ref[b] = r
	}
	sh, err := plan.NewShardedPartition(5, graph.Partition{Bounds: []int32{0, 5000, 6000}})
	if err != nil {
		t.Fatal(err)
	}
	blocks := make([]int, len(sh.shards))
	for i, s := range sh.shards {
		blocks[i] = s.bt.msgLanesFor(algo)
	}
	if blocks[0] != 2 || blocks[1] <= 2 {
		t.Fatalf("fixture: shard blocks %v, want the big shard at 2 and the small one above", blocks)
	}
	runs := []struct {
		name string
		run  func(WireAlgorithm, []localrand.Draw) ([]*Result, error)
	}{
		{"batch", func(a WireAlgorithm, d []localrand.Draw) ([]*Result, error) {
			return plan.NewBatch(5).Run(big, a, d, RunOptions{})
		}},
		{"sharded", func(a WireAlgorithm, d []localrand.Draw) ([]*Result, error) {
			return sh.Run(big, a, d, RunOptions{})
		}},
	}
	for _, r := range runs {
		for _, c := range []struct {
			k int
			w want
		}{{5, want{scalar: true, vec: true}}, {4, want{vec: true}}} {
			var p stepProbe
			got, err := r.run(probeMix{algo, &p}, draws[:c.k])
			if err != nil {
				t.Fatal(err)
			}
			label := fmt.Sprintf("%s C_6000 k %d", r.name, c.k)
			check(t, label, &p, c.w)
			if c.w.scalar && p.scalar.Load() != tail.scalar.Load() {
				t.Errorf("%s: %d scalar steps, want the tail lane's %d", label, p.scalar.Load(), tail.scalar.Load())
			}
			for b := range got {
				expectSameResult(t, fmt.Sprintf("%s lane %d", label, b), ref[b], got[b])
			}
		}
	}
	if sh.run.block != 2 {
		t.Errorf("sharded block %d, want the big shard's 2", sh.run.block)
	}
}
