package local

import (
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"rlnc/internal/graph"
	"rlnc/internal/lang"
	"rlnc/internal/localrand"
)

// shardCounts returns the shard counts the local equivalence tests
// sweep: the degenerate single shard, small counts, and one shard per
// node.
func shardCounts(n int) []int {
	counts := []int{1}
	for _, c := range []int{2, 3, n} {
		if c > 1 && c <= n {
			counts = append(counts, c)
		}
	}
	return counts
}

// TestShardedMatchesBatchMessage pins the tentpole contract inside the
// package: every lane of a sharded run — full batches, ragged tails,
// back-to-back reuse — is byte-identical to the unsharded Batch at equal seeds, on every graph
// family and shard count.
func TestShardedMatchesBatchMessage(t *testing.T) {
	const width = 4
	space := localrand.NewTapeSpace(91)
	for name, g := range testFamilies(t) {
		t.Run(name, func(t *testing.T) {
			in := mustInstance(t, g)
			plan := MustPlan(g)
			bt := plan.NewBatch(width)
			for _, shards := range shardCounts(g.N()) {
				sh, err := plan.NewSharded(width, shards)
				if err != nil {
					t.Fatal(err)
				}
				lo := 0
				for rep, k := range []int{width, width - 1, width} {
					draws := drawRange(space, lo, k)
					want, err := bt.Run(in, wireMix{rounds: 4}, draws, RunOptions{})
					if err != nil {
						t.Fatal(err)
					}
					got, err := sh.Run(in, wireMix{rounds: 4}, draws, RunOptions{})
					if err != nil {
						t.Fatal(err)
					}
					for b := 0; b < k; b++ {
						expectSameResult(t, fmt.Sprintf("shards=%d rep=%d lane=%d", shards, rep, b), want[b], got[b])
					}
					lo += k
				}

				// Deterministic per-lane instances through RunInstances.
				ins := []*lang.Instance{in, in, in}
				gotDet, err := sh.RunInstances(ins, floodMin{t: 2}, nil, RunOptions{})
				if err != nil {
					t.Fatal(err)
				}
				wantDet, err := RunMessage(in, floodMin{t: 2}, nil, RunOptions{})
				if err != nil {
					t.Fatal(err)
				}
				for b := range gotDet {
					expectSameResult(t, fmt.Sprintf("shards=%d deterministic lane=%d", shards, b), wantDet, gotDet[b])
				}
			}
		})
	}
}

// TestShardedErrorPaths pins ErrNoHalt and StopAfter on sharded runs —
// identical errors and Stats to the unsharded batch — and reuse of the
// same Sharded after an aborted run.
func TestShardedErrorPaths(t *testing.T) {
	in := mustInstance(t, graph.Cycle(6))
	plan := MustPlan(in.G)
	space := localrand.NewTapeSpace(95)
	sh, err := plan.NewSharded(3, 2)
	if err != nil {
		t.Fatal(err)
	}
	bt := plan.NewBatch(3)

	_, wantErr := bt.Run(in, neverHalt{}, drawRange(space, 0, 3), RunOptions{MaxRounds: 20})
	_, gotErr := sh.Run(in, neverHalt{}, drawRange(space, 0, 3), RunOptions{MaxRounds: 20})
	if !errors.Is(gotErr, ErrNoHalt) {
		t.Fatalf("expected ErrNoHalt, got %v", gotErr)
	}
	if wantErr.Error() != gotErr.Error() {
		t.Fatalf("error text differs: sharded %q vs batch %q", gotErr, wantErr)
	}

	// StopAfter semantics, and reuse after the aborted run above.
	want, err := bt.Run(in, neverHalt{}, drawRange(space, 0, 2), RunOptions{StopAfter: 7})
	if err != nil {
		t.Fatal(err)
	}
	got, err := sh.Run(in, neverHalt{}, drawRange(space, 0, 2), RunOptions{StopAfter: 7})
	if err != nil {
		t.Fatal(err)
	}
	for b := range got {
		expectSameResult(t, fmt.Sprintf("stop-after lane %d", b), want[b], got[b])
	}

	draws := drawRange(space, 10, 2)
	want, err = bt.Run(in, wireMix{rounds: 3}, draws, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	got, err = sh.Run(in, wireMix{rounds: 3}, draws, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for b := range got {
		expectSameResult(t, fmt.Sprintf("after-abort lane %d", b), want[b], got[b])
	}
}

// TestShardedValidation pins the argument contract: it must match the
// batch's, error for error.
func TestShardedValidation(t *testing.T) {
	g := graph.Cycle(8)
	plan := MustPlan(g)
	in := mustInstance(t, g)
	foreign := mustInstance(t, graph.Cycle(8))
	space := localrand.NewTapeSpace(1)

	if _, err := plan.NewSharded(0, 2); err == nil {
		t.Error("width 0 accepted")
	}
	if _, err := plan.NewSharded(2, 0); err == nil {
		t.Error("0 shards accepted")
	}
	if _, err := plan.NewSharded(2, g.N()+1); err == nil {
		t.Error("more shards than nodes accepted")
	}
	if _, err := plan.NewShardedPartition(2, graph.Partition{Bounds: []int32{0, 3}}); err == nil {
		t.Error("truncated partition accepted")
	}

	sh, err := plan.NewSharded(2, 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sh.Run(in, floodMin{t: 1}, drawRange(space, 0, 3), RunOptions{}); err == nil {
		t.Error("sharded run accepted more lanes than its width")
	}
	if _, err := sh.Run(foreign, floodMin{t: 1}, drawRange(space, 0, 1), RunOptions{}); err == nil {
		t.Error("sharded run accepted a foreign instance")
	}
	if _, err := sh.RunInstances([]*lang.Instance{in, in}, floodMin{t: 1}, drawRange(space, 0, 1), RunOptions{}); err == nil {
		t.Error("sharded run accepted mismatched draw/lane counts")
	}
}

// TestShardedBlockSplitting runs a lane vector wider than one slab block
// through a sharded executor and pins per-lane equivalence — the blocks
// must stitch in lane order exactly like the unsharded batch's.
func TestShardedBlockSplitting(t *testing.T) {
	// 24000 slots: 2-word wire messages split 8 lanes even in each
	// shard's third of the slabs.
	g := graph.Cycle(12000)
	in := mustInstance(t, g)
	plan := MustPlan(g)
	bt := plan.NewBatch(8)
	algo := wireMix{rounds: 2}
	if lanes := bt.msgLanesFor(algo); lanes >= 8 {
		t.Fatalf("fixture too small: block %d does not split 8 lanes", lanes)
	}
	sh, err := plan.NewSharded(8, 3)
	if err != nil {
		t.Fatal(err)
	}
	if lanes := sh.layoutShards(algo); lanes >= 8 {
		t.Fatalf("fixture too small: shard block %d does not split 8 lanes", lanes)
	}
	space := localrand.NewTapeSpace(97)
	draws := drawRange(space, 0, 8)
	want, err := bt.Run(in, algo, draws, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	got, err := sh.Run(in, algo, draws, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for b := range draws {
		expectSameResult(t, fmt.Sprintf("blocked lane %d", b), want[b], got[b])
	}
}

// panicOnNode panics inside Start on one specific node — its shard dies
// before it ever sends, which is exactly the failure that used to leave
// the peer shard blocked in Recv forever when the installed links knew
// nothing of the abort latch.
type panicOnNode struct{ node int64 }

func (a panicOnNode) Name() string                { return "panic-on-node" }
func (a panicOnNode) MsgWords(int) int            { return 0 }
func (a panicOnNode) NewWireProcess() WireProcess { return &panicProc{node: a.node} }

type panicProc struct{ node int64 }

func (p *panicProc) Start(info NodeInfo, out *Outbox) {
	if info.ID == p.node {
		panic("node detonated")
	}
}

func (p *panicProc) Step(int, *Inbox, *Outbox) bool { return true }

func (p *panicProc) Output() []byte { return nil }

// dropSends swallows every Send, so the peer's Recv sees silence.
type dropSends struct{ inner ShardLink }

func (l dropSends) Send(round int, b CutBlock) error { return nil }
func (l dropSends) Recv(round int) (CutBlock, error) { return l.inner.Recv(round) }

// TestShardedLinkDeadline pins the deadline/cancel path of the built-in
// links: a peer that never sends cannot block the run forever. With a
// custom factory that wires neither the abort latch nor a working peer,
// the configured timeout converts the would-be deadlock into a clean
// ErrLinkTimeout abort.
func TestShardedLinkDeadline(t *testing.T) {
	g := graph.Cycle(10)
	in := mustInstance(t, g)
	plan := MustPlan(g)
	sh, err := plan.NewSharded(2, 2)
	if err != nil {
		t.Fatal(err)
	}
	// Sends are dropped on the floor, so every Recv faces a permanently
	// silent peer with no abort latch wired — only the deadline can end
	// the wait.
	sh.SetLinkFactory(func(from, to int, cut []int32) ShardLink {
		return dropSends{&chanLink{ch: make(chan CutBlock, 1), timeout: 50 * time.Millisecond}}
	})
	done := make(chan error, 1)
	go func() {
		_, err := sh.Run(in, wireMix{rounds: 3}, drawRange(localrand.NewTapeSpace(7), 0, 2), RunOptions{})
		done <- err
	}()
	select {
	case err := <-done:
		if !errors.Is(err, ErrLinkTimeout) {
			t.Fatalf("silent peer: err = %v, want ErrLinkTimeout", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("sharded run hung on a silent peer despite the link deadline")
	}

	// The same Sharded recovers with default links afterwards.
	sh.SetLinkFactory(nil)
	draws := drawRange(localrand.NewTapeSpace(7), 4, 2)
	want, err := plan.NewBatch(2).Run(in, wireMix{rounds: 3}, draws, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	got, err := sh.Run(in, wireMix{rounds: 3}, draws, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for b := range draws {
		expectSameResult(t, fmt.Sprintf("after-deadline lane %d", b), want[b], got[b])
	}
}

// TestShardedPanicWithUnwiredLinks pins the regression the deadline
// exists for: shard 1 panics before sending round 2, the custom links
// know nothing of the abort latch, and shard 0 sits in Recv. The
// deadline unblocks shard 0, the orchestrator gathers both reports, and
// the panic is re-raised — previously this hung forever.
func TestShardedPanicWithUnwiredLinks(t *testing.T) {
	g := graph.Cycle(10)
	in := mustInstance(t, g)
	plan := MustPlan(g)
	sh, err := plan.NewSharded(1, 2)
	if err != nil {
		t.Fatal(err)
	}
	links := make(map[[2]int]ShardLink)
	sh.SetLinkFactory(func(from, to int, cut []int32) ShardLink {
		key := [2]int{from, to}
		if l, ok := links[key]; ok {
			return l
		}
		l := &chanLink{ch: make(chan CutBlock, 1), timeout: 50 * time.Millisecond}
		links[key] = l
		return l
	})
	done := make(chan any, 1)
	go func() {
		defer func() { done <- recover() }()
		sh.RunInstances([]*lang.Instance{in}, panicOnNode{node: in.ID[7]}, nil, RunOptions{})
		done <- nil
	}()
	select {
	case r := <-done:
		if r == nil {
			t.Fatal("expected the node panic to re-raise")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("sharded run hung on a panicking peer despite the link deadline")
	}
}

// countingLink wraps the in-process link to prove the transport seam is
// real: a custom LinkFactory sees every round's blocks. The counter is
// atomic — links are driven from per-shard goroutines.
type countingLink struct {
	inner ShardLink
	sends *atomic.Int64
}

func (l *countingLink) Send(round int, b CutBlock) error {
	l.sends.Add(1)
	return l.inner.Send(round, b)
}
func (l *countingLink) Recv(round int) (CutBlock, error) { return l.inner.Recv(round) }

// TestShardedLinkFactory pins the ShardLink seam: a custom factory
// carries the whole exchange (results stay byte-identical) and observes
// one Send per link per round.
func TestShardedLinkFactory(t *testing.T) {
	g := graph.Cycle(10)
	in := mustInstance(t, g)
	plan := MustPlan(g)
	sh, err := plan.NewSharded(2, 2)
	if err != nil {
		t.Fatal(err)
	}
	var sends atomic.Int64
	sh.SetLinkFactory(func(from, to int, cut []int32) ShardLink {
		if len(cut) == 0 {
			t.Errorf("link %d->%d built with an empty cut", from, to)
		}
		return &countingLink{inner: &chanLink{ch: make(chan CutBlock, 1)}, sends: &sends}
	})
	draws := drawRange(localrand.NewTapeSpace(99), 0, 2)
	want, err := plan.NewBatch(2).Run(in, wireMix{rounds: 3}, draws, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	got, err := sh.Run(in, wireMix{rounds: 3}, draws, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for b := range draws {
		expectSameResult(t, fmt.Sprintf("custom link lane %d", b), want[b], got[b])
	}
	// Two directed cut pairs on a bisected cycle, one send each per round.
	rounds := want[0].Stats.Rounds
	if wantSends := int64(2 * rounds); sends.Load() != wantSends {
		t.Errorf("custom links saw %d sends, want %d (2 links × %d rounds)", sends.Load(), wantSends, rounds)
	}
}
