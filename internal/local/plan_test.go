package local

import (
	"bytes"
	"fmt"
	"testing"

	"rlnc/internal/graph"
	"rlnc/internal/localrand"
)

// tapeXOR is a randomized fixed-round message algorithm: every node draws
// one word from its private tape, floods it, and folds received words in
// by XOR. Its output is a deterministic function of (graph, ids, draw),
// so it pins down that pooled engines thread tapes exactly like
// single-shot runs.
type tapeXOR struct{ rounds int }

func (a tapeXOR) Name() string                { return fmt.Sprintf("tape-xor(%d)", a.rounds) }
func (a tapeXOR) MsgWords(int) int            { return 1 }
func (a tapeXOR) NewWireProcess() WireProcess { return &tapeXORProc{rounds: a.rounds} }

type tapeXORProc struct {
	rounds int
	val    uint64
}

func (p *tapeXORProc) Start(info NodeInfo, out *Outbox) {
	p.val = info.Tape.Uint64()
	if p.rounds > 0 {
		out.Broadcast(p.val)
	}
}

func (p *tapeXORProc) Step(round int, in *Inbox, out *Outbox) bool {
	for port := 0; port < in.Degree(); port++ {
		if w, ok := in.Word(port); ok {
			p.val ^= w
		}
	}
	if round >= p.rounds {
		return true
	}
	out.Broadcast(p.val)
	return false
}

func (p *tapeXORProc) Output() []byte { return encode64(int64(p.val)) }

// testFamilies returns the graph families the reuse tests sweep.
func testFamilies(t *testing.T) map[string]*graph.Graph {
	t.Helper()
	rr, err := graph.RandomRegular(48, 4, 11)
	if err != nil {
		t.Fatal(err)
	}
	gnp, err := graph.ConnectedGNP(30, 0.2, 5)
	if err != nil {
		t.Fatal(err)
	}
	return map[string]*graph.Graph{
		"cycle":          graph.Cycle(24),
		"grid":           graph.Grid(5, 5),
		"tree":           graph.CompleteTree(3, 3),
		"star":           graph.Star(9),
		"random-regular": rr,
		"connected-gnp":  gnp,
	}
}

// expectSameResult asserts byte-identical outputs and identical Stats.
func expectSameResult(t *testing.T, label string, want, got *Result) {
	t.Helper()
	if want.Stats != got.Stats {
		t.Fatalf("%s: stats %+v, want %+v", label, got.Stats, want.Stats)
	}
	if got.Y.Len() != want.Y.Len() {
		t.Fatalf("%s: %d outputs, want %d", label, got.Y.Len(), want.Y.Len())
	}
	for v := range want.Y.Len() {
		if !bytes.Equal(want.Y.At(v), got.Y.At(v)) {
			t.Fatalf("%s: node %d output %x, want %x", label, v, got.Y.At(v), want.Y.At(v))
		}
	}
}

// TestEngineReuseMatchesSingleShotMessage pins the tentpole contract for
// the message path: one pooled width-1 Batch, reused back to back across draws,
// produces byte-identical outputs and identical Stats to fresh
// single-shot runs — on every graph family and with both deterministic
// and randomized algorithms.
func TestEngineReuseMatchesSingleShotMessage(t *testing.T) {
	space := localrand.NewTapeSpace(42)
	for name, g := range testFamilies(t) {
		t.Run(name, func(t *testing.T) {
			in := mustInstance(t, g)
			plan, err := NewPlan(g)
			if err != nil {
				t.Fatal(err)
			}
			one := plan.NewBatch(1)

			// Deterministic algorithm, reused engine.
			want, err := RunMessage(in, floodMin{t: 3}, nil, RunOptions{})
			if err != nil {
				t.Fatal(err)
			}
			for rep := 0; rep < 3; rep++ {
				got, err := runLane(one, in, floodMin{t: 3}, nil, RunOptions{})
				if err != nil {
					t.Fatal(err)
				}
				expectSameResult(t, fmt.Sprintf("floodMin rep %d", rep), want, got)
			}

			// Randomized algorithm: interleave draws on ONE engine and
			// compare each against its own fresh single-shot run.
			for trial := 0; trial < 4; trial++ {
				draw := space.Draw(uint64(trial))
				want, err := RunMessage(in, tapeXOR{rounds: 2}, &draw, RunOptions{})
				if err != nil {
					t.Fatal(err)
				}
				got, err := runLane(one, in, tapeXOR{rounds: 2}, &draw, RunOptions{})
				if err != nil {
					t.Fatal(err)
				}
				expectSameResult(t, fmt.Sprintf("tapeXOR trial %d", trial), want, got)
			}

			// Switching algorithms on the same engine must not leak state:
			// rerun the deterministic algorithm after the randomized ones.
			got, err := runLane(one, in, floodMin{t: 3}, nil, RunOptions{})
			if err != nil {
				t.Fatal(err)
			}
			expectSameResult(t, "floodMin after tapeXOR", want, got)
		})
	}
}

// TestEngineReuseMatchesSingleShotView pins the same contract for the
// ball-view path, including the cached-views steady state (same instance,
// varying draw) and a radius switch mid-stream.
func TestEngineReuseMatchesSingleShotView(t *testing.T) {
	space := localrand.NewTapeSpace(7)
	for name, g := range testFamilies(t) {
		t.Run(name, func(t *testing.T) {
			in := mustInstance(t, g)
			plan, err := NewPlan(g)
			if err != nil {
				t.Fatal(err)
			}
			one := plan.NewBatch(1)
			for trial := 0; trial < 4; trial++ {
				draw := space.Draw(uint64(trial))
				want := RunView(in, tapeSumView{t: 2}, &draw)
				got := viewLane(one, in, tapeSumView{t: 2}, &draw)
				for v := range want.Len() {
					if !bytes.Equal(want.At(v), got.At(v)) {
						t.Fatalf("trial %d node %d: %x, want %x", trial, v, got.At(v), want.At(v))
					}
				}
			}
			// Radius switch (rebuilds the cache), then deterministic run
			// (drops tapes) on the same engine.
			want := RunView(in, minIDView{t: 3}, nil)
			got := viewLane(one, in, minIDView{t: 3}, nil)
			for v := range want.Len() {
				if !bytes.Equal(want.At(v), got.At(v)) {
					t.Fatalf("radius switch node %d: %x, want %x", v, got.At(v), want.At(v))
				}
			}
		})
	}
}

// TestEngineRejectsForeignInstance pins the plan/instance contract: a
// width-1 batch only runs instances over its own graph.
func TestEngineRejectsForeignInstance(t *testing.T) {
	a := mustInstance(t, graph.Cycle(6))
	b := mustInstance(t, graph.Cycle(6)) // same shape, different graph value
	plan, err := NewPlan(a.G)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := runLane(plan.NewBatch(1), b, floodMin{t: 1}, nil, RunOptions{}); err == nil {
		t.Fatal("engine accepted an instance over a foreign graph")
	}
}

// TestEngineErrorPathsMatchSingleShot pins ErrNoHalt and StopAfter
// behavior on reused width-1 batches, including reuse after a failed run.
func TestEngineErrorPathsMatchSingleShot(t *testing.T) {
	in := mustInstance(t, graph.Cycle(5))
	plan, err := NewPlan(in.G)
	if err != nil {
		t.Fatal(err)
	}
	one := plan.NewBatch(1)
	if _, err := runLane(one, in, neverHalt{}, nil, RunOptions{MaxRounds: 20}); err == nil {
		t.Fatal("expected ErrNoHalt")
	}
	// The engine must be reusable after an aborted run.
	res, err := runLane(one, in, neverHalt{}, nil, RunOptions{StopAfter: 7})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Rounds != 7 {
		t.Errorf("rounds = %d, want 7", res.Stats.Rounds)
	}
	want, err := RunMessage(in, floodMin{t: 2}, nil, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	got, err := runLane(one, in, floodMin{t: 2}, nil, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	expectSameResult(t, "after aborted run", want, got)
}

// TestPlanBallCacheShared pins that batches of one plan share one ball
// cache (the point of putting it on the Plan).
func TestPlanBallCacheShared(t *testing.T) {
	g := graph.Cycle(12)
	plan, err := NewPlan(g)
	if err != nil {
		t.Fatal(err)
	}
	a := plan.ballsFor(2)
	b := plan.ballsFor(2)
	if &a[0] != &b[0] {
		t.Error("ballsFor rebuilt the cache on the second call")
	}
}
