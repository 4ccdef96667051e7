package local

import (
	"runtime"
	"strings"
	"testing"

	"rlnc/internal/graph"
	"rlnc/internal/lang"
)

// panicker violates its contract in Start.
type panicker struct{}

func (panicker) Name() string                { return "panicker" }
func (panicker) MsgWords(int) int            { return 0 }
func (panicker) NewWireProcess() WireProcess { return panickerProc{} }

type panickerProc struct{}

func (panickerProc) Start(NodeInfo, *Outbox)        { panic("algorithm contract violated") }
func (panickerProc) Step(int, *Inbox, *Outbox) bool { return true }
func (panickerProc) Output() []byte                 { return nil }

// TestEnginePanicsAreRecoverable pins the worker-pool contract: a panic
// inside a process surfaces on the caller's goroutine where tests (and
// callers) can recover it, instead of crashing the whole program from a
// worker goroutine.
func TestEnginePanicsAreRecoverable(t *testing.T) {
	in := mustInstance(t, graph.Cycle(8))
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("expected the algorithm panic to propagate")
		}
		if !strings.Contains(r.(string), "contract violated") {
			t.Fatalf("unexpected panic payload: %v", r)
		}
	}()
	_, _ = RunMessage(in, panicker{}, nil, RunOptions{})
}

func TestParallelForSmallN(t *testing.T) {
	// n smaller than worker count exercises the serial path.
	hits := make([]bool, 2)
	parallelFor(2, func(i int) { hits[i] = true })
	if !hits[0] || !hits[1] {
		t.Error("parallelFor skipped indices")
	}
	parallelFor(0, func(i int) { t.Error("called for n=0") })
}

// procsGrower is floodMin whose processes raise GOMAXPROCS to 4 in
// round 2, in the middle of the run.
type procsGrower struct{ floodMin }

func (a procsGrower) NewWireProcess() WireProcess {
	return procsGrowerProc{a.floodMin.NewWireProcess()}
}

type procsGrowerProc struct{ WireProcess }

func (p procsGrowerProc) Step(round int, in *Inbox, out *Outbox) bool {
	if round == 2 {
		runtime.GOMAXPROCS(4)
	}
	return p.WireProcess.Step(round, in, out)
}

// TestRunSurvivesGOMAXPROCSGrowth pins the worker count of a run: the
// round loop sizes its worker rows and scratch once, so GOMAXPROCS
// growing mid-run must not hand a later pass a worker index past them.
// The run matches the same algorithm run at a fixed GOMAXPROCS.
func TestRunSurvivesGOMAXPROCSGrowth(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	in := mustInstance(t, graph.Cycle(64))
	want, err := RunMessage(in, floodMin{t: 5}, nil, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	got, err := RunMessage(in, procsGrower{floodMin{t: 5}}, nil, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if got.Stats != want.Stats {
		t.Errorf("stats %+v, want %+v", got.Stats, want.Stats)
	}
	for v := range want.Y.Len() {
		if string(got.Y.At(v)) != string(want.Y.At(v)) {
			t.Fatalf("node %d: output %x, want %x", v, got.Y.At(v), want.Y.At(v))
		}
	}
}

func TestFullInfoZeroRound(t *testing.T) {
	in := mustInstance(t, graph.Path(5))
	view := ViewFunc{AlgoName: "self", R: 0, F: func(v *View) []byte {
		return []byte{byte(v.IDs[0])}
	}}
	res := RunFullInfo(in, view, nil)
	for v := 0; v < 5; v++ {
		if len(res.Y.At(v)) != 1 || res.Y.At(v)[0] != byte(in.ID[v]) {
			t.Errorf("node %d: output %v", v, res.Y.At(v))
		}
	}
	if res.Stats != (Stats{}) {
		t.Errorf("zero-round run: stats %+v, want 0 rounds and 0 messages", res.Stats)
	}
}

func TestMessageStatsCount(t *testing.T) {
	in := mustInstance(t, graph.Cycle(6))
	res, err := RunMessage(in, floodMin{t: 2}, nil, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// Every node sends both ports for 2 rounds of delivery: the Start
	// sends (delivered in round 1) plus round-1 sends (delivered in round
	// 2): 6 nodes × 2 ports × 2 deliveries.
	if res.Stats.Messages != 24 {
		t.Errorf("messages = %d, want 24", res.Stats.Messages)
	}
}

func TestRunMessageRejectsNilGraphInstance(t *testing.T) {
	// Structural misuse should fail loudly, not hang: a 0-node instance
	// completes immediately.
	in := &lang.Instance{G: mustInstance(t, graph.Path(1)).G, X: lang.EmptyInputs(1), ID: []int64{1}}
	res, err := RunMessage(in, floodMin{t: 0}, nil, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Y.Len() != 1 {
		t.Error("single-node run lost its output")
	}
}
