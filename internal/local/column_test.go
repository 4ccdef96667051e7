package local

import (
	"encoding/binary"
	"fmt"
	"testing"

	"rlnc/internal/graph"
	"rlnc/internal/lang"
	"rlnc/internal/localrand"
)

func init() {
	RegisterRemoteAlgorithm("test-widthmix", func(params []int64) (WireAlgorithm, error) {
		if len(params) != 2 {
			return nil, fmt.Errorf("widthmix wants 2 params, got %d", len(params))
		}
		return widthMix{rounds: int(params[0]), width: int(params[1])}, nil
	})
}

// widthMix is a fixed-round flood whose outputs vary in width: each node
// XORs its neighbors' words into its own (a tape word, or its identity
// when deterministic) and finally outputs the low `width` bytes of the
// result — or val%3 of them (0, 1 or 2) when width < 0 or the node has
// an input. A node that never finished its own rounds, such as one a
// permanent crash froze, outputs nothing. Its messages reserve
// widthMixWords words though they carry one, so a few hundred nodes
// already push a pass's slabs past the budget of one lane.
type widthMix struct{ rounds, width int }

func (a widthMix) Name() string {
	return fmt.Sprintf("width-mix(%d, %d)", a.rounds, a.width)
}

// widthMixWords is the message capacity widthMix reserves per port.
const widthMixWords = 48

func (a widthMix) MsgWords(int) int { return widthMixWords }
func (a widthMix) NewWireProcess() WireProcess {
	return &widthMixProc{rounds: a.rounds, width: a.width}
}
func (a widthMix) RemoteSpec() (string, []int64) {
	return "test-widthmix", []int64{int64(a.rounds), int64(a.width)}
}

type widthMixProc struct {
	rounds, width int
	mixed, done   bool
	val           uint64
	buf           [8]byte
}

func (p *widthMixProc) Start(info NodeInfo, out *Outbox) {
	p.val = uint64(info.ID) * 0x9e3779b97f4a7c15
	if info.Tape != nil {
		p.val = info.Tape.Uint64()
	}
	p.mixed, p.done = p.width < 0 || len(info.Input) > 0, false
	out.Broadcast(p.val)
}

func (p *widthMixProc) Step(round int, in *Inbox, out *Outbox) bool {
	for port := 0; port < in.Degree(); port++ {
		if w, ok := in.Word(port); ok {
			p.val ^= w
		}
	}
	if round >= p.rounds {
		p.done = true
		return true
	}
	out.Broadcast(p.val)
	return false
}

func (p *widthMixProc) Output() []byte {
	if !p.done {
		return nil
	}
	w := p.width
	if p.mixed {
		w = int(p.val % 3)
	}
	binary.LittleEndian.PutUint64(p.buf[:], p.val)
	return p.buf[:w]
}

// widthCase is one widthMix run shape of TestOutputColumnsVariableWidth.
type widthCase struct {
	name   string
	algo   widthMix
	fault  *FaultPlan
	marked bool // lane 1's instance carries inputs: mixed widths in that lane only
}

// TestOutputColumnsVariableWidth is the differential of the output
// column store: outputs of width 0, 1 and 2 — uniform, mixed within a
// lane, mixed only in some lanes of a multi-block run, and empty where a
// permanent crash froze a node — must come back from the batch, from
// in-process shards over channel and loopback-TCP links, and from
// shard-worker processes' collect replies as exactly the column
// lang.ColumnOf builds from a width-1 run's rows, with the same Stats.
// Uniform-width runs must come back in fixed form.
func TestOutputColumnsVariableWidth(t *testing.T) {
	pool := startWorkerPool(t, 2)
	crash := &FaultPlan{Seed: 17, CrashP: 0.3, CrashFrom: 2}
	cases := []widthCase{
		{name: "width-0", algo: widthMix{rounds: 3, width: 0}},
		{name: "width-1", algo: widthMix{rounds: 3, width: 1}},
		{name: "width-2", algo: widthMix{rounds: 3, width: 2}},
		{name: "mixed", algo: widthMix{rounds: 3, width: -1}},
		{name: "mixed-in-lane-1", algo: widthMix{rounds: 3, width: 1}, marked: true},
		{name: "width-1-crashed", algo: widthMix{rounds: 4, width: 1}, fault: crash},
		{name: "mixed-crashed", algo: widthMix{rounds: 4, width: -1}, fault: crash},
	}
	space := localrand.NewTapeSpace(71)
	// C_24 runs each lane vector in one block; C_700 runs it one lane
	// per block, so fixed and offsets blocks alternate in one run.
	big := graph.Cycle(700)
	if block := MustPlan(big).NewBatch(3).msgLanesFor(cases[0].algo); block != 1 {
		t.Fatalf("C_700 runs %d lanes per block, want 1", block)
	}
	for _, g := range []*graph.Graph{graph.Cycle(24), graph.Grid(5, 5), big} {
		t.Run(g.String(), func(t *testing.T) { columnShapes(t, g, cases, space, pool) })
	}
}

// columnShapes runs TestOutputColumnsVariableWidth's cases on g, every
// shape against the width-1 reference. The shard executors close when
// it returns, handing the worker pool to the next graph.
func columnShapes(t *testing.T, g *graph.Graph, cases []widthCase, space *localrand.TapeSpace, pool *WorkerPool) {
	const width = 3
	plan := MustPlan(g)
	plain := mustInstance(t, g)
	marked := *plain
	marked.X = make([][]byte, g.N())
	for v := range marked.X {
		marked.X[v] = []byte{1}
	}
	shapes := map[string]interface {
		RunInstances([]*lang.Instance, WireAlgorithm, []localrand.Draw, RunOptions) ([]*Result, error)
	}{"batch": plan.NewBatch(width)}
	for name, shards := range map[string]func() (*Sharded, error){
		"chan":   func() (*Sharded, error) { return plan.NewSharded(width, 2) },
		"tcp":    func() (*Sharded, error) { return plan.NewSharded(width, 2) },
		"worker": func() (*Sharded, error) { return plan.NewShardedRemote(width, pool) },
	} {
		sh, err := shards()
		if err != nil {
			t.Fatal(err)
		}
		if name == "tcp" {
			sh.UseTCPLoopback()
		}
		defer sh.Close()
		shapes[name] = sh
	}
	for _, c := range cases {
		ins := []*lang.Instance{plain, plain, plain}
		if c.marked {
			ins[1] = &marked
		}
		for rep, draws := range [][]localrand.Draw{drawRange(space, 0, width), nil} {
			opts := RunOptions{Fault: c.fault}
			want := make([]*Result, width)
			for b, in := range ins {
				var d *localrand.Draw
				if draws != nil {
					d = &draws[b]
				}
				r, err := plan.Run(in, c.algo, d, opts)
				if err != nil {
					t.Fatal(err)
				}
				want[b] = &Result{Y: lang.ColumnOf(r.Y.Rows()), Stats: r.Stats}
			}
			for name, x := range shapes {
				label := fmt.Sprintf("%s on %v, %s, rep %d", c.name, g, name, rep)
				got, err := x.RunInstances(ins, c.algo, draws, opts)
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				for b := range got {
					if got[b].Stats != want[b].Stats || !got[b].Y.Equal(want[b].Y) {
						t.Fatalf("%s lane %d: got %v %v, want %v %v", label, b, got[b].Stats, got[b].Y, want[b].Stats, want[b].Y)
					}
					if w, fixed := got[b].Y.Width(); c.algo.width >= 0 && !c.marked && c.fault == nil && (!fixed || w != c.algo.width) {
						t.Fatalf("%s lane %d: uniform width-%d outputs came back as width %d, fixed %v", label, b, c.algo.width, w, fixed)
					}
				}
			}
		}
	}
}
