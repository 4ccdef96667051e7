package local

import (
	"bytes"
	"errors"
	"fmt"
	"sort"
	"testing"
	"testing/quick"

	"rlnc/internal/graph"
	"rlnc/internal/ids"
	"rlnc/internal/lang"
	"rlnc/internal/localrand"
)

func mustInstance(t testing.TB, g *graph.Graph) *lang.Instance {
	t.Helper()
	in, err := lang.NewInstance(g, lang.EmptyInputs(g.N()), ids.RandomPerm(g.N(), 99))
	if err != nil {
		t.Fatal(err)
	}
	return in
}

// minIDView outputs the minimum identity in the radius-t ball, encoded in
// 8 bytes. It reads only ball membership, never port order, so it is safe
// for the reconstruction-equivalence tests.
type minIDView struct{ t int }

func (m minIDView) Name() string { return fmt.Sprintf("min-id-view(%d)", m.t) }
func (m minIDView) Radius() int  { return m.t }
func (m minIDView) Output(v *View) []byte {
	min := v.IDs[0]
	for _, id := range v.IDs {
		if id < min {
			min = id
		}
	}
	return encode64(min)
}

func encode64(x int64) []byte {
	out := make([]byte, 8)
	for i := 0; i < 8; i++ {
		out[i] = byte(x >> (8 * i))
	}
	return out
}

// ballSummaryView produces an order-insensitive fingerprint of the view:
// the sorted (distance, id) pairs and the sorted edge list by identity.
// It exercises structure reconstruction without depending on frontier
// port numbering.
type ballSummaryView struct{ t int }

func (b ballSummaryView) Name() string { return "ball-summary" }
func (b ballSummaryView) Radius() int  { return b.t }
func (b ballSummaryView) Output(v *View) []byte {
	var parts []string
	for i := range v.IDs {
		parts = append(parts, fmt.Sprintf("n%d@%d", v.IDs[i], v.Ball.Dist[i]))
	}
	sort.Strings(parts)
	var edges []string
	for _, e := range v.Ball.G.Edges() {
		a, bID := v.IDs[e[0]], v.IDs[e[1]]
		if a > bID {
			a, bID = bID, a
		}
		edges = append(edges, fmt.Sprintf("e%d-%d", a, bID))
	}
	sort.Strings(edges)
	return []byte(fmt.Sprintf("%v|%v", parts, edges))
}

// tapeSumView sums the first tape word of every ball node, testing that
// random bits are shipped correctly by the full-information adapter.
type tapeSumView struct{ t int }

func (s tapeSumView) Name() string { return "tape-sum" }
func (s tapeSumView) Radius() int  { return s.t }
func (s tapeSumView) Output(v *View) []byte {
	var sum uint64
	for i := range v.IDs {
		sum += v.TapeFor(i).Uint64()
	}
	return encode64(int64(sum))
}

// floodMin is a message-passing algorithm: flood identities for t rounds,
// output the minimum seen. After t rounds the minimum ranges exactly over
// the radius-t ball.
type floodMin struct{ t int }

func (f floodMin) Name() string                { return fmt.Sprintf("flood-min(%d)", f.t) }
func (f floodMin) MsgWords(int) int            { return 1 }
func (f floodMin) NewWireProcess() WireProcess { return &floodMinProc{t: f.t} }

type floodMinProc struct {
	t   int
	min int64
}

func (p *floodMinProc) Start(info NodeInfo, out *Outbox) {
	p.min = info.ID
	if p.t > 0 {
		out.Broadcast(uint64(p.min))
	}
}

func (p *floodMinProc) Step(round int, in *Inbox, out *Outbox) bool {
	for port := 0; port < in.Degree(); port++ {
		if w, ok := in.Word(port); ok && int64(w) < p.min {
			p.min = int64(w)
		}
	}
	if round >= p.t {
		return true
	}
	out.Broadcast(uint64(p.min))
	return false
}

func (p *floodMinProc) Output() []byte { return encode64(p.min) }

func TestRunViewMinID(t *testing.T) {
	g := graph.Cycle(8)
	in := mustInstance(t, g)
	y := RunView(in, minIDView{t: 2}, nil)
	for v := 0; v < g.N(); v++ {
		want := in.ID[v]
		nodes, _ := g.NodesWithin(v, 2)
		for _, u := range nodes {
			if in.ID[u] < want {
				want = in.ID[u]
			}
		}
		if !bytes.Equal(y.At(v), encode64(want)) {
			t.Errorf("node %d: wrong min", v)
		}
	}
}

func TestRunMessageFloodMin(t *testing.T) {
	g := graph.Path(10)
	in := mustInstance(t, g)
	res, err := RunMessage(in, floodMin{t: 3}, nil, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Rounds != 3 {
		t.Errorf("rounds = %d, want 3", res.Stats.Rounds)
	}
	if res.Stats.Messages == 0 {
		t.Error("no messages recorded")
	}
	y := RunView(in, minIDView{t: 3}, nil)
	for v := range y.Len() {
		if !bytes.Equal(res.Y.At(v), y.At(v)) {
			t.Errorf("node %d: message %x vs view %x", v, res.Y.At(v), y.At(v))
		}
	}
}

func TestRunMessageDeterministic(t *testing.T) {
	g, err := graph.ConnectedGNP(40, 0.15, 4)
	if err != nil {
		t.Fatal(err)
	}
	in := mustInstance(t, g)
	r1, err1 := RunMessage(in, floodMin{t: 4}, nil, RunOptions{})
	r2, err2 := RunMessage(in, floodMin{t: 4}, nil, RunOptions{})
	if err1 != nil || err2 != nil {
		t.Fatal(err1, err2)
	}
	for v := range r1.Y.Len() {
		if !bytes.Equal(r1.Y.At(v), r2.Y.At(v)) {
			t.Fatalf("node %d: outputs differ across runs", v)
		}
	}
}

// neverHalt never halts and never sends.
type neverHalt struct{}

func (neverHalt) Name() string                { return "never-halt" }
func (neverHalt) MsgWords(int) int            { return 0 }
func (neverHalt) NewWireProcess() WireProcess { return neverHaltProc{} }

type neverHaltProc struct{}

func (neverHaltProc) Start(NodeInfo, *Outbox)        {}
func (neverHaltProc) Step(int, *Inbox, *Outbox) bool { return false }
func (neverHaltProc) Output() []byte                 { return nil }

func TestRunMessageNoHalt(t *testing.T) {
	in := mustInstance(t, graph.Cycle(5))
	_, err := RunMessage(in, neverHalt{}, nil, RunOptions{MaxRounds: 20})
	if !errors.Is(err, ErrNoHalt) {
		t.Errorf("want ErrNoHalt, got %v", err)
	}
}

func TestStopAfter(t *testing.T) {
	in := mustInstance(t, graph.Cycle(5))
	res, err := RunMessage(in, neverHalt{}, nil, RunOptions{StopAfter: 7})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Rounds != 7 {
		t.Errorf("rounds = %d, want 7", res.Stats.Rounds)
	}
}

// TestFullInfoEquivalenceDeterministic checks RunFullInfo against
// RunView on the same view algorithm, and pins the gossip's Stats: t
// rounds, and one message per port of every node that learned something
// new the round before.
func TestFullInfoEquivalenceDeterministic(t *testing.T) {
	for _, tc := range []struct {
		name  string
		g     *graph.Graph
		t     int
		stats Stats
	}{
		{"cycle-r0", graph.Cycle(7), 0, Stats{}},
		{"cycle-r1", graph.Cycle(7), 1, Stats{Rounds: 1, Messages: 14}},
		{"cycle-r2", graph.Cycle(9), 2, Stats{Rounds: 2, Messages: 36}},
		{"path-r3", graph.Path(12), 3, Stats{Rounds: 3, Messages: 66}},
		{"grid-r2", graph.Grid(4, 5), 2, Stats{Rounds: 2, Messages: 124}},
		{"tree-r2", graph.CompleteTree(3, 3), 2, Stats{Rounds: 2, Messages: 156}},
		{"petersen-r2", Petersen(), 2, Stats{Rounds: 2, Messages: 60}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			in := mustInstance(t, tc.g)
			view := ballSummaryView{t: tc.t}
			want := RunView(in, view, nil)
			res := RunFullInfo(in, view, nil)
			if res.Stats != tc.stats {
				t.Errorf("full-info stats = %+v, want %+v", res.Stats, tc.stats)
			}
			for v := range want.Len() {
				if !bytes.Equal(res.Y.At(v), want.At(v)) {
					t.Errorf("node %d:\n message: %s\n view:    %s", v, res.Y.At(v), want.At(v))
				}
			}
		})
	}
}

// Petersen is re-exported for table entries.
func Petersen() *graph.Graph { return graph.Petersen() }

func TestFullInfoEquivalenceRandomized(t *testing.T) {
	in := mustInstance(t, graph.Cycle(9))
	draw := localrand.NewTapeSpace(5).Draw(0)
	view := tapeSumView{t: 2}
	want := RunView(in, view, &draw)
	res := RunFullInfo(in, view, &draw)
	if res.Stats != (Stats{Rounds: 2, Messages: 36}) {
		t.Errorf("full-info stats = %+v, want 2 rounds, 36 messages", res.Stats)
	}
	for v := range want.Len() {
		if !bytes.Equal(res.Y.At(v), want.At(v)) {
			t.Errorf("node %d: tape sums differ between view and message run", v)
		}
	}
}

func TestDecisionViewCarriesOutputs(t *testing.T) {
	g := graph.Path(4)
	in := mustInstance(t, g)
	y := [][]byte{{1}, {2}, {3}, {4}}
	di, err := in.WithOutput(lang.ColumnOf(y))
	if err != nil {
		t.Fatal(err)
	}
	// Views are valid only during the callback, so they are checked there.
	seen := false
	err = MustPlan(g).NewBatch(1).ForEachDecisionViews([]*lang.DecisionInstance{di}, 1, nil, func(_, v int, view *View) {
		if v != 1 {
			return
		}
		seen = true
		if view.Y == nil {
			t.Error("decision view lost outputs")
			return
		}
		if !bytes.Equal(view.Y[0], []byte{2}) {
			t.Errorf("center output = %v, want [2]", view.Y[0])
		}
		if view.Tape() != nil {
			t.Error("deterministic view has a tape")
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if !seen {
		t.Fatal("no view assembled for node 1")
	}
}

// TestConstructionViewTapesAddressedByID checks that the same node
// presents the same tape bits in every construction view that contains
// it (the multiset-of-strings model of §3): each center of a path
// records the first tape word of every ball node, by identity.
func TestConstructionViewTapesAddressedByID(t *testing.T) {
	g := graph.Path(5)
	in := mustInstance(t, g)
	draw := localrand.NewTapeSpace(1).Draw(7)
	seen := make([]map[int64]uint64, g.N())
	RunView(in, ViewFunc{AlgoName: "tape-words", R: 2, F: func(v *View) []byte {
		words := make(map[int64]uint64, len(v.IDs))
		for i, id := range v.IDs {
			words[id] = v.TapeFor(i).Uint64()
		}
		for c := range in.ID {
			if in.ID[c] == v.IDs[0] {
				seen[c] = words
			}
		}
		return nil
	}}, &draw)
	for u, id := range in.ID {
		want := draw.Tape(id).Uint64()
		views := 0
		for c, words := range seen {
			if w, ok := words[id]; ok {
				views++
				if w != want {
					t.Errorf("node %d in the view of %d: tape word %d, want %d", u, c, w, want)
				}
			}
		}
		if views < 2 {
			t.Errorf("node %d appears in %d views, want at least 2", u, views)
		}
	}
}

func TestViewFunc(t *testing.T) {
	f := ViewFunc{AlgoName: "const", R: 1, F: func(v *View) []byte { return []byte{9} }}
	if f.Name() != "const" || f.Radius() != 1 {
		t.Error("ViewFunc accessors wrong")
	}
	in := mustInstance(t, graph.Path(3))
	y := RunView(in, f, nil)
	if !bytes.Equal(y.At(1), []byte{9}) {
		t.Error("ViewFunc output wrong")
	}
}

// Property: full-information reconstruction equals the omniscient ball on
// random connected graphs for the order-insensitive summary.
func TestFullInfoEquivalenceProperty(t *testing.T) {
	f := func(seed uint64, rawN, rawT uint8) bool {
		n := int(rawN%20) + 4
		radius := int(rawT % 4)
		g, err := graph.ConnectedGNP(n, 0.25, seed)
		if err != nil {
			return true
		}
		in, err := lang.NewInstance(g, lang.EmptyInputs(n), ids.RandomPerm(n, seed))
		if err != nil {
			return false
		}
		view := ballSummaryView{t: radius}
		want := RunView(in, view, nil)
		res := RunFullInfo(in, view, nil)
		for v := range want.Len() {
			if !bytes.Equal(res.Y.At(v), want.At(v)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}
