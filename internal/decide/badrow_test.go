package decide

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"rlnc/internal/graph"
	"rlnc/internal/ids"
	"rlnc/internal/lang"
	"rlnc/internal/local"
	"rlnc/internal/localrand"
)

// badRowFamilies are the graph shapes of the row-decider differential:
// the standard contract families plus the star, whose fixed leaf order
// makes the order-sensitivity pins below deterministic.
func badRowFamilies(t testing.TB) map[string]*graph.Graph {
	t.Helper()
	rr, err := graph.RandomRegular(48, 4, 11)
	if err != nil {
		t.Fatal(err)
	}
	return map[string]*graph.Graph{
		"cycle":          graph.Cycle(24),
		"grid":           graph.Grid(5, 5),
		"tree":           graph.CompleteTree(3, 3),
		"star":           graph.Star(9),
		"random-regular": rr,
	}
}

// corruptOutputs builds an adversarial output column: mostly valid
// colors/marks, salted with every malformed shape the deciders must
// treat identically on both paths — empty outputs, overlong outputs,
// out-of-palette colors, and (for selection languages) bad mark bytes.
func corruptOutputs(rng *rand.Rand, n, q int, selection bool) [][]byte {
	y := make([][]byte, n)
	for v := range y {
		switch rng.Intn(8) {
		case 0:
			y[v] = []byte{} // malformed: empty
		case 1:
			y[v] = []byte{0, 0} // malformed: two bytes
		case 2:
			if selection {
				y[v] = []byte{7} // malformed selection mark
			} else {
				y[v] = []byte{byte(q + rng.Intn(3))} // out of palette
			}
		default:
			if selection {
				y[v] = lang.EncodeSelected(rng.Intn(2) == 1)
			} else {
				y[v] = lang.EncodeColor(rng.Intn(q))
			}
		}
	}
	return y
}

// viewOnly strips the row form from a decider's language, leaving the
// per-ball view path — the reference side of the differential. The coin
// fields carry over unchanged.
func viewOnly(d *LCLDecider) *LCLDecider {
	l := d.L
	v := *d
	v.L = &lang.LCL{LangName: l.LangName, Radius: l.Radius, Bad: l.Bad}
	return &v
}

// rowOnly replaces the ball predicate with a tripwire, so a dispatch
// that falls back to view assembly — instead of the BadRow row path
// under test — fails loudly. The coin fields carry over unchanged.
func rowOnly(d *LCLDecider) *LCLDecider {
	l := d.L
	r := *d
	r.L = &lang.LCL{
		LangName: l.LangName,
		Radius:   l.Radius,
		Bad: func(*lang.LabeledBall) bool {
			panic("decide: BadRow row path not taken")
		},
		BadRow: l.BadRow,
	}
	return &r
}

// TestBadRowMatchesBallPath is the row-decider differential: for every
// language defining BadRow, on every family, across seeds of corrupted
// output columns, Exec.Verdicts through the BadRow fast path must equal
// the per-ball view path node for node — malformed outputs, planted
// violations, and out-of-palette colors included. The rowOnly tripwire
// asserts the fast path actually dispatched.
func TestBadRowMatchesBallPath(t *testing.T) {
	langs := []struct {
		l         *lang.LCL
		selection bool
	}{
		{lang.ProperColoring(3), false},
		{lang.WeakColoring(3), false},
		{lang.MIS(), true},
	}
	for name, g := range badRowFamilies(t) {
		n := g.N()
		id := ids.RandomPerm(n, 17)
		for _, lc := range langs {
			if lc.l.BadRow == nil {
				t.Fatalf("%s defines no BadRow", lc.l.LangName)
			}
			t.Run(fmt.Sprintf("%s/%s", name, lc.l.LangName), func(t *testing.T) {
				rng := rand.New(rand.NewSource(int64(n * 1000)))
				x := lang.EmptyInputs(n)
				mem := &Mem{}
				const lanes = 2
				for seed := 0; seed < 4; seed++ {
					dis := make([]*lang.DecisionInstance, lanes)
					for b := range dis {
						dis[b] = &lang.DecisionInstance{
							G: g, X: x, Y: lang.ColumnOf(corruptOutputs(rng, n, 3, lc.selection)), ID: id,
						}
					}
					d := &LCLDecider{L: lc.l}
					want := Exec{}.Verdicts(dis, viewOnly(d), nil)
					got := Exec{Mem: mem}.Verdicts(dis, rowOnly(d), nil)
					for b := 0; b < lanes; b++ {
						for v := 0; v < n; v++ {
							if want[b][v] != got[b][v] {
								t.Fatalf("seed %d lane %d node %d: row path %v, view path %v (y=%x)",
									seed, b, v, got[b][v], want[b][v], dis[b].Y.At(v))
							}
						}
					}
				}
			})
		}
	}
}

// TestBadRowWeakColoringOrder pins the order-sensitive clause of
// WeakColoring's BadRow on a fixed star: the neighbor scan must stop at
// the first differing neighbor — acquitting the center even when a
// LATER neighbor is malformed — but convict when the malformed neighbor
// comes first, exactly as the ball predicate's early returns do. The
// star's leaf order is the center's port order, so the two cases are
// deterministic.
func TestBadRowWeakColoringOrder(t *testing.T) {
	g := graph.Star(4) // center 0, leaves 1..4 in port order
	n := g.N()
	l := lang.WeakColoring(3)
	id := ids.Consecutive(n)
	x := lang.EmptyInputs(n)
	build := func(first, second []byte) *lang.DecisionInstance {
		y := make([][]byte, n)
		for v := range y {
			y[v] = lang.EncodeColor(0)
		}
		y[1], y[2] = first, second
		return &lang.DecisionInstance{G: g, X: x, Y: lang.ColumnOf(y), ID: id}
	}
	cases := []struct {
		name      string
		di        *lang.DecisionInstance
		centerBad bool
	}{
		// A differing leaf before the malformed one acquits the center.
		{"differing-then-malformed", build(lang.EncodeColor(1), []byte{}), false},
		// A malformed leaf before any differing one convicts it.
		{"malformed-then-differing", build([]byte{}, lang.EncodeColor(1)), true},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			d := &LCLDecider{L: l}
			want := Exec{}.Verdicts([]*lang.DecisionInstance{c.di}, viewOnly(d), nil)
			got := Exec{}.Verdicts([]*lang.DecisionInstance{c.di}, rowOnly(d), nil)
			// The verdict is the negated predicate: centerBad ⇒ verdict false.
			if got[0][0] != !c.centerBad {
				t.Errorf("row path center verdict %v; want %v", got[0][0], !c.centerBad)
			}
			if want[0][0] != got[0][0] {
				t.Errorf("view path center verdict %v, row path %v", want[0][0], got[0][0])
			}
		})
	}
}

// TestCoinRowMatchesViewPath is the differential of the coin deciders:
// for every constructor of the coin sense and for the inverted coin, on
// every family, across corrupted output columns and per-lane draws, the
// row path (BadRow, then one coin per flagged node read straight off
// the node's tape) must equal the per-ball view path (View.Tape) node
// for node, on lanes with their own instance and on a lane repeating
// its predecessor's. The rowOnly tripwire pins that each decider
// dispatched to the row path, on a reused batch and on the zero Exec
// alike.
func TestCoinRowMatchesViewPath(t *testing.T) {
	coloring := lang.ProperColoring(3)
	deciders := []struct {
		d         *LCLDecider
		selection bool
	}{
		{&LCLDecider{L: coloring}, false},
		{NewResilientDecider(coloring, 1), false},
		{NewResilientDecider(coloring, 2), false},
		{NewResilientDecider(coloring, 8), false},
		{NewResilientDecider(lang.MIS(), 2), true},
		{NewAMOSDecider(), true},
		{NewSlackNodeAwareDecider(coloring, 0.1, 24), false},
		{&LCLDecider{L: coloring, P: 0.7, Invert: true}, false},
		{&LCLDecider{L: lang.WeakColoring(3), P: 0.4, Invert: true}, false},
	}
	space := localrand.NewTapeSpace(19)
	for name, g := range badRowFamilies(t) {
		n := g.N()
		id := ids.RandomPerm(n, 23)
		x := lang.EmptyInputs(n)
		plan := local.MustPlan(g)
		for _, dc := range deciders {
			t.Run(fmt.Sprintf("%s/%s", name, dc.d.Name()), func(t *testing.T) {
				rng := rand.New(rand.NewSource(int64(n)))
				const lanes = 3
				row, view := rowOnly(dc.d), viewOnly(dc.d)
				x1 := Exec{Bt: plan.NewBatch(lanes), Mem: &Mem{}}
				for seed := 0; seed < 4; seed++ {
					dis := make([]*lang.DecisionInstance, lanes)
					draws := make([]localrand.Draw, lanes)
					for b := range dis {
						dis[b] = &lang.DecisionInstance{
							G: g, X: x, Y: lang.ColumnOf(corruptOutputs(rng, n, 3, dc.selection)), ID: id,
						}
						draws[b] = space.Draw(uint64(seed*lanes + b))
					}
					dis[1] = dis[0] // a repeated instance reuses its bad row
					want := Exec{}.Verdicts(dis, view, draws)
					for _, x := range []Exec{x1, {}} {
						got := x.Verdicts(dis, row, draws)
						for b := 0; b < lanes; b++ {
							for v := 0; v < n; v++ {
								if want[b][v] != got[b][v] {
									t.Fatalf("seed %d lane %d node %d: row path %v, view path %v (y=%x)",
										seed, b, v, got[b][v], want[b][v], dis[b].Y.At(v))
								}
							}
						}
					}
				}
			})
		}
	}
}

// TestVerdictsRejectMalformedLanes pins the trial-vector validation of
// Exec.Verdicts on both paths: a lane whose columns do not cover its
// graph, a lane or batch on another graph, or a draw count that is not
// the lane count panics with a decide: message instead of reading stale
// row scratch (row path) or indexing past a short column (view path).
func TestVerdictsRejectMalformedLanes(t *testing.T) {
	g := graph.Cycle(6)
	good := coloringInstance(t, g, 0, 1, 0, 1, 0, 1)
	draws := []localrand.Draw{localrand.NewTapeSpace(5).Draw(0)}
	mem := &Mem{}
	l := lang.ProperColoring(3)
	// Warm the Mem's decode scratch with a good coloring, so a row path
	// that skipped validation would read its stale column.
	if v := (Exec{Mem: mem}).Verdicts([]*lang.DecisionInstance{good}, &LCLDecider{L: l}, nil); !allTrue(v[0]) {
		t.Fatalf("good coloring rejected: %v", v[0])
	}
	short := func(f func(di *lang.DecisionInstance)) *lang.DecisionInstance {
		di := *good
		f(&di)
		return &di
	}
	cases := []struct {
		name  string
		dis   []*lang.DecisionInstance
		draws []localrand.Draw
		bt    *local.Batch
	}{
		{"short-Y", []*lang.DecisionInstance{short(func(di *lang.DecisionInstance) { di.Y = lang.ColumnOf(di.Y.Rows()[:2]) })}, nil, nil},
		{"short-X", []*lang.DecisionInstance{short(func(di *lang.DecisionInstance) { di.X = di.X[:2] })}, nil, nil},
		{"short-ID", []*lang.DecisionInstance{short(func(di *lang.DecisionInstance) { di.ID = di.ID[:5] })}, nil, nil},
		{"other-graph", []*lang.DecisionInstance{good, coloringInstance(t, graph.Cycle(6), 0, 1, 0, 1, 0, 1)}, nil, nil},
		{"draw-count", []*lang.DecisionInstance{good, good}, draws, nil},
		{"batch-graph", []*lang.DecisionInstance{good}, nil, local.MustPlan(graph.Cycle(6)).NewBatch(1)},
	}
	paths := []struct {
		name string
		d    *LCLDecider
	}{
		{"row", &LCLDecider{L: l}},
		{"coin-row", NewResilientDecider(l, 1)},
		{"view", viewOnly(&LCLDecider{L: l})},
	}
	for _, p := range paths {
		for _, c := range cases {
			d := p.d
			t.Run(p.name+"/"+c.name, func(t *testing.T) {
				ds := c.draws
				if ds == nil && d.P != 0 {
					ds = make([]localrand.Draw, len(c.dis))
				}
				defer func() {
					r := recover()
					msg, ok := r.(string)
					if !ok || !strings.HasPrefix(msg, "decide: ") {
						t.Fatalf("Verdicts did not reject the lanes: recovered %v", r)
					}
				}()
				out := Exec{Bt: c.bt, Mem: mem}.Verdicts(c.dis, d, ds)
				t.Fatalf("Verdicts returned %v", out)
			})
		}
	}
}
