package lang

import (
	"errors"
	"testing"

	"rlnc/internal/graph"
	"rlnc/internal/ids"
)

// colorConfig builds a configuration on g with the given 1-byte colors.
func colorConfig(g *graph.Graph, colors ...int) *Config {
	y := make([][]byte, g.N())
	for v, c := range colors {
		y[v] = EncodeColor(c)
	}
	return &Config{G: g, X: EmptyInputs(g.N()), Y: ColumnOf(y)}
}

// selConfig builds a configuration with the given selected node set.
func selConfig(g *graph.Graph, selected ...int) *Config {
	y := make([][]byte, g.N())
	for v := 0; v < g.N(); v++ {
		y[v] = EncodeSelected(false)
	}
	for _, v := range selected {
		y[v] = EncodeSelected(true)
	}
	return &Config{G: g, X: EmptyInputs(g.N()), Y: ColumnOf(y)}
}

func mustContain(t *testing.T, l Language, c *Config, want bool) {
	t.Helper()
	got, err := l.Contains(c)
	if err != nil {
		t.Fatalf("%s: Contains error: %v", l.Name(), err)
	}
	if got != want {
		t.Errorf("%s: Contains = %v, want %v", l.Name(), got, want)
	}
}

func TestConfigValidate(t *testing.T) {
	g := graph.Path(3)
	good := &Config{G: g, X: EmptyInputs(3), Y: ColumnOf(EmptyInputs(3))}
	if err := good.Validate(); err != nil {
		t.Errorf("valid config rejected: %v", err)
	}
	bad := &Config{G: g, X: EmptyInputs(2), Y: ColumnOf(EmptyInputs(3))}
	if err := bad.Validate(); !errors.Is(err, ErrShape) {
		t.Errorf("want ErrShape, got %v", err)
	}
	if err := (&Config{}).Validate(); !errors.Is(err, ErrNilG) {
		t.Errorf("want ErrNilG, got %v", err)
	}
}

func TestNewInstanceValidation(t *testing.T) {
	g := graph.Path(3)
	if _, err := NewInstance(g, EmptyInputs(3), ids.Consecutive(3)); err != nil {
		t.Errorf("valid instance rejected: %v", err)
	}
	if _, err := NewInstance(g, EmptyInputs(2), ids.Consecutive(3)); !errors.Is(err, ErrShape) {
		t.Errorf("want ErrShape, got %v", err)
	}
	if _, err := NewInstance(g, EmptyInputs(3), ids.Assignment{1, 1, 2}); err == nil {
		t.Error("duplicate ids accepted")
	}
}

func TestWithOutput(t *testing.T) {
	g := graph.Path(3)
	in, _ := NewInstance(g, EmptyInputs(3), ids.Consecutive(3))
	di, err := in.WithOutput(ColumnOf(EmptyInputs(3)))
	if err != nil {
		t.Fatal(err)
	}
	if err := di.Config().Validate(); err != nil {
		t.Errorf("decision config invalid: %v", err)
	}
	if _, err := in.WithOutput(ColumnOf(EmptyInputs(2))); !errors.Is(err, ErrShape) {
		t.Errorf("want ErrShape, got %v", err)
	}
}

func TestFkPromise(t *testing.T) {
	g := graph.Star(5) // center degree 4
	c := &Config{G: g, X: EmptyInputs(5), Y: ColumnOf(EmptyInputs(5))}
	if !(Fk{K: 4}).Holds(c) {
		t.Error("F_4 should hold for star with Δ=4")
	}
	if (Fk{K: 3}).Holds(c) {
		t.Error("F_3 should fail for star with Δ=4")
	}
	long := c.Y.Rows()
	long[0] = []byte("too long for k")
	c.Y = ColumnOf(long)
	if (Fk{K: 4}).Holds(c) {
		t.Error("F_4 should fail for a 14-byte output")
	}
	if err := CheckPromise(Fk{K: 4}, c); !errors.Is(err, ErrPromise) {
		t.Errorf("want ErrPromise, got %v", err)
	}
}

func TestColorCodec(t *testing.T) {
	for _, c := range []int{0, 1, 17, 255} {
		got, err := DecodeColor(EncodeColor(c))
		if err != nil || got != c {
			t.Errorf("roundtrip %d -> %d, err %v", c, got, err)
		}
	}
	if _, err := DecodeColor([]byte{1, 2}); !errors.Is(err, ErrDecode) {
		t.Error("expected decode error for 2-byte color")
	}
	if _, err := DecodeColor(nil); !errors.Is(err, ErrDecode) {
		t.Error("expected decode error for empty color")
	}
}

func TestSelectionCodec(t *testing.T) {
	for _, s := range []bool{true, false} {
		got, err := DecodeSelected(EncodeSelected(s))
		if err != nil || got != s {
			t.Errorf("roundtrip %v -> %v, err %v", s, got, err)
		}
	}
	if _, err := DecodeSelected([]byte{7}); err == nil {
		t.Error("expected decode error for mark 7")
	}
}

func TestMatchPortCodec(t *testing.T) {
	p, m, err := DecodeMatchPort(EncodeMatchPort(3, true))
	if err != nil || !m || p != 3 {
		t.Errorf("roundtrip: p=%d m=%v err=%v", p, m, err)
	}
	_, m, err = DecodeMatchPort(EncodeMatchPort(0, false))
	if err != nil || m {
		t.Errorf("unmatched roundtrip: m=%v err=%v", m, err)
	}
}

func TestProperColoring(t *testing.T) {
	l := ProperColoring(3)
	c5 := graph.Cycle(5)
	mustContain(t, l, colorConfig(c5, 0, 1, 0, 1, 2), true)
	mustContain(t, l, colorConfig(c5, 0, 0, 1, 2, 1), false)
	// Color out of palette.
	mustContain(t, l, colorConfig(c5, 0, 1, 0, 1, 3), false)
	// Malformed output string.
	bad := colorConfig(c5, 0, 1, 0, 1, 2)
	rows := bad.Y.Rows()
	rows[2] = nil
	bad.Y = ColumnOf(rows)
	mustContain(t, l, bad, false)
}

func TestProperColoringBadBallCount(t *testing.T) {
	l := ProperColoring(3)
	c6 := graph.Cycle(6)
	mono := colorConfig(c6, 1, 1, 1, 1, 1, 1)
	if got := l.CountBadBalls(mono); got != 6 {
		t.Errorf("monochromatic C6: bad balls = %d, want 6", got)
	}
	one := colorConfig(c6, 0, 0, 1, 2, 1, 2) // conflict only at {0,1}
	if got := l.CountBadBalls(one); got != 2 {
		t.Errorf("single conflict: bad balls = %d, want 2", got)
	}
	if nodes := l.BadNodes(one); len(nodes) != 2 || nodes[0] != 0 || nodes[1] != 1 {
		t.Errorf("bad nodes = %v, want [0 1]", nodes)
	}
}

func TestWeakColoring(t *testing.T) {
	l := WeakColoring(2)
	p3 := graph.Path(3)
	mustContain(t, l, colorConfig(p3, 0, 1, 0), true)
	mustContain(t, l, colorConfig(p3, 0, 0, 0), false)
	// 0,0,1: node 0's only neighbor is 1 with color 0 -> bad ball at 0.
	mustContain(t, l, colorConfig(p3, 0, 0, 1), false)
	// A proper coloring is in particular weak.
	c4 := graph.Cycle(4)
	mustContain(t, l, colorConfig(c4, 0, 1, 0, 1), true)
}

func TestMIS(t *testing.T) {
	l := MIS()
	p4 := graph.Path(4)
	mustContain(t, l, selConfig(p4, 0, 2), true)
	mustContain(t, l, selConfig(p4, 0, 3), true)
	mustContain(t, l, selConfig(p4, 0, 1), false) // not independent
	mustContain(t, l, selConfig(p4, 0), false)    // not maximal: 2,3 undominated... 2 has no selected neighbor
	mustContain(t, l, selConfig(p4), false)       // empty set not maximal
	k4 := graph.Complete(4)
	mustContain(t, l, selConfig(k4, 2), true)
}

func TestMaximalMatching(t *testing.T) {
	l := MaximalMatching()
	p4 := graph.Path(4) // adjacency: 0:[1] 1:[0,2] 2:[1,3] 3:[2]
	y := [][]byte{
		EncodeMatchPort(0, true), // 0 matched to 1
		EncodeMatchPort(0, true), // 1 matched to 0
		EncodeMatchPort(1, true), // 2 matched to 3
		EncodeMatchPort(0, true), // 3 matched to 2
	}
	c := &Config{G: p4, X: EmptyInputs(4), Y: ColumnOf(y)}
	mustContain(t, l, c, true)

	// Non-reciprocal: 1 claims 2 while 2 claims 3.
	y2 := [][]byte{
		EncodeMatchPort(0, true),
		EncodeMatchPort(1, true),
		EncodeMatchPort(1, true),
		EncodeMatchPort(0, true),
	}
	mustContain(t, l, &Config{G: p4, X: EmptyInputs(4), Y: ColumnOf(y2)}, false)

	// Not maximal: middle edge unmatched while both endpoints unmatched.
	y3 := [][]byte{
		EncodeMatchPort(0, false),
		EncodeMatchPort(0, false),
		EncodeMatchPort(0, false),
		EncodeMatchPort(0, false),
	}
	mustContain(t, l, &Config{G: p4, X: EmptyInputs(4), Y: ColumnOf(y3)}, false)

	// Matched through a nonexistent port.
	y4 := [][]byte{
		EncodeMatchPort(5, true),
		EncodeMatchPort(0, true),
		EncodeMatchPort(1, true),
		EncodeMatchPort(0, true),
	}
	mustContain(t, l, &Config{G: p4, X: EmptyInputs(4), Y: ColumnOf(y4)}, false)
}

func TestMinimalDominatingSet(t *testing.T) {
	l := MinimalDominatingSet()
	star := graph.Star(5)
	mustContain(t, l, selConfig(star, 0), true) // center dominates all
	mustContain(t, l, selConfig(star), false)   // nothing dominated
	p3 := graph.Path(3)
	mustContain(t, l, selConfig(p3, 1), true)     // middle dominates path
	mustContain(t, l, selConfig(p3, 0, 1), false) // 0 redundant
	mustContain(t, l, selConfig(p3, 0, 2), true)  // endpoints: minimal
	k3 := graph.Complete(3)
	mustContain(t, l, selConfig(k3, 0), true)
	mustContain(t, l, selConfig(k3, 0, 1), false) // either is redundant
}

func TestFrugalColoring(t *testing.T) {
	star := graph.Star(5) // center 0, leaves 1..4
	cfg := colorConfig(star, 0, 1, 1, 2, 2)
	mustContain(t, FrugalColoring(3, 2), cfg, true)
	mustContain(t, FrugalColoring(3, 1), cfg, false) // color 1 twice in N(0)
	// Frugal but improper must fail too.
	bad := colorConfig(star, 1, 1, 2, 3, 4)
	mustContain(t, FrugalColoring(5, 4), bad, false)
}

func TestAMOS(t *testing.T) {
	g := graph.Cycle(6)
	mustContain(t, AMOS{}, selConfig(g), true)
	mustContain(t, AMOS{}, selConfig(g, 3), true)
	mustContain(t, AMOS{}, selConfig(g, 1, 4), false)
	mustContain(t, AMOS{}, selConfig(g, 0, 1, 2), false)
}

func TestMajority(t *testing.T) {
	g := graph.Path(4)
	mustContain(t, Majority{}, selConfig(g, 0, 1, 2), true)
	mustContain(t, Majority{}, selConfig(g, 0, 1), false) // exactly half is not a majority
	mustContain(t, Majority{}, selConfig(g), false)
}

func TestAtLeastKSelected(t *testing.T) {
	g := graph.Path(4)
	mustContain(t, AtLeastKSelected{K: 2}, selConfig(g, 1, 3), true)
	mustContain(t, AtLeastKSelected{K: 3}, selConfig(g, 1, 3), false)
}

func TestLLLMatchesWeakColoring(t *testing.T) {
	l := LLL()
	if l.Name() != "lll-monochromatic-star" {
		t.Errorf("name = %q", l.Name())
	}
	p3 := graph.Path(3)
	// Monochromatic star at node 1 <-> bad event holds.
	mustContain(t, l, colorConfig(p3, 0, 0, 0), false)
	mustContain(t, l, colorConfig(p3, 0, 1, 0), true)
}

func TestLabeledBallAroundIndexing(t *testing.T) {
	g := graph.Cycle(5)
	c := colorConfig(g, 0, 1, 2, 0, 1)
	b := LabeledBallAround(c, 2, 1)
	if b.Ball.Center() != 2 {
		t.Fatalf("center = %d", b.Ball.Center())
	}
	col, err := DecodeColor(b.Y[0])
	if err != nil || col != 2 {
		t.Errorf("center color = %d (%v), want 2", col, err)
	}
	if b.Ball.Size() != 3 {
		t.Errorf("ball size = %d, want 3", b.Ball.Size())
	}
}
