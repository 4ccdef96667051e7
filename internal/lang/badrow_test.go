package lang

import (
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"rlnc/internal/graph"
)

// rowFamilies are the graph shapes of the row-path differential: the
// standard contract families plus the star, whose fixed leaf order pins
// the neighbor scan order the order-sensitive predicates depend on.
func rowFamilies(t testing.TB) map[string]*graph.Graph {
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

// rowLangs are the languages defining BadRow, each with the kind of
// output it scores.
var rowLangs = []struct {
	l         *LCL
	q         int
	selection bool
	weak      bool
}{
	{ProperColoring(3), 3, false, false},
	{WeakColoring(2), 2, false, true},
	{MIS(), 0, true, false},
}

// ballOnly strips the row form from an LCL, leaving per-ball evaluation
// — the reference side of the differential.
func ballOnly(l *LCL) *LCL {
	return &LCL{LangName: l.LangName, Radius: l.Radius, Bad: l.Bad}
}

// rowOnly replaces the ball predicate with a tripwire, so a dispatch
// that falls back to ball assembly instead of the row path under test
// fails loudly.
func rowOnly(l *LCL) *LCL {
	return &LCL{
		LangName: l.LangName,
		Radius:   l.Radius,
		Bad:      func(*LabeledBall) bool { panic("lang: row path not taken") },
		BadRow:   l.BadRow,
	}
}

// greedyMIS selects nodes in index order: every node joins unless an
// earlier neighbor already did, which yields a maximal independent set.
func greedyMIS(g *graph.Graph) []bool {
	sel := make([]bool, g.N())
	for v := range sel {
		sel[v] = true
		for _, u := range g.Neighbors(v) {
			if int(u) < v && sel[u] {
				sel[v] = false
				break
			}
		}
	}
	return sel
}

// memberOutputs builds an output column that is a member of the
// language on most families, so Contains is exercised on both answers:
// a greedy MIS; for weak coloring, the MIS mapped selected→0,
// unselected→1; for proper coloring, a greedy coloring in index order
// (within 3 colors on the cycle, grid, tree and star).
func memberOutputs(g *graph.Graph, selection, weak bool) [][]byte {
	n := g.N()
	y := make([][]byte, n)
	switch {
	case selection || weak:
		for v, s := range greedyMIS(g) {
			switch {
			case selection:
				y[v] = EncodeSelected(s)
			case s:
				y[v] = EncodeColor(0)
			default:
				y[v] = EncodeColor(1)
			}
		}
	default:
		col := make([]int, n)
		for v := range col {
			used := map[int]bool{}
			for _, u := range g.Neighbors(v) {
				if int(u) < v {
					used[col[u]] = true
				}
			}
			for used[col[v]] {
				col[v]++
			}
			y[v] = EncodeColor(col[v])
		}
	}
	return y
}

// saltOutputs corrupts roughly a third of a copy of y with every
// malformed shape both paths must treat identically: empty outputs,
// two-byte outputs, out-of-palette colors and bad selection marks —
// plus valid but random entries, which plant ordinary violations.
func saltOutputs(rng *rand.Rand, y [][]byte, q int, selection bool) [][]byte {
	out := slices.Clone(y)
	for v := range out {
		switch rng.Intn(12) {
		case 0:
			out[v] = []byte{}
		case 1:
			out[v] = []byte{0, 0}
		case 2:
			if selection {
				out[v] = []byte{7}
			} else {
				out[v] = EncodeColor(q + rng.Intn(3))
			}
		case 3:
			if selection {
				out[v] = EncodeSelected(rng.Intn(2) == 1)
			} else {
				out[v] = EncodeColor(rng.Intn(q))
			}
		}
	}
	return out
}

// TestRowPathMatchesBallPath is the counting differential: for every
// language defining BadRow, on every family, CountBadBalls, BadNodes and
// Contains through the row path must equal the same calls on the
// language with BadRow stripped — on member outputs and on salted ones.
// The rowOnly tripwire asserts the row path actually dispatched.
func TestRowPathMatchesBallPath(t *testing.T) {
	for _, lc := range rowLangs {
		if lc.l.BadRow == nil {
			t.Fatalf("%s defines no BadRow", lc.l.LangName)
		}
		members := 0
		for name, g := range rowFamilies(t) {
			t.Run(fmt.Sprintf("%s/%s", lc.l.LangName, name), func(t *testing.T) {
				rng := rand.New(rand.NewSource(int64(g.N())))
				base := memberOutputs(g, lc.selection, lc.weak)
				ball, row := ballOnly(lc.l), rowOnly(lc.l)
				for seed := 0; seed < 8; seed++ {
					y := base
					if seed > 0 {
						y = saltOutputs(rng, base, lc.q, lc.selection)
					}
					c := &Config{G: g, X: EmptyInputs(g.N()), Y: y}
					want, got := ball.CountBadBalls(c), row.CountBadBalls(c)
					if got != want {
						t.Fatalf("seed %d: row path counts %d bad balls, ball path %d", seed, got, want)
					}
					nodes := row.BadNodes(c)
					if wantNodes := ball.BadNodes(c); !slices.Equal(nodes, wantNodes) {
						t.Fatalf("seed %d: row path bad nodes %v, ball path %v", seed, nodes, wantNodes)
					}
					if len(nodes) != want {
						t.Fatalf("seed %d: %d bad nodes, %d bad balls", seed, len(nodes), want)
					}
					wantIn, err := ball.Contains(c)
					if err != nil {
						t.Fatal(err)
					}
					gotIn, err := row.Contains(c)
					if err != nil {
						t.Fatal(err)
					}
					if gotIn != wantIn {
						t.Fatalf("seed %d: row path Contains %v, ball path %v", seed, gotIn, wantIn)
					}
					if gotIn {
						members++
					}
				}
			})
		}
		if members == 0 {
			t.Errorf("%s: no configuration was a member; Contains was never exercised on true", lc.l.LangName)
		}
	}
}

// TestRowPathShapeMismatch pins the dispatch condition: a configuration
// whose X or Y does not cover exactly the graph's nodes takes the ball
// path, never the row path, and still counts what the ball path counts.
func TestRowPathShapeMismatch(t *testing.T) {
	g := graph.Cycle(12)
	for _, lc := range rowLangs {
		y := memberOutputs(g, lc.selection, lc.weak)
		y[3] = []byte{} // one bad ball at 3 and its neighbors
		// BadRow is the tripwire here: the mismatched shapes below must
		// never reach it.
		l := &LCL{
			LangName: lc.l.LangName,
			Radius:   lc.l.Radius,
			Bad:      lc.l.Bad,
			BadRow:   func(*DecisionInstance, []bool, []int32) { panic("lang: row path taken on a mismatched shape") },
		}
		ref := &Config{G: g, X: EmptyInputs(g.N()), Y: y}
		want := ballOnly(lc.l).CountBadBalls(ref)
		for name, c := range map[string]*Config{
			"long-y": {G: g, X: EmptyInputs(g.N()), Y: append(slices.Clone(y), EncodeColor(0))},
			"long-x": {G: g, X: EmptyInputs(g.N() + 1), Y: y},
		} {
			if got := l.CountBadBalls(c); got != want {
				t.Errorf("%s/%s: CountBadBalls %d, want %d", lc.l.LangName, name, got, want)
			}
			if got, wantNodes := l.BadNodes(c), ballOnly(lc.l).BadNodes(ref); !slices.Equal(got, wantNodes) {
				t.Errorf("%s/%s: BadNodes %v, want %v", lc.l.LangName, name, got, wantNodes)
			}
			if _, err := l.Contains(c); err == nil {
				t.Errorf("%s/%s: Contains accepted a mismatched shape", lc.l.LangName, name)
			}
		}
	}
}

// TestRowPathConcurrent shares one *LCL across 8 goroutines counting on
// graphs of different sizes at once, as the Monte-Carlo workers of one
// experiment do: the pooled row scratch must neither race (run with
// -race) nor leak one caller's row into another's count.
func TestRowPathConcurrent(t *testing.T) {
	l := ProperColoring(3)
	type job struct {
		c    *Config
		want int
	}
	jobs := make([]job, 8)
	for i := range jobs {
		g := graph.Cycle(30 + 17*i)
		rng := rand.New(rand.NewSource(int64(i)))
		y := saltOutputs(rng, memberOutputs(g, false, false), 3, false)
		c := &Config{G: g, X: EmptyInputs(g.N()), Y: y}
		jobs[i] = job{c, ballOnly(l).CountBadBalls(c)}
	}
	var wg sync.WaitGroup
	errs := make(chan error, len(jobs))
	for i, j := range jobs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for rep := 0; rep < 200; rep++ {
				if got := l.CountBadBalls(j.c); got != j.want {
					errs <- fmt.Errorf("goroutine %d rep %d: %d bad balls, want %d", i, rep, got, j.want)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// countBenchConfig is the micro-benchmark fixture: a 3-coloring of
// C_2400 with a sprinkling of violations.
func countBenchConfig() *Config {
	g := graph.Cycle(2400)
	rng := rand.New(rand.NewSource(1))
	y := make([][]byte, g.N())
	for v := range y {
		y[v] = EncodeColor(rng.Intn(3))
	}
	return &Config{G: g, X: EmptyInputs(g.N()), Y: y}
}

// BenchmarkCountBadBallsRow times one CountBadBalls through the row
// path; BenchmarkCountBadBallsBall the same count assembling one
// labeled ball per node.
func BenchmarkCountBadBallsRow(b *testing.B) {
	benchCount(b, ProperColoring(3))
}

func BenchmarkCountBadBallsBall(b *testing.B) {
	benchCount(b, ballOnly(ProperColoring(3)))
}

func benchCount(b *testing.B, l *LCL) {
	c := countBenchConfig()
	want := ballOnly(l).CountBadBalls(c)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if got := l.CountBadBalls(c); got != want {
			b.Fatalf("%d bad balls, want %d", got, want)
		}
	}
}
