// Package exp implements the experiment suite E1–E17: one experiment per
// quantitative statement of the paper, as indexed in README.md, plus
// the E17 fault-injection degradation study. Each experiment emits the
// paper-shaped table plus programmatic checks that the measured shape
// matches the claim; each experiment's own file documents its claim and
// the notes its table records.
package exp

import (
	"rlnc/internal/graph"
	"rlnc/internal/ids"
	"rlnc/internal/lang"
	"rlnc/internal/report"
)

// trials picks a trial count depending on quick mode.
func trials(cfg report.Config, full, quick int) int {
	if cfg.Quick {
		return quick
	}
	return full
}

// pick selects a sweep depending on quick mode.
func pick[T any](cfg report.Config, full, quick []T) []T {
	if cfg.Quick {
		return quick
	}
	return full
}

// cycleInstance builds (C_n, empty inputs, consecutive ids from start).
func cycleInstance(n int, start int64) *lang.Instance {
	return &lang.Instance{
		G:  graph.Cycle(n),
		X:  lang.EmptyInputs(n),
		ID: ids.ConsecutiveFrom(n, start),
	}
}

// selectedInstance marks the given nodes on g with consecutive ids.
func selectedInstance(g *graph.Graph, selected ...int) *lang.DecisionInstance {
	n := g.N()
	y := make([][]byte, n)
	for v := range y {
		y[v] = lang.EncodeSelected(false)
	}
	for _, v := range selected {
		y[v] = lang.EncodeSelected(true)
	}
	return &lang.DecisionInstance{G: g, X: lang.EmptyInputs(n), Y: lang.ColumnOf(y), ID: ids.Consecutive(n)}
}

// coloredInstance attaches 1-byte colors to g with consecutive ids.
func coloredInstance(g *graph.Graph, colors []int) *lang.DecisionInstance {
	n := g.N()
	y := make([][]byte, n)
	for v := 0; v < n; v++ {
		y[v] = lang.EncodeColor(colors[v])
	}
	return &lang.DecisionInstance{G: g, X: lang.EmptyInputs(n), Y: lang.ColumnOf(y), ID: ids.Consecutive(n)}
}

// plantedRingColoring returns a 3-coloring of C_n (n divisible by 6) with
// exactly 2*pairs bad balls.
func plantedRingColoring(n, pairs int) []int {
	colors := make([]int, n)
	for v := range colors {
		colors[v] = v % 3
	}
	for i := 0; i < pairs; i++ {
		colors[6*i+1] = colors[6*i]
	}
	return colors
}

// All registers nothing itself; experiments register in their init
// functions. The function forces linking of the package.
func All() []report.Experiment { return report.All() }
