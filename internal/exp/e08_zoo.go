package exp

import (
	"fmt"

	"rlnc/internal/construct"
	"rlnc/internal/decide"
	"rlnc/internal/graph"
	"rlnc/internal/ids"
	"rlnc/internal/lang"
	"rlnc/internal/localrand"
	"rlnc/internal/report"
)

func init() { report.Register(e8{}) }

// e8 exercises the §2.2.2 taxonomy: LCL languages (weak coloring, MIS,
// maximal matching) are constructible by randomized algorithms and their
// canonical deterministic deciders accept exactly the valid outputs —
// the LD side of LD ⊆ BPLD.
type e8 struct{}

func (e8) ID() string    { return "E8" }
func (e8) Title() string { return "Constructible-and-decidable LCLs: MIS, matching, weak coloring" }
func (e8) PaperRef() string {
	return "§2.2.2 (decision/construction taxonomy; weak coloring as a constructible LCL)"
}

func (e e8) Run(cfg report.Config) (*report.Result, error) {
	res := &report.Result{}
	seeds := trials(cfg, 20, 4)
	space := localrand.NewTapeSpace(cfg.Seed ^ 0xE8)

	type task struct {
		name string
		algo construct.Algorithm
		l    lang.Language
		lcl  *lang.LCL
	}
	tasks := []task{
		{"mis", construct.LubyMISAlgorithm(), lang.MIS(), lang.MIS()},
		{"maximal-matching", construct.MaximalMatchingAlgorithm(), lang.MaximalMatching(), lang.MaximalMatching()},
		{"weak-2-coloring", construct.WeakColoringViaMIS(), lang.WeakColoring(2), lang.WeakColoring(2)},
	}
	graphs := []struct {
		name string
		g    *graph.Graph
	}{
		{"cycle-48", graph.Cycle(48)},
		{"tree-3-3", graph.CompleteTree(3, 3)},
		{"torus-5x5", graph.Torus(5, 5)},
	}
	if !cfg.Quick {
		if g, err := graph.RandomRegular(40, 4, cfg.Seed|1); err == nil {
			graphs = append(graphs, struct {
				name string
				g    *graph.Graph
			}{"4-regular-40", g})
		}
	}

	table := res.NewTable("E8: construction validity and decider agreement over random seeds",
		"task", "graph", "valid outputs", "decider agrees")
	allValid := true
	allAgree := true
	for _, tk := range tasks {
		dec := &decide.LCLDecider{L: tk.lcl}
		for _, gr := range graphs {
			valid, agree := 0, 0
			for s := 0; s < seeds; s++ {
				idAssign := ids.RandomPerm(gr.g.N(), cfg.Seed+uint64(s))
				in := &lang.Instance{G: gr.g, X: lang.EmptyInputs(gr.g.N()), ID: idAssign}
				draw := space.Draw(uint64(s))
				y, err := tk.algo.Run(in, &draw)
				if err != nil {
					return nil, fmt.Errorf("e8: %s on %s: %w", tk.name, gr.name, err)
				}
				cfg := &lang.Config{G: in.G, X: in.X, Y: y}
				ok, err := tk.l.Contains(cfg)
				if err != nil {
					return nil, err
				}
				if ok {
					valid++
				}
				di := &lang.DecisionInstance{G: in.G, X: in.X, Y: y, ID: in.ID}
				if (decide.Exec{}).Accepts([]*lang.DecisionInstance{di}, dec, nil)[0] == ok {
					agree++
				}
			}
			table.AddRow(tk.name, gr.name,
				fmt.Sprintf("%d/%d", valid, seeds), fmt.Sprintf("%d/%d", agree, seeds))
			if valid != seeds {
				allValid = false
			}
			if agree != seeds {
				allAgree = false
			}
		}
	}
	table.AddNote("weak 2-coloring via the MIS reduction replaces the Naor–Stockmeyer odd-degree construction (DESIGN.md)")

	res.AddCheck("every construction run is valid", allValid, "all seeds, all graphs, all tasks")
	res.AddCheck("canonical LCL decider decides exactly", allAgree,
		"decider acceptance equals language membership on every run")
	return res, nil
}
