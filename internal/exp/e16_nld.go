package exp

import (
	"rlnc/internal/certify"
	"rlnc/internal/decide"
	"rlnc/internal/graph"
	"rlnc/internal/ids"
	"rlnc/internal/lang"
	"rlnc/internal/local"
	"rlnc/internal/report"
)

func init() { report.Register(e16{}) }

// e16 explores the §5 frontier: the classes NLD/BPNLD of locally
// VERIFIABLE languages, which the paper names as the natural candidates
// for extending Theorem 1 beyond BPLD. Two proof-labeling schemes are
// exercised: leader certificates place amos in NLD — while E9 shows
// amos ∉ LD, so LD ⊊ NLD is exhibited computationally — and
// (rootID, depth) certificates verify spanning trees, whose pointer
// cycles are locally invisible without certificates. The §5 obstacle
// ("certificates may change radically when instances are glued") is
// visible in both schemes: their certificates encode global information
// (a leader identity, a global root and depth).
type e16 struct{}

func (e16) ID() string { return "E16" }
func (e16) Title() string {
	return "NLD frontier: certificates make amos and spanning trees verifiable"
}
func (e16) PaperRef() string {
	return "§5 open problems (NLD, BPNLD; certificates vs gluing)"
}

func (e e16) Run(cfg report.Config) (*report.Result, error) {
	res := &report.Result{}
	attempts := trials(cfg, 4000, 400)

	// (a) amos ∈ NLD.
	ta := res.NewTable("E16a: amos leader-certificate scheme (radius 1)",
		"graph", "selected", "in amos", "prover accepted", "soundness search fooled")
	amosOK := true
	graphs := []struct {
		name string
		g    *graph.Graph
	}{
		{"path-16", graph.Path(16)},
		{"cycle-12", graph.Cycle(12)},
		{"tree-2-3", graph.CompleteTree(2, 3)},
	}
	if cfg.Quick {
		graphs = graphs[:2]
	}
	for _, gr := range graphs {
		for _, sel := range [][]int{{}, {0}, {0, gr.g.N() - 1}} {
			di := mkSelected(gr.g, sel)
			inL, err := (lang.AMOS{}).Contains(di.Config())
			if err != nil {
				return nil, err
			}
			if inL {
				ok, err := certify.Completeness(di, certify.AMOSScheme{})
				if err != nil {
					return nil, err
				}
				ta.AddRow(gr.name, len(sel), inL, ok, "-")
				if !ok {
					amosOK = false
				}
			} else {
				fooling, err := certify.SoundnessSearch(di, certify.AMOSScheme{}, attempts, 10, cfg.Seed^0x16)
				if err != nil {
					return nil, err
				}
				ta.AddRow(gr.name, len(sel), inL, "-", fooling != nil)
				if fooling != nil {
					amosOK = false
				}
			}
		}
	}
	ta.AddNote("with E9 (amos ∉ LD), this exhibits LD ⊊ NLD — the frontier §5 points at")

	// (b) Spanning trees are certifiable; pointer cycles are not.
	tb := res.NewTable("E16b: spanning-tree certification",
		"graph", "instance", "in language", "prover accepted", "soundness search fooled")
	stOK := true
	for _, gr := range []struct {
		name string
		g    *graph.Graph
	}{
		{"cycle-10", graph.Cycle(10)},
		{"grid-4x4", graph.Grid(4, 4)},
	} {
		in := &lang.Instance{G: gr.g, X: lang.EmptyInputs(gr.g.N()), ID: ids.RandomPerm(gr.g.N(), cfg.Seed|1)}
		y, err := certify.BuildBFSTreeOutputs(in, 0)
		if err != nil {
			return nil, err
		}
		di := &lang.DecisionInstance{G: gr.g, X: in.X, Y: lang.ColumnOf(y), ID: in.ID}
		ok, err := certify.Completeness(di, certify.SpanningTreeScheme{})
		if err != nil {
			return nil, err
		}
		tb.AddRow(gr.name, "BFS tree", true, ok, "-")
		if !ok {
			stOK = false
		}
		// Corrupt: second root.
		y2 := append([][]byte{}, y...)
		y2[gr.g.N()-1] = certify.RootMark
		di2 := &lang.DecisionInstance{G: gr.g, X: in.X, Y: lang.ColumnOf(y2), ID: in.ID}
		inL, _ := (certify.SpanningTree{}).Contains(di2.Config())
		fooling, err := certify.SoundnessSearch(di2, certify.SpanningTreeScheme{}, attempts, 14, cfg.Seed^0x61)
		if err != nil {
			return nil, err
		}
		tb.AddRow(gr.name, "two roots", inL, "-", fooling != nil)
		if inL || fooling != nil {
			stOK = false
		}
	}
	tb.AddNote("certificates carry global data (leader id, root id + depth): exactly what the §5 gluing obstacle disturbs")

	// (c) Contrast: the deterministic fooling of E9 still applies to any
	// certificate-free decider.
	rep, err := decide.AMOSFooling(naiveCountDecider{t: 2}, 8)
	if err != nil {
		return nil, err
	}
	res.AddCheck("amos certifiable (completeness + soundness search)", amosOK,
		"leader certificates verified on every family, never fooled")
	res.AddCheck("spanning trees certifiable; corruptions rejected", stOK,
		"BFS trees certified; two-root instances never certified")
	res.AddCheck("certificate-free deciders remain fooled (LD ⊊ NLD)", rep.Fails,
		"the E9 fooling argument still defeats deterministic deciders without certificates")
	return res, nil
}

// mkSelected builds a selection decision instance with consecutive ids.
func mkSelected(g *graph.Graph, selected []int) *lang.DecisionInstance {
	y := make([][]byte, g.N())
	for v := range y {
		y[v] = lang.EncodeSelected(false)
	}
	for _, v := range selected {
		y[v] = lang.EncodeSelected(true)
	}
	return &lang.DecisionInstance{G: g, X: lang.EmptyInputs(g.N()), Y: lang.ColumnOf(y), ID: ids.Consecutive(g.N())}
}

// naiveCountDecider duplicates E9's natural decider for the contrast row.
type naiveCountDecider struct{ t int }

func (d naiveCountDecider) Name() string { return "naive-count" }
func (d naiveCountDecider) Radius() int  { return d.t }
func (d naiveCountDecider) Verdict(v *local.View) bool {
	count := 0
	for _, y := range v.Y {
		if sel, err := lang.DecodeSelected(y); err == nil && sel {
			count++
		}
	}
	return count <= 1
}
