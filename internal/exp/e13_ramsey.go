package exp

import (
	"fmt"

	"rlnc/internal/graph"
	"rlnc/internal/ids"
	"rlnc/internal/lang"
	"rlnc/internal/local"
	"rlnc/internal/orderinv"
	"rlnc/internal/report"
)

func init() { report.Register(e13{}) }

// e13 reproduces Claim 1 / Appendix A computationally: for each
// identity-sensitive test algorithm, the finite Ramsey extraction finds a
// set U over which outputs depend only on identity order; the simulation
// A' built from U is verifiably order-invariant and agrees with A on
// instances whose identities come from U. The inventory numbers ν and
// N = Σ nᵢ! of the proof of Claim 2 are reported alongside.
type e13 struct{}

func (e13) ID() string { return "E13" }
func (e13) Title() string {
	return "Claim 1 / Appendix A: Ramsey extraction and the order-invariant simulation"
}
func (e13) PaperRef() string {
	return "Claim 1 (from [3]) and Appendix A; ball census of Claim 2"
}

// Identity-sensitive test algorithms (radius 1 on the ring family).
type maxParity struct{}

func (maxParity) Name() string { return "max-id-parity" }
func (maxParity) Radius() int  { return 1 }
func (maxParity) Output(v *local.View) []byte {
	max := v.IDs[0]
	for _, id := range v.IDs {
		if id > max {
			max = id
		}
	}
	return []byte{byte(max % 2)}
}

type centerMod3 struct{}

func (centerMod3) Name() string { return "center-id-mod-3" }
func (centerMod3) Radius() int  { return 1 }
func (centerMod3) Output(v *local.View) []byte {
	return []byte{byte(v.IDs[0] % 3)}
}

type thresholdAlgo struct{}

func (thresholdAlgo) Name() string { return "id-threshold-100" }
func (thresholdAlgo) Radius() int  { return 1 }
func (thresholdAlgo) Output(v *local.View) []byte {
	if v.IDs[0] > 100 {
		return []byte{1}
	}
	return []byte{0}
}

func (e e13) Run(cfg report.Config) (*report.Result, error) {
	res := &report.Result{}

	// Inventory census (the finite numbers behind Claim 2).
	ti := res.NewTable("E13a: ring ball inventory (radius t)",
		"t", "ν (shapes)", "N = Σ nᵢ! (ordered balls)", "β = 1/N", "order-invariant algorithms with q=3")
	radii := pick(cfg, []int{1, 2}, []int{1})
	for _, t := range radii {
		inv, err := orderinv.RingInventory(t)
		if err != nil {
			return nil, err
		}
		count := fmt.Sprintf("3^%d", inv.OrderedBalls)
		ti.AddRow(t, inv.Nu, inv.OrderedBalls, fmt.Sprintf("%.2e", inv.Beta()), count)
	}

	// Extraction per algorithm.
	inv, err := orderinv.RingInventory(1)
	if err != nil {
		return nil, err
	}
	te := res.NewTable("E13b: Ramsey extraction (radius 1, |U| = 8, pool ≤ 120)",
		"algorithm", "|U|", "U prefix", "evaluations", "A' order-invariant", "A' = A on U-instances")
	algos := []local.ViewAlgorithm{maxParity{}, centerMod3{}, thresholdAlgo{}}
	allInvariant := true
	allAgree := true
	for _, a := range algos {
		ext, err := orderinv.Extract(a, inv, 8, 120)
		if err != nil {
			return nil, fmt.Errorf("e13: extraction for %s: %w", a.Name(), err)
		}
		sim := &orderinv.Simulation{Inner: a, U: ext.U}
		invErr := orderinv.CheckInvarianceRandom(sim, graph.Cycle(8), 4, cfg.Seed^0x13)
		if invErr != nil {
			allInvariant = false
		}
		// Agreement on an instance with identities drawn from U.
		agree := true
		g := graph.Cycle(8)
		idAssign := ids.FromSlice(ext.U[:8])
		in := &lang.Instance{G: g, X: lang.EmptyInputs(8), ID: idAssign}
		ya := local.RunView(in, a, nil)
		yb := local.RunView(in, sim, nil)
		for v := range ya.Len() {
			if string(ya.At(v)) != string(yb.At(v)) {
				agree = false
			}
		}
		if !agree {
			allAgree = false
		}
		prefix := fmt.Sprint(ext.U[:min(4, len(ext.U))])
		te.AddRow(a.Name(), len(ext.U), prefix+"…", ext.Evaluations, invErr == nil, agree)
	}
	te.AddNote("the finite pool substitutes the countably infinite Ramsey universe; A' only ever reads the smallest |ball| values of U")

	// Exhaustive Claim 2 premise at radius 1: every one of the q^N
	// order-invariant algorithms fails on some ring instance.
	tc := res.NewTable("E13c: exhaustive Claim 2 premise — all q^6 order-invariant radius-1 ring algorithms fail",
		"palette q", "algorithms q^N", "with counterexample", "counterexamples at C_3", "at C_4")
	claim2OK := true
	for _, q := range pick(cfg, []int{2, 3}, []int{3}) {
		rep2, err := orderinv.VerifyClaim2Radius1(q, 8)
		if err != nil {
			return nil, err
		}
		tc.AddRow(q, rep2.Algorithms, rep2.Failures, rep2.BySize[3], rep2.BySize[4])
		if rep2.Failures != rep2.Algorithms {
			claim2OK = false
		}
	}
	tc.AddNote("the Section 4 collision (equal interior patterns on consecutive identities) defeats everything by C_4")

	res.AddCheck("extraction succeeds for every test algorithm", true,
		"greedy consistency search found |U| = 8 within the pool")
	res.AddCheck("A' passes the order-invariance property test", allInvariant,
		"outputs unchanged under order-preserving identity remaps")
	res.AddCheck("A' agrees with A on U-instances", allAgree,
		"node-for-node equality when identities are drawn from U")
	res.AddCheck("Claim 2 premise exhaustive at radius 1", claim2OK,
		"every enumerated order-invariant algorithm has a failing ring instance")
	return res, nil
}
