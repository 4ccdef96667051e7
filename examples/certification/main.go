// Certification: the NLD frontier of the paper's open problems (§5).
// amos cannot be DECIDED deterministically in O(1) rounds (see
// examples/amos), but it can be VERIFIED in one round when nodes carry
// certificates — here, the identity of the claimed selected node. The
// example certifies legal configurations, then shows that no certificate
// assignment (prover-crafted or adversarial) convinces the verifier on an
// illegal one; the same is done for spanning trees, whose pointer cycles
// are invisible to certificate-free local checking.
package main

import (
	"fmt"
	"log"

	"rlnc/internal/certify"
	"rlnc/internal/graph"
	"rlnc/internal/ids"
	"rlnc/internal/lang"
)

func main() {
	// --- amos ∈ NLD -----------------------------------------------------
	g := graph.Path(20)
	mk := func(selected ...int) *lang.DecisionInstance {
		y := make([][]byte, g.N())
		for v := range y {
			y[v] = lang.EncodeSelected(false)
		}
		for _, v := range selected {
			y[v] = lang.EncodeSelected(true)
		}
		return &lang.DecisionInstance{G: g, X: lang.EmptyInputs(g.N()), Y: lang.ColumnOf(y), ID: ids.Consecutive(g.N())}
	}

	one := mk(7)
	ok, err := certify.Completeness(one, certify.AMOSScheme{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("amos, one selected:  certified = %v (leader certificates, radius 1)\n", ok)

	two := mk(0, 19)
	fooling, err := certify.SoundnessSearch(two, certify.AMOSScheme{}, 5000, 10, 42)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("amos, two selected:  fooled by %d random certificate assignments = %v\n",
		5000, fooling != nil)

	// --- spanning trees -------------------------------------------------
	torus := graph.Torus(4, 4)
	in := &lang.Instance{G: torus, X: lang.EmptyInputs(16), ID: ids.RandomPerm(16, 3)}
	y, err := certify.BuildBFSTreeOutputs(in, 5)
	if err != nil {
		log.Fatal(err)
	}
	di := &lang.DecisionInstance{G: torus, X: in.X, Y: lang.ColumnOf(y), ID: in.ID}
	ok, err = certify.Completeness(di, certify.SpanningTreeScheme{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nspanning tree on 4x4 torus: certified = %v ((rootID, depth) certificates)\n", ok)

	// Corrupt the tree with a second root and attack.
	y[12] = certify.RootMark
	bad := &lang.DecisionInstance{G: torus, X: in.X, Y: lang.ColumnOf(y), ID: in.ID}
	inLang, _ := (certify.SpanningTree{}).Contains(bad.Config())
	fooling, err = certify.SoundnessSearch(bad, certify.SpanningTreeScheme{}, 5000, 14, 43)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("two-root corruption:        in language = %v, verifier fooled = %v\n",
		inLang, fooling != nil)

	fmt.Println("\ncertificates carry global data (a leader id, a root id and depth);")
	fmt.Println("§5 of the paper observes that gluing instances — the engine of Theorem 1 —")
	fmt.Println("invalidates exactly this kind of information, which is why extending the")
	fmt.Println("derandomization theorem to NLD/BPNLD remains open.")
}
