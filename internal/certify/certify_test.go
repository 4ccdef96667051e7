package certify

import (
	"testing"

	"rlnc/internal/graph"
	"rlnc/internal/ids"
	"rlnc/internal/lang"
)

func selDI(t testing.TB, g *graph.Graph, selected ...int) *lang.DecisionInstance {
	t.Helper()
	y := make([][]byte, g.N())
	for v := range y {
		y[v] = lang.EncodeSelected(false)
	}
	for _, v := range selected {
		y[v] = lang.EncodeSelected(true)
	}
	return &lang.DecisionInstance{G: g, X: lang.EmptyInputs(g.N()), Y: lang.ColumnOf(y), ID: ids.Consecutive(g.N())}
}

func TestAMOSSchemeCompleteness(t *testing.T) {
	graphs := []*graph.Graph{graph.Path(12), graph.Cycle(9), graph.Star(7), graph.CompleteTree(2, 3)}
	for gi, g := range graphs {
		for _, sel := range [][]int{{}, {0}, {g.N() - 1}, {g.N() / 2}} {
			di := selDI(t, g, sel...)
			ok, err := Completeness(di, AMOSScheme{})
			if err != nil {
				t.Fatalf("graph %d sel %v: %v", gi, sel, err)
			}
			if !ok {
				t.Errorf("graph %d sel %v: prover certificates rejected", gi, sel)
			}
		}
	}
}

func TestAMOSSchemeSoundness(t *testing.T) {
	// Two selected endpoints of a long path: amos is violated; no
	// certificate assignment may be accepted.
	g := graph.Path(20)
	di := selDI(t, g, 0, 19)
	fooling, err := SoundnessSearch(di, AMOSScheme{}, 3000, 10, 5)
	if err != nil {
		t.Fatal(err)
	}
	if fooling != nil {
		t.Fatalf("random certificates fooled the verifier: %v", fooling)
	}
	// The canonical attack: hand both leaders' ids as constants on their
	// own halves. The edge where the halves meet must reject.
	n := g.N()
	certs := make(Certificates, n)
	for v := 0; v < n; v++ {
		if v < n/2 {
			certs[v] = encodeID(di.ID[0])
		} else {
			certs[v] = encodeID(di.ID[n-1])
		}
	}
	if VerifyAll(di, AMOSScheme{}, certs) {
		t.Error("split-leader certificates accepted")
	}
	// A constant leader id also fails: one of the selected nodes is not it.
	for v := range certs {
		certs[v] = encodeID(di.ID[0])
	}
	if VerifyAll(di, AMOSScheme{}, certs) {
		t.Error("constant-leader certificates accepted despite two selected nodes")
	}
}

func TestAMOSSchemeRejectsGarbageCertificates(t *testing.T) {
	di := selDI(t, graph.Path(6), 2)
	certs := make(Certificates, 6)
	for v := range certs {
		certs[v] = []byte{1, 2} // wrong length
	}
	if VerifyAll(di, AMOSScheme{}, certs) {
		t.Error("malformed certificates accepted")
	}
}

func TestAMOSProveRejectsNonMembers(t *testing.T) {
	di := selDI(t, graph.Path(6), 1, 4)
	if _, err := (AMOSScheme{}).Prove(di); err == nil {
		t.Error("prover certified a non-member")
	}
}

func TestSpanningTreeLanguage(t *testing.T) {
	g := graph.Cycle(6)
	in := &lang.Instance{G: g, X: lang.EmptyInputs(6), ID: ids.Consecutive(6)}
	y, err := BuildBFSTreeOutputs(in, 0)
	if err != nil {
		t.Fatal(err)
	}
	stLang := SpanningTree{}
	ok, err := stLang.Contains(&lang.Config{G: g, X: in.X, Y: lang.ColumnOf(y)})
	if err != nil || !ok {
		t.Fatalf("BFS tree rejected: ok=%v err=%v", ok, err)
	}

	// Two roots: invalid.
	y2 := append([][]byte{}, y...)
	y2[3] = RootMark
	if ok, _ := stLang.Contains(&lang.Config{G: g, X: in.X, Y: lang.ColumnOf(y2)}); ok {
		t.Error("two roots accepted")
	}

	// No root: invalid.
	y3 := append([][]byte{}, y...)
	y3[0] = EncodeParentPort(0)
	if ok, _ := stLang.Contains(&lang.Config{G: g, X: in.X, Y: lang.ColumnOf(y3)}); ok {
		t.Error("rootless pointer structure accepted")
	}
}

func TestSpanningTreeCycleDetected(t *testing.T) {
	// On C4, make nodes 1,2,3 point around the cycle and node 0 the root,
	// but orient node 1's pointer to node 2, 2 to 3, and 3 back to 1:
	// a pointer cycle disconnected from the root.
	g := graph.Cycle(4) // ports: 0=succ, 1=pred
	y := [][]byte{
		RootMark,
		EncodeParentPort(0), // 1 -> 2
		EncodeParentPort(0), // 2 -> 3
		EncodeParentPort(1), // 3 -> 2?? port 1 of 3 is node 2
	}
	// 3's pred is 2: so 3 -> 2, and 2 -> 3: a 2-cycle.
	ok, err := (SpanningTree{}).Contains(&lang.Config{G: g, X: lang.EmptyInputs(4), Y: lang.ColumnOf(y)})
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Error("pointer cycle accepted by the language")
	}
}

func TestSpanningTreeSchemeCompleteness(t *testing.T) {
	for _, g := range []*graph.Graph{graph.Cycle(10), graph.CompleteTree(3, 3), graph.Grid(4, 4)} {
		in := &lang.Instance{G: g, X: lang.EmptyInputs(g.N()), ID: ids.RandomPerm(g.N(), 3)}
		y, err := BuildBFSTreeOutputs(in, g.N()/2)
		if err != nil {
			t.Fatal(err)
		}
		di := &lang.DecisionInstance{G: g, X: in.X, Y: lang.ColumnOf(y), ID: in.ID}
		ok, err := Completeness(di, SpanningTreeScheme{})
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			t.Errorf("%v: prover certificates rejected", g)
		}
	}
}

func TestSpanningTreeSchemeSoundnessOnCycle(t *testing.T) {
	// A pointer 2-cycle plus root cannot be certified: depth must drop
	// along pointers, which a cycle cannot sustain.
	g := graph.Cycle(4)
	y := [][]byte{
		RootMark,
		EncodeParentPort(0),
		EncodeParentPort(0),
		EncodeParentPort(1),
	}
	di := &lang.DecisionInstance{G: g, X: lang.EmptyInputs(4), Y: lang.ColumnOf(y), ID: ids.Consecutive(4)}
	fooling, err := SoundnessSearch(di, SpanningTreeScheme{}, 3000, 14, 7)
	if err != nil {
		t.Fatal(err)
	}
	if fooling != nil {
		t.Fatal("random certificates fooled the spanning-tree verifier")
	}
	// Structured attack: consistent root id everywhere with fabricated
	// depths; the 2-cycle {2,3} cannot have both depths one apart.
	certs := make(Certificates, 4)
	certs[0] = encodeRootDepth(1, 0)
	certs[1] = encodeRootDepth(1, 3)
	certs[2] = encodeRootDepth(1, 2)
	certs[3] = encodeRootDepth(1, 1)
	if VerifyAll(di, SpanningTreeScheme{}, certs) {
		t.Error("fabricated depths certified a pointer cycle")
	}
}

func TestSpanningTreeSchemeSoundnessTwoRoots(t *testing.T) {
	g := graph.Path(8)
	// Roots at both ends, pointers meeting in the middle.
	y := make([][]byte, 8)
	y[0] = RootMark
	y[7] = RootMark
	for v := 1; v <= 3; v++ {
		y[v] = EncodeParentPort(0) // toward node 0
	}
	for v := 4; v <= 6; v++ {
		y[v] = EncodeParentPort(1) // toward node 7
	}
	di := &lang.DecisionInstance{G: g, X: lang.EmptyInputs(8), Y: lang.ColumnOf(y), ID: ids.Consecutive(8)}
	if ok, _ := (SpanningTree{}).Contains(di.Config()); ok {
		t.Fatal("fixture error: two-root forest in language")
	}
	fooling, err := SoundnessSearch(di, SpanningTreeScheme{}, 3000, 14, 9)
	if err != nil {
		t.Fatal(err)
	}
	if fooling != nil {
		t.Fatal("random certificates certified a two-root forest")
	}
	// Root-id agreement attack: both halves claim their own root.
	certs := make(Certificates, 8)
	for v := 0; v <= 3; v++ {
		certs[v] = encodeRootDepth(di.ID[0], uint32(v))
	}
	for v := 4; v <= 7; v++ {
		certs[v] = encodeRootDepth(di.ID[7], uint32(7-v))
	}
	if VerifyAll(di, SpanningTreeScheme{}, certs) {
		t.Error("two-root certificates accepted: edge agreement broken")
	}
}

func TestBuildBFSTreeOutputsDisconnected(t *testing.T) {
	u := graph.DisjointUnion(graph.Path(3), graph.Path(3))
	in := &lang.Instance{G: u.G, X: lang.EmptyInputs(6), ID: ids.Consecutive(6)}
	if _, err := BuildBFSTreeOutputs(in, 0); err == nil {
		t.Error("disconnected graph certified as spanning tree")
	}
}

func TestVerifyAllShapeMismatch(t *testing.T) {
	di := selDI(t, graph.Path(4), 0)
	if VerifyAll(di, AMOSScheme{}, make(Certificates, 3)) {
		t.Error("certificate count mismatch accepted")
	}
}
