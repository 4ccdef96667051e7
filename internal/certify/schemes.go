package certify

import (
	"encoding/binary"

	"rlnc/internal/lang"
	"rlnc/internal/local"
)

// AMOSScheme certifies membership in amos ("at most one selected",
// §2.3.1) with one-round verification: every node's certificate names the
// claimed selected node ("leader"); the verifier checks that all
// neighbors name the same leader and that a selected center is the named
// leader itself.
//
//   - Completeness: with s selected, certify L ≡ id(s) everywhere; with
//     none, any constant works.
//   - Soundness: on a connected graph, edge-agreement forces one global
//     value L*, and two selected nodes cannot both equal L*.
//
// amos is not in LD (experiment E9 defeats every deterministic decider),
// so this scheme witnesses LD ⊊ NLD — the §5 frontier.
type AMOSScheme struct{}

// Name implements Scheme.
func (AMOSScheme) Name() string { return "amos-leader-certificates" }

// Radius implements Scheme.
func (AMOSScheme) Radius() int { return 1 }

func encodeID(id int64) []byte {
	out := make([]byte, 8)
	binary.BigEndian.PutUint64(out, uint64(id))
	return out
}

func decodeID(c []byte) (int64, bool) {
	if len(c) != 8 {
		return 0, false
	}
	return int64(binary.BigEndian.Uint64(c)), true
}

// Prove implements Scheme.
func (AMOSScheme) Prove(di *lang.DecisionInstance) (Certificates, error) {
	inLang, err := (lang.AMOS{}).Contains(di.Config())
	if err != nil {
		return nil, err
	}
	if !inLang {
		return nil, ErrNotInLanguage
	}
	leader := int64(1) // arbitrary when nothing is selected
	for v := 0; v < di.G.N(); v++ {
		if sel, err := lang.DecodeSelected(di.Y.At(v)); err == nil && sel {
			leader = di.ID[v]
		}
	}
	certs := make(Certificates, di.G.N())
	for v := range certs {
		certs[v] = encodeID(leader)
	}
	return certs, nil
}

// Verify implements Scheme.
func (AMOSScheme) Verify(v *local.View, certs [][]byte) bool {
	own, ok := decodeID(certs[0])
	if !ok {
		return false
	}
	for _, u := range v.Ball.G.Neighbors(0) {
		nb, ok := decodeID(certs[u])
		if !ok || nb != own {
			return false
		}
	}
	if sel, err := lang.DecodeSelected(v.Y[0]); err == nil && sel {
		return own == v.IDs[0]
	}
	return true
}

// --- Spanning tree certification -----------------------------------------

// RootMark is the output of the root node in the spanning-tree language;
// all other nodes output the host port of their parent edge.
var RootMark = []byte{0xFE}

// EncodeParentPort encodes a tree output.
func EncodeParentPort(port int) []byte { return []byte{byte(port)} }

// decodeTreeOutput splits outputs into (isRoot, parentPort).
func decodeTreeOutput(y []byte) (isRoot bool, port int, ok bool) {
	if len(y) != 1 {
		return false, 0, false
	}
	if y[0] == RootMark[0] {
		return true, 0, true
	}
	return false, int(y[0]), true
}

// SpanningTree is the distributed language "the parent pointers form a
// spanning tree with a unique root". It is a global specification (a
// pointer cycle is locally invisible), the classic target of proof
// labeling schemes [20].
type SpanningTree struct{}

// Name implements lang.Language.
func (SpanningTree) Name() string { return "spanning-tree" }

// Contains implements lang.Language.
func (SpanningTree) Contains(c *lang.Config) (bool, error) {
	if err := c.Validate(); err != nil {
		return false, err
	}
	n := c.G.N()
	parent := make([]int, n)
	root := -1
	for v := 0; v < n; v++ {
		isRoot, port, ok := decodeTreeOutput(c.Y.At(v))
		if !ok {
			return false, nil
		}
		if isRoot {
			if root != -1 {
				return false, nil // two roots
			}
			root = v
			parent[v] = -1
			continue
		}
		if port >= c.G.Degree(v) {
			return false, nil
		}
		parent[v] = c.G.Neighbor(v, port)
	}
	if root == -1 {
		return false, nil
	}
	// Every node must reach the root without cycling.
	for v := 0; v < n; v++ {
		seen := 0
		u := v
		for u != root {
			u = parent[u]
			seen++
			if seen > n {
				return false, nil // pointer cycle
			}
		}
	}
	return true, nil
}

// SpanningTreeScheme certifies SpanningTree with (rootID, depth)
// certificates: depth decreases by exactly one along parent pointers, so
// pointer cycles cannot be certified, and root-identity agreement across
// every edge pins a unique root.
type SpanningTreeScheme struct{}

// Name implements Scheme.
func (SpanningTreeScheme) Name() string { return "spanning-tree-certificates" }

// Radius implements Scheme.
func (SpanningTreeScheme) Radius() int { return 1 }

func encodeRootDepth(root int64, depth uint32) []byte {
	out := make([]byte, 12)
	binary.BigEndian.PutUint64(out[:8], uint64(root))
	binary.BigEndian.PutUint32(out[8:], depth)
	return out
}

func decodeRootDepth(c []byte) (root int64, depth uint32, ok bool) {
	if len(c) != 12 {
		return 0, 0, false
	}
	return int64(binary.BigEndian.Uint64(c[:8])), binary.BigEndian.Uint32(c[8:]), true
}

// Prove implements Scheme.
func (SpanningTreeScheme) Prove(di *lang.DecisionInstance) (Certificates, error) {
	inLang, err := (SpanningTree{}).Contains(di.Config())
	if err != nil {
		return nil, err
	}
	if !inLang {
		return nil, ErrNotInLanguage
	}
	n := di.G.N()
	parent := make([]int, n)
	root := -1
	for v := 0; v < n; v++ {
		isRoot, port, _ := decodeTreeOutput(di.Y.At(v))
		if isRoot {
			root = v
			parent[v] = -1
		} else {
			parent[v] = di.G.Neighbor(v, port)
		}
	}
	depth := make([]uint32, n)
	var depthOf func(v int) uint32
	memo := make([]bool, n)
	depthOf = func(v int) uint32 {
		if v == root {
			return 0
		}
		if memo[v] {
			return depth[v]
		}
		depth[v] = depthOf(parent[v]) + 1
		memo[v] = true
		return depth[v]
	}
	certs := make(Certificates, n)
	rootID := di.ID[root]
	for v := 0; v < n; v++ {
		certs[v] = encodeRootDepth(rootID, depthOf(v))
	}
	return certs, nil
}

// Verify implements Scheme.
func (SpanningTreeScheme) Verify(v *local.View, certs [][]byte) bool {
	root, depth, ok := decodeRootDepth(certs[0])
	if !ok {
		return false
	}
	// Root-identity agreement across every incident edge.
	for _, u := range v.Ball.G.Neighbors(0) {
		r, _, ok := decodeRootDepth(certs[u])
		if !ok || r != root {
			return false
		}
	}
	isRoot, port, ok := decodeTreeOutput(v.Y[0])
	if !ok {
		return false
	}
	if isRoot {
		return depth == 0 && root == v.IDs[0]
	}
	if depth == 0 {
		return false // only the root certifies depth zero
	}
	// The parent (through the claimed host port) must be one step closer.
	for j, hostPort := range v.Ball.Ports[0] {
		if hostPort == port {
			p := int(v.Ball.G.Neighbors(0)[j])
			_, pd, ok := decodeRootDepth(certs[p])
			return ok && pd == depth-1
		}
	}
	return false // claimed port does not exist
}

// BuildBFSTreeOutputs constructs a valid spanning-tree output for a
// connected instance: a BFS tree rooted at the given node, with outputs
// in the port encoding. Useful for tests and examples.
func BuildBFSTreeOutputs(di *lang.Instance, root int) ([][]byte, error) {
	n := di.G.N()
	dist := di.G.BFSFrom(root)
	y := make([][]byte, n)
	for v := 0; v < n; v++ {
		if v == root {
			y[v] = RootMark
			continue
		}
		if dist[v] < 0 {
			return nil, ErrNotInLanguage // disconnected
		}
		assigned := false
		for port, w := range di.G.Neighbors(v) {
			if dist[w] == dist[v]-1 {
				y[v] = EncodeParentPort(port)
				assigned = true
				break
			}
		}
		if !assigned {
			return nil, ErrNotInLanguage
		}
	}
	return y, nil
}
