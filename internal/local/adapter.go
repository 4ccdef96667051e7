package local

import (
	"fmt"

	"rlnc/internal/graph"
	"rlnc/internal/lang"
	"rlnc/internal/localrand"
)

// This file implements the two directions of the simulation argument of
// §2.1.1 ("an algorithm performing in t rounds in the LOCAL model can be
// viewed as an algorithm in which every node outputs after having
// inspected its t-neighborhood"):
//
//   - RunFullInfo runs a radius-t ViewAlgorithm as a message-passing
//     protocol of exactly t communication rounds that gossips node
//     records. The records are unbounded (whole neighborhoods, inputs,
//     tapes), which the LOCAL model allows (§2.1.1) but the engine's
//     fixed-width word contract does not, so the protocol runs on its
//     own synchronous loop. The reconstruction recovers B_G(v,t)
//     exactly — the frontier-edge exclusion in the ball definition is
//     precisely the information that cannot reach the center in t
//     rounds. One genuine model fact surfaces: the t-round view
//     determines which ball nodes are adjacent to a frontier node but
//     not the frontier node's own port numbering, so reconstructed
//     frontier ports are marked unknown (-1). Algorithms that need
//     frontier port order need radius t+1.
//
//   - MessageAsView turns a t-round WireAlgorithm into a ViewAlgorithm
//     of radius t+1 by simulating the execution inside the ball: all nodes
//     at distance <= t have their exact host degree and port order inside
//     B(v,t+1), and information from beyond distance t+1 cannot reach the
//     center within t rounds, so the center's simulated output equals its
//     output in the real execution. (The radius t+1 rather than t is the
//     standard folklore slack: frontier nodes of B(v,t) have truncated
//     degrees, which could alter their first-round messages.)

// basicRec is a node's round-1 self-announcement.
type basicRec struct {
	id    int64
	input []byte
	// tape is a pristine (position-zero) copy of the node's random tape,
	// or nil in deterministic executions. Shipping random bits is allowed
	// by §2.1.2.
	tape *localrand.Tape
}

// fullRec adds the node's neighbor identities in port order, known to the
// node itself only after round 1.
type fullRec struct {
	basicRec
	nbrs []int64
}

// gossip is the one value a node broadcasts in a round: in round 1 its
// own basic record, from round 2 on the full records and basic
// announcements it newly learned. Both waves are needed:
// the basic record of a node at distance d reaches the center at round d
// (self-announcement plus forwarding), while its full record — formed only
// after round 1 — arrives at round d+1. The center therefore knows basics
// of everything in B(v,t) and adjacency of everything at distance <= t-1,
// which is exactly the ball with frontier-frontier edges excluded.
type gossip struct {
	recs   []fullRec
	basics []basicRec
}

// RunFullInfo executes a ball-view algorithm as the t-round
// full-information protocol of §2.1.1 (t = algo.Radius()) and returns
// every node's output with the protocol's Stats. It is a synchronous
// gossip loop of its own rather than a WireAlgorithm: each round, every
// node reads the one value each neighbor broadcast in the previous round
// and broadcasts what it learned fresh, so no fixed-width encoding of
// whole neighborhoods is needed. Messages counts one per port of every
// broadcasting node per round; a zero-round algorithm reports 0 rounds
// and 0 messages. A nil draw runs the algorithm deterministically.
func RunFullInfo(in *lang.Instance, algo ViewAlgorithm, draw *localrand.Draw) *Result {
	g, t := in.G, algo.Radius()
	n := g.N()
	nodes := make([]fullInfoNode, n)
	sent := make([]*gossip, n)
	for v := range nodes {
		self := basicRec{id: in.ID[v], input: in.X[v]}
		if draw != nil {
			self.tape = draw.Tape(self.id)
		}
		nodes[v] = fullInfoNode{
			t:      t,
			self:   self,
			basics: map[int64]basicRec{self.id: self},
			recs:   make(map[int64]fullRec),
		}
		// Round 1: every node announces itself on all ports.
		sent[v] = &gossip{basics: []basicRec{self}}
	}
	res := &Result{Stats: Stats{Rounds: t}}
	next := make([]*gossip, n)
	for round := 1; round <= t; round++ {
		for v, m := range sent {
			if m != nil {
				res.Stats.Messages += int64(g.Degree(v))
			}
		}
		for v := range nodes {
			next[v] = nodes[v].receive(round, g.Neighbors(v), sent)
		}
		sent, next = next, sent
	}
	ys := make([][]byte, n)
	for v := range nodes {
		ys[v] = algo.Output(nodes[v].reconstruct())
	}
	res.Y = lang.ColumnOf(ys)
	return res
}

// fullInfoNode is one node's knowledge in the gossip loop: every basic
// and full record it has heard of, keyed by identity.
type fullInfoNode struct {
	t      int
	self   basicRec
	basics map[int64]basicRec
	recs   map[int64]fullRec
}

// receive folds the round's arrivals — sent[u] for each neighbor u, in
// port order — into p's knowledge and returns the gossip p broadcasts
// next round: the records that were new to it, or nil if none were. In
// round 1 the arrivals are the neighbors' self-announcements, which fix
// p's neighbor identities and so complete p's own full record.
func (p *fullInfoNode) receive(round int, nbrs []int32, sent []*gossip) *gossip {
	var fresh gossip
	var nbrIDs []int64
	if round == 1 {
		nbrIDs = make([]int64, len(nbrs))
	}
	for port, u := range nbrs {
		m := sent[u]
		if m == nil {
			continue
		}
		if round == 1 {
			nbrIDs[port] = m.basics[0].id
		}
		for _, b := range m.basics {
			if _, seen := p.basics[b.id]; !seen {
				p.basics[b.id] = b
				fresh.basics = append(fresh.basics, b)
			}
		}
		for _, r := range m.recs {
			if _, seen := p.recs[r.id]; !seen {
				p.recs[r.id] = r
				if _, haveBasic := p.basics[r.id]; !haveBasic {
					p.basics[r.id] = r.basicRec
				}
				fresh.recs = append(fresh.recs, r)
			}
		}
	}
	if round == 1 {
		own := fullRec{basicRec: p.self, nbrs: nbrIDs}
		p.recs[own.id] = own
		fresh.recs = []fullRec{own}
	}
	if len(fresh.recs) == 0 && len(fresh.basics) == 0 {
		return nil
	}
	return &fresh
}

// reconstruct rebuilds B_G(v,t) from the gathered records. After t rounds
// the node knows the basic records of every node at distance <= t and
// the full records (adjacency) of every node at distance <= t-1 — exactly
// the ball with frontier-frontier edges excluded.
func (p *fullInfoNode) reconstruct() *View {
	t := p.t
	// BFS over full records, expanding neighbor lists in port order. The
	// discovery order matches graph.BallAround's (both follow port order).
	order := []int64{p.self.id}
	dist := map[int64]int{p.self.id: 0}
	for i := 0; i < len(order); i++ {
		id := order[i]
		d := dist[id]
		if d >= t {
			continue
		}
		rec, ok := p.recs[id]
		if !ok {
			continue // frontier: adjacency unknown
		}
		for _, nb := range rec.nbrs {
			if _, seen := dist[nb]; !seen {
				dist[nb] = d + 1
				order = append(order, nb)
			}
		}
	}
	local := make(map[int64]int, len(order))
	for i, id := range order {
		local[id] = i
	}
	n := len(order)
	adj := make([][]int32, n)
	ports := make([][]int, n)
	// Interior nodes: adjacency from their own records, in port order.
	for i, id := range order {
		rec, ok := p.recs[id]
		if !ok {
			continue
		}
		for port, nb := range rec.nbrs {
			j, in := local[nb]
			if !in {
				continue // beyond the ball
			}
			if dist[id] == t && dist[nb] == t {
				continue // frontier-frontier exclusion (unreachable here, kept for clarity)
			}
			adj[i] = append(adj[i], int32(j))
			ports[i] = append(ports[i], port)
		}
	}
	// Frontier nodes (distance exactly t > 0): incident edges are known
	// from interior records; the frontier node's own port numbering is
	// not. List neighbors in ball order with unknown ports.
	for i, id := range order {
		if dist[id] != t || t == 0 {
			continue
		}
		if _, hasRec := p.recs[id]; hasRec {
			continue
		}
		for j, other := range order {
			rec, ok := p.recs[other]
			if !ok {
				continue
			}
			for _, nb := range rec.nbrs {
				if nb == id {
					adj[i] = append(adj[i], int32(j))
					ports[i] = append(ports[i], -1)
				}
			}
		}
	}
	g, err := graph.FromAdjacency(adj)
	if err != nil {
		panic(fmt.Sprintf("local: reconstructed ball invalid: %v", err))
	}
	hostless := make([]int, n)
	distArr := make([]int, n)
	idArr := make([]int64, n)
	xArr := make([][]byte, n)
	tapes := make([]*localrand.Tape, n)
	for i, id := range order {
		hostless[i] = -1 // host indices are unknowable in-model
		distArr[i] = dist[id]
		idArr[i] = id
		b := p.basics[id]
		xArr[i] = b.input
		tapes[i] = b.tape
	}
	ball := &graph.Ball{G: g, Nodes: hostless, Dist: distArr, Ports: ports, Radius: t}
	view := &View{Ball: ball, IDs: idArr, X: xArr}
	if p.self.tape != nil {
		view.TapeFor = func(l int) *localrand.Tape {
			if tapes[l] == nil {
				return nil
			}
			return tapes[l].Clone()
		}
	}
	return view
}

// MessageAsView adapts a fixed-round message-passing algorithm to the
// ball-view interface with radius rounds+1.
func MessageAsView(algo WireAlgorithm, rounds int) ViewAlgorithm {
	return &msgViewAlgo{inner: algo, rounds: rounds}
}

type msgViewAlgo struct {
	inner  WireAlgorithm
	rounds int
}

func (a *msgViewAlgo) Name() string { return fmt.Sprintf("simulate(%s)", a.inner.Name()) }

func (a *msgViewAlgo) Radius() int { return a.rounds + 1 }

func (a *msgViewAlgo) Output(v *View) []byte {
	// Run the message algorithm on the ball as a standalone network for
	// exactly `rounds` rounds and return the center's output. Identity
	// validation is skipped deliberately: ball identities are inherited
	// from a validated host instance.
	sub := &lang.Instance{G: v.Ball.G, X: v.X, ID: v.IDs}
	var tapeOf func(i int) *localrand.Tape
	if v.TapeFor != nil {
		tapeOf = func(i int) *localrand.Tape { return v.TapeFor(i) }
	}
	plan, err := NewPlan(sub.G)
	if err != nil {
		panic(fmt.Sprintf("local: ball simulation failed: %v", err))
	}
	if a.rounds == 0 {
		// Zero-round algorithms fix their output in the start pass;
		// whatever they stage for round 1 is never delivered, so only
		// the center starts.
		y, err := plan.NewBatch(1).startOutput(sub, a.inner, tapeOf, 0)
		if err != nil {
			panic(fmt.Sprintf("local: ball simulation failed: %v", err))
		}
		return y
	}
	res, err := plan.NewBatch(1).runWithTapes(sub, a.inner, tapeOf, RunOptions{StopAfter: a.rounds})
	if err != nil {
		panic(fmt.Sprintf("local: ball simulation failed: %v", err))
	}
	return res.Y.At(0)
}
