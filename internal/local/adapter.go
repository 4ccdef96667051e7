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
//   - FullInfo turns a radius-t ViewAlgorithm into a WireAlgorithm that
//     runs in exactly t communication rounds by gossiping node records.
//     The reconstruction recovers B_G(v,t) exactly — the frontier-edge
//     exclusion in the ball definition is precisely the information that
//     cannot reach the center in t rounds. One genuine model fact
//     surfaces: the t-round view determines which ball nodes are adjacent
//     to a frontier node but not the frontier node's own port numbering,
//     so reconstructed frontier ports are marked unknown (-1). Algorithms
//     that need frontier port order need radius t+1.
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

// gossip is the message exchanged from round 2 on: newly learned full
// records and newly learned basic announcements. Both waves are needed:
// the basic record of a node at distance d reaches the center at round d
// (self-announcement plus forwarding), while its full record — formed only
// after round 1 — arrives at round d+1. The center therefore knows basics
// of everything in B(v,t) and adjacency of everything at distance <= t-1,
// which is exactly the ball with frontier-frontier edges excluded.
type gossip struct {
	recs   []fullRec
	basics []basicRec
}

// FullInfo adapts a ball-view algorithm to the message-passing interface.
//
// The returned algorithm is a WireAlgorithm whose payloads travel by
// reference through the engine's ref slab rather than as slab words: the
// gossip records of a full-information protocol are unbounded (whole
// neighborhoods, inputs, tapes), so a fixed-width encoding would have to
// reserve worst-case ball-sized capacity on every directed slot. One
// gossip record fanned out to every port is a single shared value. It is
// the only algorithm on the ref lane, and the lane is in-process only:
// over a byte-stream shard link its runs fail with ErrRefsNotPortable.
func FullInfo(algo ViewAlgorithm) WireAlgorithm {
	return &fullInfoAlgo{inner: algo}
}

type fullInfoAlgo struct{ inner ViewAlgorithm }

func (a *fullInfoAlgo) Name() string { return fmt.Sprintf("full-info(%s)", a.inner.Name()) }

// MsgWords implements WireAlgorithm: gossip occupies no slab words.
func (a *fullInfoAlgo) MsgWords(int) int { return 0 }

// wireRefs marks the gossip payloads as ref-slab traffic.
func (a *fullInfoAlgo) wireRefs() {}

// NewWireProcess implements WireAlgorithm.
func (a *fullInfoAlgo) NewWireProcess() WireProcess {
	return &fullInfoProc{algo: a.inner, t: a.inner.Radius()}
}

type fullInfoProc struct {
	algo ViewAlgorithm
	t    int

	info       NodeInfo
	nbrIDs     []int64 // learned in round 1, port order
	basics     map[int64]basicRec
	recs       map[int64]fullRec
	pendRecs   []fullRec  // full records to forward next round
	pendBasics []basicRec // basic records to forward next round
	output     []byte
}

func (p *fullInfoProc) Start(info NodeInfo, out *Outbox) {
	p.info = info
	p.basics = make(map[int64]basicRec)
	p.recs = make(map[int64]fullRec)
	var pristine *localrand.Tape
	if info.Tape != nil {
		pristine = info.Tape.Clone()
	}
	p.basics[info.ID] = basicRec{id: info.ID, input: info.Input, tape: pristine}
	if p.t == 0 {
		return
	}
	// Round 1: announce self to all ports (one record, shared).
	self := Message(p.basics[info.ID])
	for port := 0; port < info.Degree; port++ {
		out.sendRef(port, self)
	}
}

func (p *fullInfoProc) Step(round int, in *Inbox, out *Outbox) bool {
	if p.t == 0 {
		p.output = p.algo.Output(p.reconstruct())
		return true
	}
	if round == 1 {
		// Learn neighbor identities; own record becomes complete.
		p.nbrIDs = make([]int64, in.Degree())
		p.pendBasics = nil
		for port := range p.nbrIDs {
			b, ok := in.ref(port).(basicRec)
			if !ok {
				panic("local: full-info adapter received foreign message")
			}
			p.nbrIDs[port] = b.id
			p.basics[b.id] = b
			p.pendBasics = append(p.pendBasics, b)
		}
		self := fullRec{basicRec: p.basics[p.info.ID], nbrs: p.nbrIDs}
		p.recs[p.info.ID] = self
		p.pendRecs = []fullRec{self}
	} else {
		var freshRecs []fullRec
		var freshBasics []basicRec
		for port := 0; port < in.Degree(); port++ {
			m := in.ref(port)
			if m == nil {
				continue
			}
			g, ok := m.(gossip)
			if !ok {
				panic("local: full-info adapter received foreign message")
			}
			for _, b := range g.basics {
				if _, seen := p.basics[b.id]; !seen {
					p.basics[b.id] = b
					freshBasics = append(freshBasics, b)
				}
			}
			for _, r := range g.recs {
				if _, seen := p.recs[r.id]; !seen {
					p.recs[r.id] = r
					if _, haveBasic := p.basics[r.id]; !haveBasic {
						p.basics[r.id] = r.basicRec
					}
					freshRecs = append(freshRecs, r)
				}
			}
		}
		p.pendRecs = freshRecs
		p.pendBasics = freshBasics
	}
	if round == p.t {
		p.output = p.algo.Output(p.reconstruct())
		return true
	}
	// Flood the newly learned records (one gossip value, shared).
	if len(p.pendRecs) > 0 || len(p.pendBasics) > 0 {
		g := Message(gossip{recs: p.pendRecs, basics: p.pendBasics})
		for port := 0; port < p.info.Degree; port++ {
			out.sendRef(port, g)
		}
	}
	return false
}

func (p *fullInfoProc) Output() []byte { return p.output }

// reconstruct rebuilds B_G(v,t) from the gathered records. After t rounds
// the process knows the basic records of every node at distance <= t and
// the full records (adjacency) of every node at distance <= t-1 — exactly
// the ball with frontier-frontier edges excluded.
func (p *fullInfoProc) reconstruct() *View {
	t := p.t
	// BFS over full records, expanding neighbor lists in port order. The
	// discovery order matches graph.BallAround's (both follow port order).
	order := []int64{p.info.ID}
	dist := map[int64]int{p.info.ID: 0}
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
	if p.info.Tape != nil {
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
	if a.rounds == 0 {
		// Zero-round algorithms fix their output in Start; whatever they
		// stage for round 1 is never delivered.
		proc := a.inner.NewWireProcess()
		info := NodeInfo{ID: v.IDs[0], Degree: v.Degree(), Input: v.X[0]}
		if v.TapeFor != nil {
			info.Tape = v.TapeFor(0)
		}
		out, _ := NewLoopback(info.Degree, a.inner.MsgWords(info.Degree))
		proc.Start(info, out)
		return proc.Output()
	}
	// Run the message algorithm on the ball as a standalone network for
	// exactly `rounds` rounds and return the center's output. Identity
	// validation is skipped deliberately: ball identities are inherited
	// from a validated host instance.
	sub := &lang.Instance{G: v.Ball.G, X: v.X, ID: v.IDs}
	var tapeOf func(i int) *localrand.Tape
	if v.TapeFor != nil {
		tapeOf = func(i int) *localrand.Tape { return v.TapeFor(i) }
	}
	res, err := runCore(sub, a.inner, tapeOf, RunOptions{StopAfter: a.rounds})
	if err != nil {
		panic(fmt.Sprintf("local: ball simulation failed: %v", err))
	}
	return res.Y[0]
}
