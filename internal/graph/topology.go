package graph

import "fmt"

// Topology is the CSR-flattened form of a graph's port-numbered adjacency
// together with the reverse-edge table used by synchronous message
// delivery. Node v owns the directed slots Offsets[v]..Offsets[v+1]; slot
// Offsets[v]+p corresponds to v's port p.
//
// RevSlot is the delivery wiring of the LOCAL model: the message v sends
// on port p arrives at the neighbor across that port on the port
// identified by RevSlot. Concretely, RevSlot[Offsets[v]+p] is the slot of
// the reverse directed edge (w → v, where w = Nbrs[Offsets[v]+p]), so a
// round of delivery is one gather: recv[s] = send[RevSlot[s]].
//
// A Topology is immutable and shared; callers must not modify the slices.
type Topology struct {
	Offsets []int32 // len N()+1, cumulative degrees
	Nbrs    []int32 // len 2*M(), neighbors in port order
	RevSlot []int32 // len 2*M(), slot of the reverse directed edge
}

// NumNodes returns the number of nodes.
func (t *Topology) NumNodes() int { return len(t.Offsets) - 1 }

// NumSlots returns the number of directed edge slots (2·M).
func (t *Topology) NumSlots() int { return len(t.Nbrs) }

// Degree returns the degree of node v.
func (t *Topology) Degree(v int) int { return int(t.Offsets[v+1] - t.Offsets[v]) }

// Slots returns the half-open directed-slot range [lo, hi) of node v.
func (t *Topology) Slots(v int) (lo, hi int) {
	return int(t.Offsets[v]), int(t.Offsets[v+1])
}

// InPort returns the port at which the neighbor across v's port p receives
// messages from v (the reverse-port table in port coordinates).
func (t *Topology) InPort(v, p int) int {
	s := t.RevSlot[int(t.Offsets[v])+p]
	w := t.Nbrs[int(t.Offsets[v])+p]
	return int(s - t.Offsets[w])
}

// buildTopology flattens adj into CSR form and pairs every directed edge
// with its reverse in O(n + m) time, with no map. A counting sort lists,
// for each node v, the slots arriving from smaller neighbors u < v; v
// then marks its own out-slots by neighbor and pairs each listed slot
// (u → v) with its mark for u, both directions at once. Adjacency built
// by Builder or FromAdjacency is symmetric and simple by construction;
// the error paths guard hand-rolled graphs — out-of-range, self-loop and
// repeated neighbors — and an asymmetric one names an edge listed by one
// endpoint only.
func buildTopology(adj [][]int32) (*Topology, error) {
	n := len(adj)
	total := 0
	for _, nb := range adj {
		total += len(nb)
	}
	offsets, nbrs, rev := make([]int32, n+1), make([]int32, total), make([]int32, total)
	m := 0 // slots toward a larger neighbor: one per edge
	for v, nb := range adj {
		offsets[v+1] = offsets[v] + int32(len(nb))
		copy(nbrs[offsets[v]:], nb)
		for _, w := range nb {
			if w < 0 || int(w) >= n || int(w) == v {
				return nil, fmt.Errorf("graph: node %d lists %d on %d nodes", v, w, n)
			}
			if int(w) > v {
				m++
			}
		}
	}
	// pos counts each node's arrivals from smaller senders, then holds
	// its list's start, then (after the fill) its end: node v's list is
	// [pos[v-1], pos[v]), from 0 for v = 0. from and slot are the listed
	// slots' senders and slots; mark[u] is v's slot toward u while v
	// pairs, else -1.
	tmp := make([]int32, 2*n+1+2*m)
	pos, mark, from, slot := tmp[:n+1], tmp[n+1:2*n+1], tmp[2*n+1:2*n+1+m], tmp[2*n+1+m:]
	for v := 0; v < n; v++ {
		for _, w := range nbrs[offsets[v]:offsets[v+1]] {
			if int(w) > v {
				pos[w+1]++
			}
		}
	}
	for w := 0; w < n; w++ {
		pos[w+1] += pos[w]
	}
	for v := 0; v < n; v++ {
		for s := offsets[v]; s < offsets[v+1]; s++ {
			if w := nbrs[s]; int(w) > v {
				from[pos[w]], slot[pos[w]] = int32(v), s
				pos[w]++
			}
		}
	}
	for s := range rev {
		rev[s] = -1
	}
	for u := range mark {
		mark[u] = -1
	}
	lo := int32(0)
	for v := 0; v < n; v++ {
		for s := offsets[v]; s < offsets[v+1]; s++ {
			if mark[nbrs[s]] >= 0 {
				return nil, fmt.Errorf("graph: node %d lists %d twice", v, nbrs[s])
			}
			mark[nbrs[s]] = s
		}
		for i := lo; i < pos[v]; i++ {
			u, t := from[i], slot[i]
			back := mark[u]
			if back < 0 {
				return nil, fmt.Errorf("graph: asymmetric adjacency at edge {%d,%d}", u, v)
			}
			rev[t], rev[back] = back, t
		}
		for s := offsets[v]; s < offsets[v+1]; s++ {
			mark[nbrs[s]] = -1
		}
		lo = pos[v]
	}
	// What is left unpaired is a slot (v → u), u < v, that u never lists.
	for v := 0; v < n; v++ {
		for s := offsets[v]; s < offsets[v+1]; s++ {
			if rev[s] < 0 {
				return nil, fmt.Errorf("graph: asymmetric adjacency at edge {%d,%d}", nbrs[s], v)
			}
		}
	}
	return &Topology{Offsets: offsets, Nbrs: nbrs, RevSlot: rev}, nil
}
