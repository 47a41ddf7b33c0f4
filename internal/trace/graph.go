package trace

import (
	"cmp"
	"slices"

	"rapid/internal/packet"
)

// ContactGraph is the time-expanded contact graph of one schedule
// (Shi et al., arXiv:2211.06598), the one place a schedule becomes
// capacity edges. Storage edges are implicit: a node holds a packet
// for free between edges.
type ContactGraph struct {
	// Edges holds one edge per occurrence in execution rank: the
	// schedule's meetings in order, then its contacts. Among edges
	// starting at one instant, a lower index runs first.
	Edges  []Edge
	byNode [][]int // incident edges, by start, ties in rank order
}

// Edge is one transfer opportunity between A and B. A point (a
// meeting, or a zero-duration contact) has End == Start and Rate == 0;
// a window streams at Rate bytes/s over [Start, End).
//
// Cap follows the runtime's one rule: Bytes for a point; for a window
// its Capacity, shrunk to the in-horizon share when the window runs
// past Duration (the runtime closes it at Contact.EndWithin). A
// recomputed Rate·(End−Start) could round one byte above the runtime's
// budget.
type Edge struct {
	A, B       packet.NodeID
	Start, End float64
	Rate       float64
	Cap        int64
}

// NewContactGraph builds the contact graph of a schedule.
func NewContactGraph(s *Schedule) *ContactGraph {
	g := &ContactGraph{Edges: make([]Edge, 0, len(s.Meetings)+len(s.Contacts))}
	for _, m := range s.Meetings {
		g.Edges = append(g.Edges, Edge{A: m.A, B: m.B, Start: m.Time, End: m.Time, Cap: m.Bytes})
	}
	for _, c := range s.Contacts {
		e := Edge{A: c.A, B: c.B, Start: c.Start, End: c.Start, Cap: c.Bytes}
		if c.Windowed() {
			e.End, e.Rate, e.Cap = c.EndWithin(s.Duration), c.RateBps, c.Capacity()
			if e.End < c.End() {
				e.Cap = min(e.Cap, int64(c.RateBps*(e.End-c.Start)))
			}
		}
		g.Edges = append(g.Edges, e)
	}
	n := 0
	for _, e := range g.Edges {
		n = max(n, int(e.A)+1, int(e.B)+1)
	}
	g.byNode = make([][]int, n)
	for i, e := range g.Edges {
		g.byNode[e.A] = append(g.byNode[e.A], i)
		g.byNode[e.B] = append(g.byNode[e.B], i)
	}
	for _, list := range g.byNode {
		slices.SortFunc(list, func(i, j int) int {
			if c := cmp.Compare(g.Edges[i].Start, g.Edges[j].Start); c != 0 {
				return c
			}
			return cmp.Compare(i, j)
		})
	}
	return g
}

// NumNodes returns one past the highest node ID an edge names.
func (g *ContactGraph) NumNodes() int { return len(g.byNode) }

// Incident returns the edges touching v, sorted by start with ties in
// rank order. Callers must not modify the slice.
func (g *ContactGraph) Incident(v packet.NodeID) []int {
	if int(v) >= len(g.byNode) {
		return nil
	}
	return g.byNode[v]
}

// IncidentFrom returns the tail of Incident(v) starting at or after t.
func (g *ContactGraph) IncidentFrom(v packet.NodeID, t float64) []int {
	list := g.Incident(v)
	lo, hi := 0, len(list)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if g.Edges[list[m]].Start < t {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return list[lo:]
}

// Live returns the edge between a and b that starts within tol of t —
// the first in a's incidence order — or -1 when there is none.
func (g *ContactGraph) Live(a, b packet.NodeID, t, tol float64) int {
	for _, i := range g.IncidentFrom(a, t-tol) {
		e := &g.Edges[i]
		if e.Start > t+tol {
			break
		}
		if (e.A == a && e.B == b) || (e.A == b && e.B == a) {
			return i
		}
	}
	return -1
}

// ByStart returns the edge indices by start, ties in rank order: the
// scan order when each window is folded to its start.
func (g *ContactGraph) ByStart() []int {
	order := make([]int, len(g.Edges))
	for i := range order {
		order[i] = i
	}
	slices.SortStableFunc(order, func(i, j int) int {
		return cmp.Compare(g.Edges[i].Start, g.Edges[j].Start)
	})
	return order
}
