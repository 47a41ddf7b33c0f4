// Package optimal computes the offline Optimal baseline of §6.2.4: a
// routing schedule with complete a-priori knowledge of node meetings
// and the packet workload, providing an upper bound on the performance
// of any online protocol (Fig. 13).
//
// Two solvers are provided, and both read the schedule as its
// trace.ContactGraph: its edges in start order, each window folded to
// a point meeting at its start carrying the edge's capacity.
//
//   - Solve: an earliest-arrival oracle that routes each packet along
//     its earliest-delivery time-respecting path, reserving per-edge
//     capacity, followed by local-search improvement passes. It scales
//     to full experiment instances.
//
//   - SolveILP: the Appendix-D integer linear program (single-copy
//     forwarding over discretized meetings), solved exactly with
//     internal/lp. Like the paper's CPLEX runs it only handles small
//     instances; tests use it to certify the oracle's optimality gap.
//
// Both solvers are single-copy: with complete future knowledge,
// replication cannot improve delivery of a packet beyond its best path,
// it can only consume capacity other packets need — which is why the
// paper's ILP also carries a single-copy conservation constraint.
package optimal

import (
	"math"
	"slices"

	"rapid/internal/packet"
	"rapid/internal/trace"
)

// Delivery describes one packet's offline-routing outcome.
type Delivery struct {
	P           *packet.Packet
	Delivered   bool
	DeliveredAt float64
	Hops        int
}

// Result is the offline schedule's outcome for a workload.
type Result struct {
	Deliveries []Delivery
	// Horizon is the schedule duration used for undelivered penalties.
	Horizon float64
}

// AvgDelayAll returns the Fig. 13 objective: mean delay with
// undelivered packets counted at their time in system.
func (r *Result) AvgDelayAll() float64 {
	if len(r.Deliveries) == 0 {
		return 0
	}
	return r.TotalDelay() / float64(len(r.Deliveries))
}

// DeliveryRate returns the fraction delivered.
func (r *Result) DeliveryRate() float64 {
	if len(r.Deliveries) == 0 {
		return 0
	}
	n := 0
	for _, d := range r.Deliveries {
		if d.Delivered {
			n++
		}
	}
	return float64(n) / float64(len(r.Deliveries))
}

// Options tunes the oracle.
type Options struct {
	// ImprovePasses is the number of local-search sweeps after the
	// greedy construction (default 2).
	ImprovePasses int
}

// Solve runs the earliest-arrival oracle.
func Solve(sched *trace.Schedule, w packet.Workload, opts Options) *Result {
	if opts.ImprovePasses < 0 {
		opts.ImprovePasses = 0
	} else if opts.ImprovePasses == 0 {
		opts.ImprovePasses = 2
	}
	// Windows fold in as point meetings at their start carrying the
	// edge's capacity, the bytes the runtime can move through them.
	// This is a relaxation — the oracle may move a window's last byte at
	// its first instant — so the result stays a valid upper bound on any
	// online protocol running the real windowed schedule (every
	// realizable transfer within a window maps to a no-later transfer at
	// the relaxed meeting, with identical per-opportunity capacity).
	g := trace.NewContactGraph(sched)
	fullCap := make([]int64, len(g.Edges))
	for i, e := range g.Edges {
		fullCap[i] = e.Cap
	}
	residual := slices.Clone(fullCap)

	// paths[i] holds the edge indices used by packet i.
	ordered := append(packet.Workload{}, w...)
	ordered.Sort()
	sc := newScan(g, ordered)
	paths := make([][]int, len(ordered))
	arrivals := make([]float64, len(ordered))
	for i := range arrivals {
		arrivals[i] = math.Inf(1)
	}

	restore := func(i int, path []int, at float64) {
		paths[i] = path
		arrivals[i] = at
		for _, mi := range path {
			residual[mi] -= ordered[i].Size
		}
	}
	route := func(i int) {
		path, at := sc.earliestPath(residual, ordered[i])
		if path == nil {
			at = math.Inf(1)
		}
		restore(i, path, at)
	}
	release := func(i int) {
		for _, mi := range paths[i] {
			residual[mi] += ordered[i].Size
		}
		paths[i] = nil
		arrivals[i] = math.Inf(1)
	}

	// Greedy construction in creation order.
	for i := range ordered {
		route(i)
	}
	// contribution is a packet's term in the Fig. 13 objective.
	contribution := func(i int) float64 {
		if math.IsInf(arrivals[i], 1) {
			return sched.Duration - ordered[i].Created
		}
		return arrivals[i] - ordered[i].Created
	}

	for pass := 0; pass < opts.ImprovePasses; pass++ {
		improvedAny := false
		// Sweep 1: re-route each packet with everyone else's
		// reservations fixed; each step can only lower the packet's
		// own arrival, so the total objective is non-increasing.
		for i := range ordered {
			old := arrivals[i]
			oldPath := paths[i]
			release(i)
			route(i)
			if arrivals[i] > old || (math.IsInf(arrivals[i], 1) && !math.IsInf(old, 1)) {
				release(i)
				restore(i, oldPath, old)
			} else if arrivals[i] < old {
				improvedAny = true
			}
		}
		// Sweep 2: pairwise eviction. A packet routed worse than its
		// capacity-ignoring ideal identifies the reservations blocking
		// that ideal path; evicting one blocker and routing the victim
		// first may lower the combined objective (the case greedy
		// construction cannot fix: an early packet camping on a later
		// packet's only path).
		blockers := make([]bool, len(ordered))
		saturated := make([]bool, len(residual))
		for i2 := range ordered {
			ideal, idealAt := sc.earliestPath(fullCap, ordered[i2])
			if ideal == nil || idealAt >= arrivals[i2] {
				continue // already optimal for itself
			}
			// Blockers: packets holding capacity on the ideal path's
			// saturated edges, tried in packet order so the first
			// helpful eviction, and with it the result, is the same
			// on every call. The saturated edges are marked once, so
			// each packet's path is scanned once.
			for _, mi := range ideal {
				saturated[mi] = residual[mi] < ordered[i2].Size
			}
			for i1, path := range paths {
				blockers[i1] = false
				for _, mi := range path {
					if saturated[mi] {
						blockers[i1] = i1 != i2
						break
					}
				}
			}
			for _, mi := range ideal {
				saturated[mi] = false
			}
			for i1, blocks := range blockers {
				if !blocks {
					continue
				}
				before := contribution(i1) + contribution(i2)
				old1, old1At := paths[i1], arrivals[i1]
				old2, old2At := paths[i2], arrivals[i2]
				release(i1)
				release(i2)
				route(i2)
				route(i1)
				after := contribution(i1) + contribution(i2)
				if after < before-1e-12 {
					improvedAny = true
					break // i2 improved; move to the next victim
				}
				release(i1)
				release(i2)
				restore(i1, old1, old1At)
				restore(i2, old2, old2At)
			}
		}
		if !improvedAny {
			break
		}
	}

	res := &Result{Horizon: sched.Duration}
	for i, p := range ordered {
		d := Delivery{P: p}
		if paths[i] != nil {
			d.Delivered = true
			d.DeliveredAt = arrivals[i]
			d.Hops = len(paths[i])
		}
		res.Deliveries = append(res.Deliveries, d)
	}
	return res
}

// scan is the oracle's earliest-arrival search: one pass over the
// contact graph's edges in start order, each window folded to its
// start. Its per-node labels are dense slices, sized for the graph's
// nodes and the workload's endpoints and reused across calls.
type scan struct {
	g      *trace.ContactGraph
	order  []int
	arrive []float64 // +Inf: not reached
	via    []int     // the edge that first reached the node
}

func newScan(g *trace.ContactGraph, w packet.Workload) *scan {
	n := g.NumNodes()
	for _, p := range w {
		n = max(n, int(p.Src)+1, int(p.Dst)+1)
	}
	return &scan{g: g, order: g.ByStart(), arrive: make([]float64, n), via: make([]int, n)}
}

// earliestPath computes the earliest-arrival time-respecting path for p
// over edges with sufficient residual capacity, returning the edge
// indices used and the arrival time (nil if unreachable).
func (s *scan) earliestPath(residual []int64, p *packet.Packet) ([]int, float64) {
	arrive, via := s.arrive, s.via
	for i := range arrive {
		arrive[i] = math.Inf(1)
	}
	arrive[p.Src] = p.Created
	for _, i := range s.order {
		m := &s.g.Edges[i]
		if m.Start < p.Created || residual[i] < p.Size {
			continue
		}
		// Snapshot both endpoints before relaxing so the packet cannot
		// bounce A→B→A within the same meeting.
		ta, tb := arrive[m.A], arrive[m.B]
		if ta <= m.Start && m.Start < arrive[m.B] {
			arrive[m.B] = m.Start
			via[m.B] = i
		}
		if tb <= m.Start && m.Start < arrive[m.A] {
			arrive[m.A] = m.Start
			via[m.A] = i
		}
		if arrive[p.Dst] <= m.Start {
			break // destination reached; later meetings cannot improve
		}
	}
	at := arrive[p.Dst]
	if math.IsInf(at, 1) {
		return nil, at
	}
	// Walk the via chain back to the source. Every node on it was
	// reached in this call by an edge met earlier in the scan, so its
	// entry is fresh and the chain ends.
	var path []int
	for node := p.Dst; node != p.Src; {
		mi := via[node]
		path = append(path, mi)
		if m := &s.g.Edges[mi]; m.A == node {
			node = m.B
		} else {
			node = m.A
		}
	}
	slices.Reverse(path)
	return path, at
}
