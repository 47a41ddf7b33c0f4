package optimal

import (
	"errors"

	"rapid/internal/lp"
	"rapid/internal/packet"
	"rapid/internal/trace"
)

// SolveILP encodes the Appendix-D integer linear program for the given
// instance and solves it exactly with internal/lp. The formulation
// discretizes time into the contact graph's edges in start order, each
// window folded to a meeting at its start carrying the edge's capacity
// (the relaxation Solve makes), so point meetings, zero-duration
// contacts and windows all become meetings k:
//
//   - H(p,n,k) ∈ {0,1}: node n holds packet p before meeting k
//     (k ∈ [0, E]; the conservation constraint Σ_n H(p,n,k) = 1
//     makes routing single-copy, exactly as the paper's N variables).
//   - X(p,k,dir) ∈ {0,1}: p is forwarded across meeting k in the given
//     direction, feasible only if the holder is at the sending end and
//     the meeting occurs after the packet's creation
//     (the transfer constraints).
//   - Σ_p size(p)·(X(p,k,→)+X(p,k,←)) ≤ bytes_k (bandwidth constraint).
//   - Destinations never forward a delivered packet away, so
//     H(p,dst,·) is monotone and Σ_k seg_k·H(p,dst,k+1) measures the
//     time spent delivered; the objective — minimize total delay with
//     undelivered packets charged their time in system — is then
//     linear (the paper's two-term objective collapsed into one).
//
// Only small instances are tractable (the paper: "these simulations are
// limited to only 6 packets per hour per destination"); ErrTooLarge
// guards the dense solver.
func SolveILP(sched *trace.Schedule, w packet.Workload, maxNodes int) (*Result, error) {
	g := trace.NewContactGraph(sched)
	order := g.ByStart()
	meeting := func(k int) *trace.Edge { return &g.Edges[order[k]] }
	E := len(order)
	P := len(w)
	nodeIdx := nodeIndex(g, w)
	N := len(nodeIdx)
	if P*N*(E+1) > 6000 {
		return nil, ErrTooLarge
	}

	// Variable layout:
	//   H(p,n,k) at hBase + p*N*(E+1) + n*(E+1) + k
	//   X(p,k,d) at xBase + p*E*2 + k*2 + d   (d: 0 = A→B, 1 = B→A)
	hBase := 0
	hCount := P * N * (E + 1)
	xBase := hCount
	xCount := P * E * 2
	nv := hCount + xCount

	hVar := func(p, n, k int) int { return hBase + p*N*(E+1) + n*(E+1) + k }
	xVar := func(p, k, d int) int { return xBase + p*E*2 + k*2 + d }

	prob := &lp.Problem{
		NumVars:   nv,
		Objective: make([]float64, nv),
		Upper:     make([]float64, nv),
		Integer:   make([]bool, nv),
	}
	for j := 0; j < nv; j++ {
		prob.Upper[j] = 1
		prob.Integer[j] = true
	}

	// Objective: minimize total delay = Σ_p [(horizon - c_p)
	//  - Σ_k seg_k · H(p,dst,k+1)] — constants dropped, so we
	// *maximize* the delivered-time mass, i.e. minimize its negation.
	for pi, p := range w {
		dn, ok := nodeIdx[p.Dst]
		if !ok {
			continue
		}
		for k := 0; k < E; k++ {
			segEnd := sched.Duration
			if k+1 < E {
				segEnd = meeting(k + 1).Start
			}
			seg := segEnd - meeting(k).Start
			if seg <= 0 {
				continue
			}
			prob.Objective[hVar(pi, dn, k+1)] -= seg
		}
	}

	addEq := func(coeffs map[int]float64, rhs float64) {
		prob.Constraints = append(prob.Constraints, lp.Constraint{Coeffs: coeffs, Sense: lp.EQ, RHS: rhs})
	}
	addLE := func(coeffs map[int]float64, rhs float64) {
		prob.Constraints = append(prob.Constraints, lp.Constraint{Coeffs: coeffs, Sense: lp.LE, RHS: rhs})
	}

	for pi, p := range w {
		srcN, ok := nodeIdx[p.Src]
		if !ok {
			return nil, errors.New("optimal: packet source not in node set")
		}
		// Initialization: the source holds the packet at k=0.
		for n := 0; n < N; n++ {
			want := 0.0
			if n == srcN {
				want = 1
			}
			addEq(map[int]float64{hVar(pi, n, 0): 1}, want)
		}
		for k := range E {
			m := meeting(k)
			ai, bi := nodeIdx[m.A], nodeIdx[m.B]
			// Creation-time and destination-stickiness restrictions.
			if m.Start < p.Created {
				addEq(map[int]float64{xVar(pi, k, 0): 1}, 0)
				addEq(map[int]float64{xVar(pi, k, 1): 1}, 0)
			} else {
				if m.A == p.Dst { // dst never forwards away
					addEq(map[int]float64{xVar(pi, k, 0): 1}, 0)
				}
				if m.B == p.Dst {
					addEq(map[int]float64{xVar(pi, k, 1): 1}, 0)
				}
				// Transfer constraints: can only send what you hold.
				addLE(map[int]float64{xVar(pi, k, 0): 1, hVar(pi, ai, k): -1}, 0)
				addLE(map[int]float64{xVar(pi, k, 1): 1, hVar(pi, bi, k): -1}, 0)
			}
			// Holding evolution.
			for n := 0; n < N; n++ {
				c := map[int]float64{
					hVar(pi, n, k+1): 1,
					hVar(pi, n, k):   -1,
				}
				if n == ai {
					c[xVar(pi, k, 0)] = 1  // sent away
					c[xVar(pi, k, 1)] = -1 // received
				}
				if n == bi {
					c[xVar(pi, k, 0)] = -1
					c[xVar(pi, k, 1)] = 1
				}
				addEq(c, 0)
			}
			// Conservation: exactly one holder at every step.
			cons := map[int]float64{}
			for n := 0; n < N; n++ {
				cons[hVar(pi, n, k+1)] = 1
			}
			addEq(cons, 1)
		}
	}
	// Bandwidth constraints per meeting.
	for k := range E {
		c := map[int]float64{}
		for pi, p := range w {
			c[xVar(pi, k, 0)] = float64(p.Size)
			c[xVar(pi, k, 1)] = float64(p.Size)
		}
		addLE(c, float64(meeting(k).Cap))
	}

	sol, err := lp.SolveILP(prob, lp.BnBOptions{MaxNodes: maxNodes})
	if err != nil {
		return nil, err
	}
	if sol.Status == lp.Infeasible || sol.Status == lp.Unbounded {
		return nil, errors.New("optimal: ILP " + sol.Status.String())
	}

	res := &Result{Horizon: sched.Duration}
	for pi, p := range w {
		d := Delivery{P: p}
		dn := nodeIdx[p.Dst]
		for k := 1; k <= E; k++ {
			if sol.X[hVar(pi, dn, k)] > 0.5 {
				d.Delivered = true
				d.DeliveredAt = meeting(k - 1).Start
				break
			}
		}
		if d.Delivered {
			for k := 0; k < E; k++ {
				if sol.X[xVar(pi, k, 0)] > 0.5 || sol.X[xVar(pi, k, 1)] > 0.5 {
					d.Hops++
				}
			}
		}
		res.Deliveries = append(res.Deliveries, d)
	}
	return res, nil
}

// ErrTooLarge reports an instance beyond the dense ILP's practical
// size; use Solve (the oracle) instead.
var ErrTooLarge = errors.New("optimal: instance too large for the exact ILP — use the oracle")

// nodeIndex numbers the graph's nodes in ID order, then the workload's
// other endpoints in order of appearance.
func nodeIndex(g *trace.ContactGraph, w packet.Workload) map[packet.NodeID]int {
	idx := map[packet.NodeID]int{}
	add := func(id packet.NodeID) {
		if _, ok := idx[id]; !ok {
			idx[id] = len(idx)
		}
	}
	for v := range g.NumNodes() {
		if id := packet.NodeID(v); len(g.Incident(id)) > 0 {
			add(id)
		}
	}
	for _, p := range w {
		add(p.Src)
		add(p.Dst)
	}
	return idx
}

// TotalDelay sums the Fig. 13 objective over a result (exposed for the
// oracle-vs-ILP certification tests).
func (r *Result) TotalDelay() float64 {
	var sum float64
	for _, d := range r.Deliveries {
		if d.Delivered {
			sum += d.DeliveredAt - d.P.Created
		} else {
			sum += r.Horizon - d.P.Created
		}
	}
	return sum
}
