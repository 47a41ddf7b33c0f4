// Package lp is a small linear/integer programming toolkit: a dense
// two-phase primal simplex solver and a depth-first branch-and-bound
// wrapper for integer variables.
//
// It exists to reproduce the paper's Optimal baseline (Fig. 13), which
// the authors computed with CPLEX on the Appendix-D ILP. The solver is
// exact but dense — suitable for the small instances the paper itself
// was limited to ("these simulations are limited to only 6 packets per
// hour per destination"), and for cross-checking the earliest-arrival
// oracle in internal/routing/optimal on instances both can handle.
package lp

import (
	"errors"
	"fmt"
	"math"
)

// Sense is a constraint relation.
type Sense int

const (
	// LE is a ≤ constraint.
	LE Sense = iota
	// GE is a ≥ constraint.
	GE
	// EQ is an equality constraint.
	EQ
)

// Constraint is a sparse row: sum_j Coeffs[j]·x_j  (Sense)  RHS.
type Constraint struct {
	Coeffs map[int]float64
	Sense  Sense
	RHS    float64
}

// Problem is a minimization over non-negative variables:
//
//	minimize  c·x
//	subject to constraints, x >= 0, optionally x_j <= Upper[j]
//
// Integer[j] marks variables that SolveILP must drive to integrality.
type Problem struct {
	NumVars     int
	Objective   []float64
	Constraints []Constraint
	// Upper holds optional upper bounds; math.Inf(1) (or a nil slice)
	// means unbounded above.
	Upper []float64
	// Integer marks integrality requirements (used by SolveILP; ignored
	// by SolveLP).
	Integer []bool
}

// Status reports the outcome of a solve.
type Status int

const (
	// Optimal means an optimal solution was found.
	Optimal Status = iota
	// Infeasible means no point satisfies the constraints.
	Infeasible
	// Unbounded means the objective decreases without bound.
	Unbounded
	// Limit means an iteration or node limit stopped the solve.
	Limit
)

// String implements fmt.Stringer.
func (s Status) String() string {
	switch s {
	case Optimal:
		return "optimal"
	case Infeasible:
		return "infeasible"
	case Unbounded:
		return "unbounded"
	case Limit:
		return "limit"
	default:
		return fmt.Sprintf("Status(%d)", int(s))
	}
}

// Solution is a solve result. X is meaningful only when Status is
// Optimal (or Limit for ILP incumbents).
type Solution struct {
	Status    Status
	X         []float64
	Objective float64
}

const (
	eps          = 1e-9
	maxSimplexIt = 200000
)

// Validate checks structural consistency of the problem.
func (p *Problem) Validate() error {
	if p.NumVars <= 0 {
		return errors.New("lp: problem has no variables")
	}
	if len(p.Objective) != p.NumVars {
		return fmt.Errorf("lp: objective has %d coefficients for %d variables", len(p.Objective), p.NumVars)
	}
	if p.Upper != nil && len(p.Upper) != p.NumVars {
		return fmt.Errorf("lp: upper bounds length %d != %d", len(p.Upper), p.NumVars)
	}
	if p.Integer != nil && len(p.Integer) != p.NumVars {
		return fmt.Errorf("lp: integer flags length %d != %d", len(p.Integer), p.NumVars)
	}
	for i, c := range p.Constraints {
		// Name the smallest bad variable, whatever the map's order.
		bad, found := 0, false
		for j := range c.Coeffs {
			if (j < 0 || j >= p.NumVars) && (!found || j < bad) {
				bad, found = j, true
			}
		}
		if found {
			return fmt.Errorf("lp: constraint %d references variable %d", i, bad)
		}
	}
	return nil
}

// SolveLP solves the linear relaxation with a dense two-phase primal
// simplex (Bland's anti-cycling rule after a Dantzig warm period).
func SolveLP(p *Problem) (Solution, error) {
	if err := p.Validate(); err != nil {
		return Solution{}, err
	}
	t, err := newTableau(p)
	if err != nil {
		return Solution{}, err
	}
	return t.solve(p)
}

// tableau is the dense simplex working state: rows = constraints,
// columns = structural + slack/surplus + artificial variables.
type tableau struct {
	m, n    int // constraints, total columns (excluding RHS)
	a       [][]float64
	b       []float64
	basis   []int
	nStruct int // structural variable count
	artBase int // first artificial column index; -1 if none
}

// newTableau builds the phase-1-ready tableau: every constraint is an
// equality with slack/surplus added, RHS non-negative, and artificial
// variables where no natural basic column exists. Upper bounds become
// extra LE rows.
func newTableau(p *Problem) (*tableau, error) {
	type row struct {
		coeffs map[int]float64
		sense  Sense
		rhs    float64
	}
	rows := make([]row, 0, len(p.Constraints)+p.NumVars)
	for _, c := range p.Constraints {
		rows = append(rows, row{c.Coeffs, c.Sense, c.RHS})
	}
	if p.Upper != nil {
		for j, u := range p.Upper {
			if !math.IsInf(u, 1) {
				rows = append(rows, row{map[int]float64{j: 1}, LE, u})
			}
		}
	}
	m := len(rows)
	// Count slack columns.
	slacks := 0
	for _, r := range rows {
		if r.sense != EQ {
			slacks++
		}
	}
	nCols := p.NumVars + slacks + m // worst case: artificial per row
	t := &tableau{
		m: m, nStruct: p.NumVars,
		a:     make([][]float64, m),
		b:     make([]float64, m),
		basis: make([]int, m),
	}
	for i := range t.a {
		t.a[i] = make([]float64, nCols)
	}
	slackCol := p.NumVars
	artCol := p.NumVars + slacks
	t.artBase = artCol
	usedArt := 0
	for i, r := range rows {
		sign := 1.0
		rhs := r.rhs
		sense := r.sense
		if rhs < 0 {
			sign = -1
			rhs = -rhs
			switch sense {
			case LE:
				sense = GE
			case GE:
				sense = LE
			}
		}
		for j, v := range r.coeffs {
			t.a[i][j] = sign * v
		}
		t.b[i] = rhs
		switch sense {
		case LE:
			t.a[i][slackCol] = 1
			t.basis[i] = slackCol
			slackCol++
		case GE:
			t.a[i][slackCol] = -1
			slackCol++
			t.a[i][artCol] = 1
			t.basis[i] = artCol
			artCol++
			usedArt++
		case EQ:
			t.a[i][artCol] = 1
			t.basis[i] = artCol
			artCol++
			usedArt++
		}
	}
	t.n = artCol
	if usedArt == 0 {
		t.artBase = -1
	}
	return t, nil
}

// solve runs phase 1 (if artificials exist) and phase 2.
func (t *tableau) solve(p *Problem) (Solution, error) {
	if t.artBase >= 0 {
		// Phase 1: minimize the sum of artificial variables.
		obj := make([]float64, t.n)
		for j := t.artBase; j < t.n; j++ {
			obj[j] = 1
		}
		st := t.iterate(obj)
		if st == Limit {
			return Solution{Status: Limit}, nil
		}
		if t.phaseObjective(obj) > 1e-7 {
			return Solution{Status: Infeasible}, nil
		}
		// Drive any lingering artificial out of the basis.
		t.expelArtificials()
	}
	// Phase 2: original objective over structural columns; artificial
	// columns are frozen out by making them prohibitively expensive to
	// re-enter (their reduced costs are ignored below by exclusion).
	obj := make([]float64, t.n)
	copy(obj, p.Objective)
	st := t.iteratePhase2(obj)
	switch st {
	case Unbounded:
		return Solution{Status: Unbounded}, nil
	case Limit:
		return Solution{Status: Limit}, nil
	}
	x := make([]float64, p.NumVars)
	for i, bj := range t.basis {
		if bj < p.NumVars {
			x[bj] = t.b[i]
		}
	}
	var objVal float64
	for j, c := range p.Objective {
		objVal += c * x[j]
	}
	return Solution{Status: Optimal, X: x, Objective: objVal}, nil
}

// phaseObjective evaluates obj at the current basic solution.
func (t *tableau) phaseObjective(obj []float64) float64 {
	var v float64
	for i, bj := range t.basis {
		v += obj[bj] * t.b[i]
	}
	return v
}

// expelArtificials pivots basic artificial variables (at value ~0) out
// of the basis when a structural/slack pivot exists; degenerate rows
// whose coefficients are all zero are left (they are vacuous).
func (t *tableau) expelArtificials() {
	for i := 0; i < t.m; i++ {
		if t.basis[i] < t.artBase {
			continue
		}
		for j := 0; j < t.artBase; j++ {
			if math.Abs(t.a[i][j]) > eps {
				t.pivot(i, j)
				break
			}
		}
	}
}

// reducedCosts computes c_j - c_B·B⁻¹A_j for all columns under obj.
func (t *tableau) reducedCosts(obj []float64) []float64 {
	// y_i = obj of basis row i.
	rc := make([]float64, t.n)
	for j := 0; j < t.n; j++ {
		rc[j] = obj[j]
	}
	for i, bj := range t.basis {
		cb := obj[bj]
		if cb == 0 {
			continue
		}
		row := t.a[i]
		for j := 0; j < t.n; j++ {
			rc[j] -= cb * row[j]
		}
	}
	return rc
}

// iterate runs simplex to optimality under obj over all columns.
func (t *tableau) iterate(obj []float64) Status {
	return t.run(obj, t.n)
}

// iteratePhase2 runs simplex excluding artificial columns from entering.
func (t *tableau) iteratePhase2(obj []float64) Status {
	limit := t.n
	if t.artBase >= 0 {
		limit = t.artBase
	}
	return t.run(obj, limit)
}

// run performs primal simplex pivots until optimal, unbounded, or the
// iteration cap. Columns >= colLimit never enter the basis.
func (t *tableau) run(obj []float64, colLimit int) Status {
	for it := 0; it < maxSimplexIt; it++ {
		rc := t.reducedCosts(obj)
		// Entering column: Dantzig (most negative), switching to
		// Bland (lowest index) late to guarantee termination.
		enter := -1
		if it < maxSimplexIt/2 {
			best := -eps
			for j := 0; j < colLimit; j++ {
				if rc[j] < best {
					best = rc[j]
					enter = j
				}
			}
		} else {
			for j := 0; j < colLimit; j++ {
				if rc[j] < -eps {
					enter = j
					break
				}
			}
		}
		if enter < 0 {
			return Optimal
		}
		// Ratio test (Bland ties: lowest basis index).
		leave := -1
		bestRatio := math.Inf(1)
		for i := 0; i < t.m; i++ {
			aij := t.a[i][enter]
			if aij > eps {
				ratio := t.b[i] / aij
				if ratio < bestRatio-eps ||
					(ratio < bestRatio+eps && (leave < 0 || t.basis[i] < t.basis[leave])) {
					bestRatio = ratio
					leave = i
				}
			}
		}
		if leave < 0 {
			return Unbounded
		}
		t.pivot(leave, enter)
	}
	return Limit
}

// pivot makes column `enter` basic in row `leave`.
func (t *tableau) pivot(leave, enter int) {
	piv := t.a[leave][enter]
	row := t.a[leave]
	inv := 1 / piv
	for j := 0; j < t.n; j++ {
		row[j] *= inv
	}
	t.b[leave] *= inv
	for i := 0; i < t.m; i++ {
		if i == leave {
			continue
		}
		f := t.a[i][enter]
		if f == 0 {
			continue
		}
		ri := t.a[i]
		for j := 0; j < t.n; j++ {
			ri[j] -= f * row[j]
		}
		t.b[i] -= f * t.b[leave]
		if t.b[i] < 0 && t.b[i] > -1e-11 {
			t.b[i] = 0
		}
	}
	t.basis[leave] = enter
}
