package lp

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func approx(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestSimpleLP(t *testing.T) {
	// maximize 3x+2y s.t. x+y<=4, x+3y<=6 => minimize -3x-2y.
	// Optimum at (4,0): objective -12.
	p := &Problem{
		NumVars:   2,
		Objective: []float64{-3, -2},
		Constraints: []Constraint{
			{Coeffs: map[int]float64{0: 1, 1: 1}, Sense: LE, RHS: 4},
			{Coeffs: map[int]float64{0: 1, 1: 3}, Sense: LE, RHS: 6},
		},
	}
	s, err := SolveLP(p)
	if err != nil || s.Status != Optimal {
		t.Fatalf("status=%v err=%v", s.Status, err)
	}
	if !approx(s.Objective, -12, 1e-7) {
		t.Errorf("objective %v want -12", s.Objective)
	}
	if !approx(s.X[0], 4, 1e-7) || !approx(s.X[1], 0, 1e-7) {
		t.Errorf("x=%v want (4,0)", s.X)
	}
}

func TestLPWithGEAndEQ(t *testing.T) {
	// minimize 2x+3y s.t. x+y = 10, x >= 3, y >= 2. Optimum (8,2): 22.
	p := &Problem{
		NumVars:   2,
		Objective: []float64{2, 3},
		Constraints: []Constraint{
			{Coeffs: map[int]float64{0: 1, 1: 1}, Sense: EQ, RHS: 10},
			{Coeffs: map[int]float64{0: 1}, Sense: GE, RHS: 3},
			{Coeffs: map[int]float64{1: 1}, Sense: GE, RHS: 2},
		},
	}
	s, err := SolveLP(p)
	if err != nil || s.Status != Optimal {
		t.Fatalf("status=%v err=%v", s.Status, err)
	}
	if !approx(s.Objective, 22, 1e-7) {
		t.Errorf("objective %v want 22", s.Objective)
	}
}

func TestInfeasibleLP(t *testing.T) {
	p := &Problem{
		NumVars:   1,
		Objective: []float64{1},
		Constraints: []Constraint{
			{Coeffs: map[int]float64{0: 1}, Sense: GE, RHS: 5},
			{Coeffs: map[int]float64{0: 1}, Sense: LE, RHS: 3},
		},
	}
	s, err := SolveLP(p)
	if err != nil {
		t.Fatal(err)
	}
	if s.Status != Infeasible {
		t.Errorf("status %v want infeasible", s.Status)
	}
}

func TestUnboundedLP(t *testing.T) {
	p := &Problem{
		NumVars:   1,
		Objective: []float64{-1}, // maximize x with no bound
		Constraints: []Constraint{
			{Coeffs: map[int]float64{0: 1}, Sense: GE, RHS: 0},
		},
	}
	s, err := SolveLP(p)
	if err != nil {
		t.Fatal(err)
	}
	if s.Status != Unbounded {
		t.Errorf("status %v want unbounded", s.Status)
	}
}

func TestUpperBounds(t *testing.T) {
	// minimize -x with x <= 7 via Upper.
	p := &Problem{
		NumVars:   1,
		Objective: []float64{-1},
		Upper:     []float64{7},
	}
	s, err := SolveLP(p)
	if err != nil || s.Status != Optimal {
		t.Fatalf("status=%v err=%v", s.Status, err)
	}
	if !approx(s.X[0], 7, 1e-7) {
		t.Errorf("x=%v want 7", s.X[0])
	}
}

func TestNegativeRHS(t *testing.T) {
	// -x <= -2  <=>  x >= 2; minimize x -> 2.
	p := &Problem{
		NumVars:   1,
		Objective: []float64{1},
		Constraints: []Constraint{
			{Coeffs: map[int]float64{0: -1}, Sense: LE, RHS: -2},
		},
	}
	s, err := SolveLP(p)
	if err != nil || s.Status != Optimal {
		t.Fatalf("status=%v err=%v", s.Status, err)
	}
	if !approx(s.X[0], 2, 1e-7) {
		t.Errorf("x=%v want 2", s.X[0])
	}
}

func TestValidation(t *testing.T) {
	bad := []*Problem{
		{NumVars: 0},
		{NumVars: 2, Objective: []float64{1}},
		{NumVars: 1, Objective: []float64{1}, Upper: []float64{1, 2}},
		{NumVars: 1, Objective: []float64{1}, Constraints: []Constraint{{Coeffs: map[int]float64{5: 1}, Sense: LE, RHS: 1}}},
		{NumVars: 1, Objective: []float64{1}, Integer: []bool{true, false}},
	}
	for i, p := range bad {
		if _, err := SolveLP(p); err == nil {
			t.Errorf("case %d: expected validation error", i)
		}
	}
	// Several bad variables: the error names the smallest, every time.
	p := &Problem{NumVars: 1, Objective: []float64{1}, Constraints: []Constraint{
		{Coeffs: map[int]float64{0: 1, 9: 1, 4: 1, -3: 1, 7: 1}, Sense: LE, RHS: 1},
	}}
	for range 20 {
		if err := p.Validate(); err == nil || err.Error() != "lp: constraint 0 references variable -3" {
			t.Fatalf("error %v, want the smallest bad variable -3", err)
		}
	}
}

// Property: the simplex solution satisfies every constraint and is
// never beaten by random feasible points.
func TestLPFeasibilityAndDominance(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 2 + r.Intn(4)
		m := 1 + r.Intn(4)
		p := &Problem{NumVars: n, Objective: make([]float64, n)}
		for j := range p.Objective {
			p.Objective[j] = r.Float64()*4 - 2
		}
		// Bounded region: sum x <= K plus random LE rows, x <= 10.
		p.Upper = make([]float64, n)
		for j := range p.Upper {
			p.Upper[j] = 10
		}
		all := map[int]float64{}
		for j := 0; j < n; j++ {
			all[j] = 1
		}
		p.Constraints = append(p.Constraints, Constraint{Coeffs: all, Sense: LE, RHS: 5 + r.Float64()*10})
		for i := 0; i < m; i++ {
			c := map[int]float64{}
			for j := 0; j < n; j++ {
				if r.Float64() < 0.7 {
					c[j] = r.Float64() * 2
				}
			}
			if len(c) == 0 {
				c[0] = 1
			}
			p.Constraints = append(p.Constraints, Constraint{Coeffs: c, Sense: LE, RHS: 1 + r.Float64()*10})
		}
		s, err := SolveLP(p)
		if err != nil || s.Status != Optimal {
			return false
		}
		if !feasible(p, s.X, 1e-6) {
			return false
		}
		// Random feasible points must not beat the optimum.
		for trial := 0; trial < 50; trial++ {
			x := make([]float64, n)
			for j := range x {
				x[j] = r.Float64() * 2
			}
			if !feasible(p, x, 0) {
				continue
			}
			var obj float64
			for j := range x {
				obj += p.Objective[j] * x[j]
			}
			if obj < s.Objective-1e-6 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func feasible(p *Problem, x []float64, tol float64) bool {
	for j, v := range x {
		if v < -tol {
			return false
		}
		if p.Upper != nil && v > p.Upper[j]+tol {
			return false
		}
	}
	for _, c := range p.Constraints {
		var lhs float64
		for j, v := range c.Coeffs {
			lhs += v * x[j]
		}
		switch c.Sense {
		case LE:
			if lhs > c.RHS+tol {
				return false
			}
		case GE:
			if lhs < c.RHS-tol {
				return false
			}
		case EQ:
			if math.Abs(lhs-c.RHS) > tol+1e-9 {
				return false
			}
		}
	}
	return true
}

func TestKnapsackILP(t *testing.T) {
	// Classic 0/1 knapsack: values 60,100,120 weights 10,20,30 cap 50.
	// Optimum: items 2+3 = 220 (minimize negative value).
	p := &Problem{
		NumVars:   3,
		Objective: []float64{-60, -100, -120},
		Constraints: []Constraint{
			{Coeffs: map[int]float64{0: 10, 1: 20, 2: 30}, Sense: LE, RHS: 50},
		},
		Upper:   []float64{1, 1, 1},
		Integer: []bool{true, true, true},
	}
	s, err := SolveILP(p, BnBOptions{})
	if err != nil || s.Status != Optimal {
		t.Fatalf("status=%v err=%v", s.Status, err)
	}
	if !approx(s.Objective, -220, 1e-6) {
		t.Errorf("objective %v want -220", s.Objective)
	}
	if math.Round(s.X[0]) != 0 || math.Round(s.X[1]) != 1 || math.Round(s.X[2]) != 1 {
		t.Errorf("x=%v want (0,1,1)", s.X)
	}
}

func TestILPMatchesBruteForceOnRandomBinaries(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 2 + r.Intn(5) // up to 6 binary vars
		p := &Problem{
			NumVars:   n,
			Objective: make([]float64, n),
			Upper:     make([]float64, n),
			Integer:   make([]bool, n),
		}
		for j := 0; j < n; j++ {
			p.Objective[j] = math.Round(r.Float64()*20 - 10)
			p.Upper[j] = 1
			p.Integer[j] = true
		}
		// One or two random LE constraints.
		for k := 0; k < 1+r.Intn(2); k++ {
			c := map[int]float64{}
			for j := 0; j < n; j++ {
				c[j] = math.Round(r.Float64() * 5)
			}
			p.Constraints = append(p.Constraints, Constraint{
				Coeffs: c, Sense: LE, RHS: math.Round(r.Float64() * float64(3*n)),
			})
		}
		s, err := SolveILP(p, BnBOptions{})
		if err != nil {
			return false
		}
		// Brute force.
		bestObj := math.Inf(1)
		found := false
		for mask := 0; mask < 1<<n; mask++ {
			x := make([]float64, n)
			for j := 0; j < n; j++ {
				if mask&(1<<j) != 0 {
					x[j] = 1
				}
			}
			if !feasible(p, x, 1e-9) {
				continue
			}
			found = true
			var obj float64
			for j := range x {
				obj += p.Objective[j] * x[j]
			}
			if obj < bestObj {
				bestObj = obj
			}
		}
		if !found {
			return s.Status == Infeasible
		}
		return s.Status == Optimal && approx(s.Objective, bestObj, 1e-6)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestILPNodeLimit(t *testing.T) {
	// A deliberately branchy problem with a 1-node budget returns Limit
	// or an incumbent, never a wrong Optimal claim.
	n := 8
	p := &Problem{
		NumVars:   n,
		Objective: make([]float64, n),
		Upper:     make([]float64, n),
		Integer:   make([]bool, n),
	}
	c := map[int]float64{}
	for j := 0; j < n; j++ {
		p.Objective[j] = -1
		p.Upper[j] = 1
		p.Integer[j] = true
		c[j] = 2
	}
	p.Constraints = []Constraint{{Coeffs: c, Sense: LE, RHS: float64(n) - 0.5}}
	s, err := SolveILP(p, BnBOptions{MaxNodes: 1})
	if err != nil {
		t.Fatal(err)
	}
	if s.Status == Optimal {
		t.Errorf("1-node search claimed optimality")
	}
}

func TestStatusStrings(t *testing.T) {
	for s, want := range map[Status]string{
		Optimal: "optimal", Infeasible: "infeasible", Unbounded: "unbounded", Limit: "limit",
	} {
		if s.String() != want {
			t.Errorf("%v", s)
		}
	}
	if Status(9).String() == "" {
		t.Error("unknown status must stringify")
	}
}
