package stat

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, tol float64) bool {
	if math.IsNaN(a) || math.IsNaN(b) {
		return false
	}
	if a == b {
		return true
	}
	diff := math.Abs(a - b)
	if diff <= tol {
		return true
	}
	return diff <= tol*math.Max(math.Abs(a), math.Abs(b))
}

func TestBetaRegKnownValues(t *testing.T) {
	cases := []struct{ a, b, x, want float64 }{
		{1, 1, 0.3, 0.3},  // Beta(1,1) is uniform
		{2, 2, 0.5, 0.5},  // symmetric
		{2, 1, 0.5, 0.25}, // I_x(2,1) = x^2
		{1, 2, 0.5, 0.75}, // I_x(1,2) = 1-(1-x)^2
		{5, 5, 0.5, 0.5},
		{0.5, 0.5, 0.25, 1.0 / 3.0}, // arcsine distribution: 2/pi asin(sqrt x)
	}
	for _, c := range cases {
		got, err := BetaReg(c.a, c.b, c.x)
		if err != nil {
			t.Fatalf("BetaReg(%v,%v,%v): %v", c.a, c.b, c.x, err)
		}
		if !almostEqual(got, c.want, 1e-8) {
			t.Errorf("BetaReg(%v,%v,%v)=%v want %v", c.a, c.b, c.x, got, c.want)
		}
	}
}

func TestBetaRegSymmetry(t *testing.T) {
	// I_x(a,b) = 1 - I_{1-x}(b,a)
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a := 0.2 + 10*r.Float64()
		b := 0.2 + 10*r.Float64()
		x := r.Float64()
		l, err1 := BetaReg(a, b, x)
		rr, err2 := BetaReg(b, a, 1-x)
		if err1 != nil || err2 != nil {
			return false
		}
		return almostEqual(l, 1-rr, 1e-9)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestBetaRegEdges(t *testing.T) {
	if v, err := BetaReg(2, 3, 0); err != nil || v != 0 {
		t.Errorf("BetaReg(2,3,0)=%v,%v", v, err)
	}
	if v, err := BetaReg(2, 3, 1); err != nil || v != 1 {
		t.Errorf("BetaReg(2,3,1)=%v,%v", v, err)
	}
	if _, err := BetaReg(0, 1, 0.5); err == nil {
		t.Error("expected domain error for a=0")
	}
	if _, err := BetaReg(1, 1, 1.5); err == nil {
		t.Error("expected domain error for x>1")
	}
}
