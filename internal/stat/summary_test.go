package stat

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestWelfordAgainstDirect(t *testing.T) {
	xs := []float64{3, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5}
	var w Welford
	for _, x := range xs {
		w.Add(x)
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	mean := sum / float64(len(xs))
	var ss float64
	for _, x := range xs {
		ss += (x - mean) * (x - mean)
	}
	variance := ss / float64(len(xs)-1)
	if !almostEqual(w.Mean(), mean, 1e-12) {
		t.Errorf("mean %v want %v", w.Mean(), mean)
	}
	if !almostEqual(w.Variance(), variance, 1e-12) {
		t.Errorf("variance %v want %v", w.Variance(), variance)
	}
	if w.N() != len(xs) {
		t.Errorf("n=%d", w.N())
	}
}

func TestWelfordEmptyAndSingle(t *testing.T) {
	var w Welford
	if w.Mean() != 0 || w.Variance() != 0 || w.StdErr() != 0 {
		t.Error("empty Welford must report zeros")
	}
	w.Add(42)
	if w.Mean() != 42 || w.Variance() != 0 {
		t.Error("single-sample Welford")
	}
}

func TestMovingAverage(t *testing.T) {
	m := MovingAverage{Default: 99}
	if m.Value() != 99 {
		t.Error("default not reported")
	}
	m.Observe(10)
	m.Observe(20)
	m.Observe(30)
	if !almostEqual(m.Value(), 20, 1e-12) {
		t.Errorf("avg %v want 20", m.Value())
	}
	if m.N() != 3 {
		t.Errorf("n=%d", m.N())
	}
}

func TestECDF(t *testing.T) {
	e := NewECDF([]float64{1, 2, 2, 3})
	if e.N() != 4 {
		t.Fatalf("n=%d", e.N())
	}
	cases := []struct{ x, want float64 }{
		{0.5, 0}, {1, 0.25}, {1.5, 0.25}, {2, 0.75}, {3, 1}, {10, 1},
	}
	for _, c := range cases {
		if got := e.At(c.x); !almostEqual(got, c.want, 1e-12) && got != c.want {
			t.Errorf("At(%v)=%v want %v", c.x, got, c.want)
		}
	}
	xs, ys := e.Points(4)
	if len(xs) != 4 || len(ys) != 4 {
		t.Fatalf("points %v %v", xs, ys)
	}
	if ys[len(ys)-1] != 1 {
		t.Errorf("last CDF point %v want 1", ys[len(ys)-1])
	}
}

func TestECDFMonotone(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(100)
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = r.NormFloat64()
		}
		e := NewECDF(xs)
		prev := -1.0
		for x := -3.0; x <= 3.0; x += 0.25 {
			v := e.At(x)
			if v < prev || v < 0 || v > 1 {
				return false
			}
			prev = v
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestJainIndex(t *testing.T) {
	if got := JainIndex([]float64{5, 5, 5, 5}); !almostEqual(got, 1, 1e-12) {
		t.Errorf("equal values: %v want 1", got)
	}
	// One user hogs everything: J = 1/n.
	if got := JainIndex([]float64{1, 0, 0, 0}); !almostEqual(got, 0.25, 1e-12) {
		t.Errorf("max unfair: %v want 0.25", got)
	}
	if got := JainIndex([]float64{0, 0}); got != 1 {
		t.Errorf("all-zero: %v want 1", got)
	}
	if !math.IsNaN(JainIndex(nil)) {
		t.Error("empty must be NaN")
	}
}

func TestJainIndexBounds(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(50)
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = r.Float64() * 100
		}
		j := JainIndex(xs)
		return j >= 1/float64(n)-1e-12 && j <= 1+1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
