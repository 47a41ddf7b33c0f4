package stat

import (
	"math"
	"testing"
)

func TestWelfordCI(t *testing.T) {
	var w Welford
	for _, x := range []float64{2, 4, 6, 8, 10} {
		w.Add(x)
	}
	ci := w.CI(0.95)
	if ci.N != 5 || ci.Mean != 6 {
		t.Fatalf("CI = %+v, want mean 6 over 5", ci)
	}
	// t_{0.975,4} ≈ 2.776; stderr = sqrt(10)/sqrt(5) = sqrt(2).
	want := 2.776 * math.Sqrt2
	if math.Abs(ci.Half-want) > 0.01 {
		t.Errorf("half-width %.4f, want ≈%.4f", ci.Half, want)
	}
	// Cross-check against MeanCI on the same sample.
	mean, half, err := MeanCI([]float64{2, 4, 6, 8, 10}, 0.95)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(mean-ci.Mean) > 1e-12 || math.Abs(half-ci.Half) > 1e-9 {
		t.Errorf("Welford.CI (%v ± %v) disagrees with MeanCI (%v ± %v)", ci.Mean, ci.Half, mean, half)
	}
}

func TestWelfordCISingleton(t *testing.T) {
	var w Welford
	w.Add(3)
	ci := w.CI(0.95)
	if ci.Mean != 3 || ci.Half != 0 || ci.N != 1 {
		t.Errorf("singleton CI = %+v, want {3 0 1}", ci)
	}
}
