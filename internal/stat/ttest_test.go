package stat

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestStudentTCDFKnown(t *testing.T) {
	// Reference values (scipy.stats.t.cdf).
	cases := []struct{ t, nu, want float64 }{
		{0, 5, 0.5},
		{1, 1, 0.75}, // Cauchy: 1/2 + atan(1)/pi
		{2.0, 10, 0.9633059826662},
		{-2.0, 10, 0.0366940173338},
		{1.96, 1e6, 0.9750021048516},
	}
	for _, c := range cases {
		got, err := StudentTCDF(c.t, c.nu)
		if err != nil {
			t.Fatalf("StudentTCDF(%v,%v): %v", c.t, c.nu, err)
		}
		if !almostEqual(got, c.want, 1e-6) {
			t.Errorf("StudentTCDF(%v,%v)=%v want %v", c.t, c.nu, got, c.want)
		}
	}
}

func TestStudentTQuantileKnown(t *testing.T) {
	// Classic table values of t_{0.975, nu}.
	cases := []struct{ conf, nu, want float64 }{
		{0.95, 1, 12.706},
		{0.95, 5, 2.571},
		{0.95, 10, 2.228},
		{0.95, 29, 2.045},
		{0.99, 10, 3.169},
	}
	for _, c := range cases {
		got, err := StudentTQuantile(c.conf, c.nu)
		if err != nil {
			t.Fatalf("StudentTQuantile(%v,%v): %v", c.conf, c.nu, err)
		}
		if !almostEqual(got, c.want, 2e-3) {
			t.Errorf("StudentTQuantile(%v,%v)=%v want %v", c.conf, c.nu, got, c.want)
		}
	}
}

func TestStudentTQuantileInvertsCDF(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		conf := 0.5 + 0.49*r.Float64()
		nu := 1 + float64(r.Intn(100))
		q, err := StudentTQuantile(conf, nu)
		if err != nil {
			return false
		}
		c, err := StudentTCDF(q, nu)
		if err != nil {
			return false
		}
		return almostEqual(c, 1-(1-conf)/2, 1e-6)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestStudentTDomainErrors(t *testing.T) {
	if _, err := StudentTCDF(1, 0); err == nil {
		t.Error("nu=0 must error")
	}
	if _, err := StudentTQuantile(1.5, 5); err == nil {
		t.Error("conf>1 must error")
	}
	if _, err := StudentTQuantile(0.95, -1); err == nil {
		t.Error("nu<0 must error")
	}
}

func TestMeanCI(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	xs := make([]float64, 30)
	for i := range xs {
		xs[i] = 50 + r.NormFloat64()*5
	}
	mean, hw, err := MeanCI(xs, 0.95)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(mean-50) > 3 {
		t.Errorf("mean %v", mean)
	}
	if hw <= 0 || hw > 5 {
		t.Errorf("half width %v", hw)
	}
	if _, _, err := MeanCI(nil, 0.95); err == nil {
		t.Error("empty sample must error")
	}
	if m, hw, err := MeanCI([]float64{7}, 0.95); err != nil || m != 7 || hw != 0 {
		t.Errorf("single sample: %v %v %v", m, hw, err)
	}
}

// Property: the 95% CI contains the true mean roughly 95% of the time.
func TestMeanCICoverage(t *testing.T) {
	r := rand.New(rand.NewSource(77))
	hits, trials := 0, 400
	for i := 0; i < trials; i++ {
		xs := make([]float64, 20)
		for j := range xs {
			xs[j] = 10 + r.NormFloat64()*4
		}
		mean, hw, err := MeanCI(xs, 0.95)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(mean-10) <= hw {
			hits++
		}
	}
	cov := float64(hits) / float64(trials)
	if cov < 0.90 || cov > 0.99 {
		t.Errorf("coverage %v want ~0.95", cov)
	}
}
