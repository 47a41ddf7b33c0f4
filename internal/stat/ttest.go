package stat

import (
	"errors"
	"math"
)

// StudentTCDF returns P(T <= t) for a Student-t random variable with nu
// degrees of freedom, via the regularized incomplete beta function.
func StudentTCDF(t, nu float64) (float64, error) {
	if nu <= 0 {
		return math.NaN(), ErrDomain
	}
	if t == 0 {
		return 0.5, nil
	}
	x := nu / (nu + t*t)
	ib, err := BetaReg(nu/2, 0.5, x)
	if err != nil {
		return math.NaN(), err
	}
	if t > 0 {
		return 1 - ib/2, nil
	}
	return ib / 2, nil
}

// StudentTQuantile returns the t-value such that P(|T| <= t) = conf for
// nu degrees of freedom — the critical value used for two-sided
// confidence intervals (e.g. conf=0.95 gives the familiar t_{0.975,nu}).
// It inverts StudentTCDF by bisection.
func StudentTQuantile(conf, nu float64) (float64, error) {
	if nu <= 0 || conf <= 0 || conf >= 1 {
		return math.NaN(), ErrDomain
	}
	target := 1 - (1-conf)/2 // upper-tail CDF value
	lo, hi := 0.0, 1e3
	for i := 0; i < 200; i++ {
		mid := (lo + hi) / 2
		c, err := StudentTCDF(mid, nu)
		if err != nil {
			return math.NaN(), err
		}
		if c < target {
			lo = mid
		} else {
			hi = mid
		}
	}
	return (lo + hi) / 2, nil
}

// MeanCI returns the sample mean and the half-width of its two-sided
// confidence interval at the given confidence level (e.g. 0.95), using
// the Student-t critical value. The paper reports 95% confidence
// intervals for simulator validation (Fig. 3).
func MeanCI(xs []float64, conf float64) (mean, halfWidth float64, err error) {
	if len(xs) == 0 {
		return math.NaN(), math.NaN(), errors.New("stat: empty sample")
	}
	var w Welford
	for _, x := range xs {
		w.Add(x)
	}
	if w.N() < 2 {
		return w.Mean(), 0, nil
	}
	tcrit, err := StudentTQuantile(conf, float64(w.N()-1))
	if err != nil {
		return math.NaN(), math.NaN(), err
	}
	return w.Mean(), tcrit * w.StdErr(), nil
}
