// Package stat provides the statistics the experiments report with:
// streaming estimators (Welford mean and variance, moving averages),
// Student-t confidence intervals, empirical CDFs, Jain's fairness index
// and the power-law popularity weights of the synthetic mobility model.
//
// Everything here is implemented from scratch on top of the standard
// library so the module has no external dependencies. The regularized
// incomplete beta function behind the Student-t CDF follows the
// classical continued-fraction evaluation and is accurate to roughly
// 1e-10 over the parameter ranges the experiments exercise.
package stat

import (
	"errors"
	"math"
)

// ErrDomain is returned when a special function is evaluated outside
// its mathematical domain.
var ErrDomain = errors.New("stat: argument outside function domain")

const (
	// maxIter bounds the continued-fraction iterations of BetaReg.
	maxIter = 500
	// convEps is the relative convergence tolerance.
	convEps = 3e-14
	// tinyFloat guards continued fractions against division by zero.
	tinyFloat = 1e-300
)

// BetaReg computes the regularized incomplete beta function
// I_x(a, b) for a, b > 0 and x in [0, 1].
//
// I_x(a, b) is the CDF of a Beta(a, b) random variable; it underlies the
// Student-t CDF behind this package's confidence intervals.
func BetaReg(a, b, x float64) (float64, error) {
	switch {
	case a <= 0 || b <= 0 || math.IsNaN(x):
		return math.NaN(), ErrDomain
	case x < 0 || x > 1:
		return math.NaN(), ErrDomain
	case x == 0:
		return 0, nil
	case x == 1:
		return 1, nil
	}
	lbeta := lgammaSum(a, b)
	front := math.Exp(a*math.Log(x) + b*math.Log(1-x) - lbeta)
	// Use the continued fraction directly when x is below the
	// symmetry point; otherwise use the reflection identity.
	if x < (a+1)/(a+b+2) {
		cf, err := betaContinued(a, b, x)
		if err != nil {
			return math.NaN(), err
		}
		return front * cf / a, nil
	}
	cf, err := betaContinued(b, a, 1-x)
	if err != nil {
		return math.NaN(), err
	}
	return 1 - front*cf/b, nil
}

// lgammaSum returns log(Beta(a,b)) = lgamma(a)+lgamma(b)-lgamma(a+b).
func lgammaSum(a, b float64) float64 {
	la, _ := math.Lgamma(a)
	lb, _ := math.Lgamma(b)
	lab, _ := math.Lgamma(a + b)
	return la + lb - lab
}

// betaContinued evaluates the continued fraction for the incomplete beta
// function by the modified Lentz algorithm.
func betaContinued(a, b, x float64) (float64, error) {
	qab := a + b
	qap := a + 1
	qam := a - 1
	c := 1.0
	d := 1 - qab*x/qap
	if math.Abs(d) < tinyFloat {
		d = tinyFloat
	}
	d = 1 / d
	h := d
	for m := 1; m <= maxIter; m++ {
		fm := float64(m)
		m2 := 2 * fm
		aa := fm * (b - fm) * x / ((qam + m2) * (a + m2))
		d = 1 + aa*d
		if math.Abs(d) < tinyFloat {
			d = tinyFloat
		}
		c = 1 + aa/c
		if math.Abs(c) < tinyFloat {
			c = tinyFloat
		}
		d = 1 / d
		h *= d * c
		aa = -(a + fm) * (qab + fm) * x / ((a + m2) * (qap + m2))
		d = 1 + aa*d
		if math.Abs(d) < tinyFloat {
			d = tinyFloat
		}
		c = 1 + aa/c
		if math.Abs(c) < tinyFloat {
			c = tinyFloat
		}
		d = 1 / d
		del := d * c
		h *= del
		if math.Abs(del-1) < convEps {
			return h, nil
		}
	}
	return math.NaN(), errors.New("stat: incomplete beta continued fraction did not converge")
}
