package stat

import (
	"math"
	"sort"
)

// Welford accumulates a running mean and variance using Welford's
// numerically stable online algorithm. The zero value is ready to use.
type Welford struct {
	n    int
	mean float64
	m2   float64
}

// Add incorporates one observation.
func (w *Welford) Add(x float64) {
	w.n++
	d := x - w.mean
	w.mean += d / float64(w.n)
	w.m2 += d * (x - w.mean)
}

// N returns the number of observations.
func (w *Welford) N() int { return w.n }

// Mean returns the running mean (0 when empty).
func (w *Welford) Mean() float64 { return w.mean }

// Variance returns the unbiased sample variance (0 for n < 2).
func (w *Welford) Variance() float64 {
	if w.n < 2 {
		return 0
	}
	return w.m2 / float64(w.n-1)
}

// StdDev returns the sample standard deviation.
func (w *Welford) StdDev() float64 { return math.Sqrt(w.Variance()) }

// StdErr returns the standard error of the mean (0 when empty).
func (w *Welford) StdErr() float64 {
	if w.n == 0 {
		return 0
	}
	return w.StdDev() / math.Sqrt(float64(w.n))
}

// MovingAverage is a simple cumulative average, as used by DieselNet
// nodes to track the expected transfer-opportunity size and the average
// inter-meeting time with each peer (§4.1.2: "calculated as the average
// of past meetings"). The zero value is ready to use; Value on an empty
// average reports the configured Default.
type MovingAverage struct {
	Default float64 // reported before any observation
	n       int
	mean    float64
}

// Observe adds a sample.
func (m *MovingAverage) Observe(x float64) {
	m.n++
	m.mean += (x - m.mean) / float64(m.n)
}

// Value returns the current average, or Default when no samples exist.
func (m *MovingAverage) Value() float64 {
	if m.n == 0 {
		return m.Default
	}
	return m.mean
}

// N returns the number of samples observed.
func (m *MovingAverage) N() int { return m.n }

// ECDF is an empirical cumulative distribution function over a fixed
// sample, supporting evaluation and extraction of plot-ready points.
// It backs the fairness CDF of Fig. 15.
type ECDF struct {
	sorted []float64
}

// NewECDF builds an ECDF from the samples (copied and sorted).
func NewECDF(xs []float64) *ECDF {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return &ECDF{sorted: s}
}

// N returns the sample count.
func (e *ECDF) N() int { return len(e.sorted) }

// At returns P(X <= x) under the empirical distribution.
func (e *ECDF) At(x float64) float64 {
	if len(e.sorted) == 0 {
		return math.NaN()
	}
	i := sort.SearchFloat64s(e.sorted, x)
	// SearchFloat64s returns the first index >= x; advance over equal
	// values so ties count as <= x.
	for i < len(e.sorted) && e.sorted[i] == x {
		i++
	}
	return float64(i) / float64(len(e.sorted))
}

// Points returns up to n (x, F(x)) pairs evenly spaced through the
// sample, suitable for plotting.
func (e *ECDF) Points(n int) (xs, ys []float64) {
	if len(e.sorted) == 0 || n <= 0 {
		return nil, nil
	}
	if n > len(e.sorted) {
		n = len(e.sorted)
	}
	xs = make([]float64, n)
	ys = make([]float64, n)
	for i := 0; i < n; i++ {
		idx := i * (len(e.sorted) - 1) / max(1, n-1)
		xs[i] = e.sorted[idx]
		ys[i] = float64(idx+1) / float64(len(e.sorted))
	}
	return xs, ys
}

// JainIndex computes Jain's fairness index over the values:
//
//	J = (sum x)^2 / (n * sum x^2)
//
// J is 1 when all values are equal and approaches 1/n under maximal
// unfairness. The paper applies it to the delays of packets created in
// parallel (Fig. 15). Returns NaN for empty input and 1 for an input of
// all zeros (all packets equally treated).
func JainIndex(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	var sum, sq float64
	for _, x := range xs {
		sum += x
		sq += x * x
	}
	if sq == 0 {
		return 1
	}
	return sum * sum / (float64(len(xs)) * sq)
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
