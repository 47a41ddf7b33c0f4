package stat

// CI is a sample mean with the symmetric half-width of its two-sided
// Student-t confidence interval: the interval is [Mean-Half, Mean+Half].
// The replication engine (internal/exp) reduces per-replication metric
// draws to one CI per experiment point.
type CI struct {
	Mean float64
	Half float64
	N    int
}

// CI reduces the accumulator to a confidence interval at the given
// level (e.g. 0.95). With fewer than two observations the half-width
// is 0 — a single replication has a mean but no spread estimate.
func (w *Welford) CI(conf float64) CI {
	ci := CI{Mean: w.Mean(), N: w.N()}
	if w.n < 2 {
		return ci
	}
	t, err := StudentTQuantile(conf, float64(w.n-1))
	if err != nil {
		return ci
	}
	ci.Half = t * w.StdErr()
	return ci
}
