package stat

import "math"

// PowerLawWeights returns per-rank popularity weights for n entities
// following a discrete power law (Zipf-like) with exponent alpha > 0:
// weight(rank) = rank^-alpha, rank in [1, n]. The paper's power-law
// mobility model skews exponential meeting rates by node popularity
// (§6.3); these weights supply the skew.
func PowerLawWeights(n int, alpha float64) []float64 {
	w := make([]float64, n)
	for i := 0; i < n; i++ {
		w[i] = math.Pow(float64(i+1), -alpha)
	}
	return w
}
