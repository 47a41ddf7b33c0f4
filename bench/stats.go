package main

import "sort"

// mean is the arithmetic mean of xs (0 when empty).
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// median is the middle of xs (0 when empty).
func median(xs []float64) float64 {
	return quartiles(xs)[1]
}

// quartiles returns the first quartile, median and third quartile of xs
// by the exclusive method (Python's statistics.quantiles default),
// falling back to the extremes for fewer than two values.
func quartiles(xs []float64) [3]float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	switch n {
	case 0:
		return [3]float64{}
	case 1:
		return [3]float64{s[0], s[0], s[0]}
	}
	var q [3]float64
	for i := range q {
		// Position (n+1)·k/4 in 1-based ranks, clamped to the data.
		pos := float64(n+1) * float64(i+1) / 4
		j := int(pos)
		switch {
		case j < 1:
			q[i] = s[0]
		case j >= n:
			q[i] = s[n-1]
		default:
			q[i] = s[j-1] + (pos-float64(j))*(s[j]-s[j-1])
		}
	}
	return q
}
