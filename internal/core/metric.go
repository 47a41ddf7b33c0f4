package core

import (
	"fmt"
	"math"

	"rapid/internal/buffer"
	"rapid/internal/packet"
)

// Metric selects the routing objective RAPID optimizes (§3.5). RAPID is
// *intentional*: the same protocol machinery serves each metric through
// a different utility function.
type Metric int

const (
	// AvgDelay minimizes the average delivery delay: U_i = -D(i)
	// (Eq. 1).
	AvgDelay Metric = iota
	// Deadline minimizes missed deadlines:
	// U_i = P(a(i) < L(i) - T(i)) (Eq. 2).
	Deadline
	// MaxDelay minimizes the maximum delay: U_i = -D(i) for the packet
	// with the largest expected delay, 0 otherwise (Eq. 3), evaluated
	// work-conservingly.
	MaxDelay
)

// String implements fmt.Stringer.
func (m Metric) String() string {
	switch m {
	case AvgDelay:
		return "avg-delay"
	case Deadline:
		return "deadline"
	case MaxDelay:
		return "max-delay"
	default:
		return fmt.Sprintf("Metric(%d)", int(m))
	}
}

// delayCap bounds infinite delay estimates so utility comparisons stay
// ordered: an unreachable-destination estimate is "worse than anything
// reachable" rather than NaN arithmetic. The experiment horizon is the
// natural bound (a packet cannot wait longer than the run).
func delayCap(horizon float64) float64 {
	if horizon > 0 {
		return horizon * 10
	}
	return 1e12
}

func capDelay(d, cap float64) float64 {
	if math.IsInf(d, 1) || d > cap {
		return cap
	}
	return d
}

// marginalAvgDelay returns δU_i for the average-delay metric: the
// reduction in expected delay from adding a replica with hypothesized
// direct-delivery delay dY to a packet whose current combined delivery
// rate is `rate` (U = -D, so δU = A_before - A_after; the T(i) term
// cancels). Operating on rates keeps the per-candidate evaluation
// allocation-free.
func marginalAvgDelay(rate float64, delivered bool, dY, cap float64) float64 {
	if delivered || math.IsInf(dY, 1) || dY <= 0 {
		return 0 // already delivered, or a peer that can never deliver
	}
	before := cap
	if rate > 0 {
		before = capDelay(1/rate, cap)
	}
	after := capDelay(1/(rate+1/dY), cap)
	d := before - after
	if d < 0 {
		return 0
	}
	return d
}

// marginalDeadline returns δU_i for the deadline metric: the increase
// in the probability of delivery within the packet's remaining life
// (Eq. 7 applied before/after the hypothetical replica).
func marginalDeadline(rate float64, delivered bool, dY float64, p *packet.Packet, now float64) float64 {
	if p.Deadline == 0 || delivered {
		return 0 // no deadline, or nothing left to improve
	}
	rem := p.Deadline - now
	if rem <= 0 {
		return 0 // "A packet that has missed its deadline can no
		// longer improve performance" (Eq. 2's 0 branch)
	}
	if math.IsInf(dY, 1) || dY <= 0 {
		return 0
	}
	before := -math.Expm1(-rate * rem)
	after := -math.Expm1(-(rate + 1/dY) * rem)
	d := after - before
	if d < 0 {
		return 0
	}
	return d
}

// evictionUtility ranks buffered packets for deletion under storage
// pressure: lowest utility evicted first (§3.4). The keys follow each
// metric's utility directly; ahead is the entry's b(i) in the node's
// own queue. The deadline key reads the meeting matrix only for live
// deadlines.
func evictionUtility(m Metric, est *Estimator, ahead int64, e *buffer.Entry, now, cap float64) float64 {
	switch m {
	case Deadline:
		if e.P.Deadline == 0 {
			return 0
		}
		rem := e.P.Deadline - now
		if rem <= 0 {
			return -1 // expired packets deleted before anything else
		}
		rate, delivered := est.RateSum(e.P, ahead)
		if delivered {
			return 1
		}
		return -math.Expm1(-rate * rem)
	case MaxDelay:
		// Keeping the oldest, most-delayed packets is what minimizes
		// the maximum: evict the packet with the smallest expected
		// delay first.
		return capDelay(est.ExpectedDelay(e.P, ahead, now), cap)
	default: // AvgDelay
		// U = -D(i): the packet with the largest expected delay
		// contributes least and is evicted first.
		return -capDelay(est.ExpectedDelay(e.P, ahead, now), cap)
	}
}
