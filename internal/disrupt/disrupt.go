// Package disrupt is the stochastic disruption layer: seed-derived,
// deterministic-per-replication models of the ways a real DTN deviates
// from its nominal contact schedule — whole contacts that silently
// fail, per-packet Bernoulli loss inside transfer sessions, node churn
// (down intervals during which a node neither forwards nor receives),
// and contact-window jitter.
//
// Every decision is a pure function of (model seed, purpose tag,
// identity), computed by counter-based splitmix64 hashing rather than a
// shared sequential RNG. That buys three properties the replication
// harness depends on (DESIGN.md §10):
//
//   - determinism: the same spec and seed always produce the same
//     disruption realization, regardless of worker count or event
//     interleaving across goroutines — there is no RNG state to share
//     or alias;
//   - independence: distinct replications derive distinct seeds, so
//     their disruption streams are independent draws;
//   - metamorphic zero: at zero intensity (p = 0 loss, no churn, zero
//     jitter) every decision function returns its identity value
//     without consuming any stream state, so an enabled-but-zero model
//     is byte-identical to no model at all.
package disrupt

import (
	"fmt"
	"math"

	"rapid/internal/packet"
)

// Spec declares a disruption model. The zero value is the pristine
// network (disabled). All fields are comparable, so a Spec can ride in
// a scenario cache key.
type Spec struct {
	// Enabled activates the model. An enabled spec with all-zero
	// intensities runs the full decision machinery and is guaranteed to
	// produce output byte-identical to a disabled spec (the metamorphic
	// property the equivalence tests pin).
	Enabled bool
	// PContactFail is the probability that an entire contact — a point
	// meeting or a whole window — silently never happens.
	PContactFail float64
	// PLoss is the per-packet Bernoulli loss probability: each data
	// transfer (direct or replica, point or streamed) is lost with this
	// probability after its bytes are spent — the radio transmitted,
	// the receiver got garbage.
	PLoss float64
	// ChurnDownMean and ChurnUpMean are the means, in seconds, of the
	// exponential down/up intervals of node churn. Both must be
	// positive to enable churn (one-sided churn is rejected by
	// Validate). While down a node neither forwards nor receives:
	// its contacts are skipped and its live windows cut off.
	ChurnDownMean float64
	ChurnUpMean   float64
	// JitterSec shifts each contact's start instant uniformly in
	// ±JitterSec — deployment timing noise over a nominal contact
	// plan. A contact jittered outside the run's [0, horizon) window
	// is missed entirely.
	JitterSec float64
}

// Active reports whether any disruption intensity is non-zero. An
// enabled spec that is not Active must behave identically to a disabled
// one.
func (s Spec) Active() bool {
	return s.Enabled &&
		(s.PContactFail > 0 || s.PLoss > 0 || s.JitterSec > 0 ||
			(s.ChurnDownMean > 0 && s.ChurnUpMean > 0))
}

// Validate rejects specs outside the model's domain: non-finite or
// negative rates, probabilities above 1, and one-sided churn (a down
// mean without an up mean, or vice versa, would silently disable churn
// — an error is kinder than a no-op).
func (s Spec) Validate() error {
	if bad := badProb(s.PContactFail); bad != "" {
		return fmt.Errorf("disrupt: PContactFail %v is %s", s.PContactFail, bad)
	}
	if bad := badProb(s.PLoss); bad != "" {
		return fmt.Errorf("disrupt: PLoss %v is %s", s.PLoss, bad)
	}
	if bad := badRate(s.ChurnDownMean); bad != "" {
		return fmt.Errorf("disrupt: ChurnDownMean %v is %s", s.ChurnDownMean, bad)
	}
	if bad := badRate(s.ChurnUpMean); bad != "" {
		return fmt.Errorf("disrupt: ChurnUpMean %v is %s", s.ChurnUpMean, bad)
	}
	if (s.ChurnDownMean > 0) != (s.ChurnUpMean > 0) {
		return fmt.Errorf("disrupt: one-sided churn (down mean %v, up mean %v); both must be positive or both zero",
			s.ChurnDownMean, s.ChurnUpMean)
	}
	if bad := badRate(s.JitterSec); bad != "" {
		return fmt.Errorf("disrupt: JitterSec %v is %s", s.JitterSec, bad)
	}
	return nil
}

func badProb(p float64) string {
	switch {
	case math.IsNaN(p) || math.IsInf(p, 0):
		return "not finite"
	case p < 0:
		return "negative"
	case p > 1:
		return "above 1"
	}
	return ""
}

func badRate(r float64) string {
	switch {
	case math.IsNaN(r) || math.IsInf(r, 0):
		return "not finite"
	case r < 0:
		return "negative"
	}
	return ""
}

// Purpose tags separate the model's decision streams: decisions for
// different purposes over the same identity must be independent.
const (
	tagContactFail uint64 = 0xc0_17ac7
	tagJitter      uint64 = 0x717c1e
	tagLoss        uint64 = 0x105505
	tagChurn       uint64 = 0xc4_0e11
)

// Model realizes a Spec under one seed: a bundle of pure decision
// functions. The zero value is unusable; construct with New. A Model is
// immutable after construction and safe for concurrent readers.
type Model struct {
	spec Spec
	seed uint64
}

// New returns the disruption model for one replication. The seed should
// come from DeriveSeed so replications draw independent streams.
func New(spec Spec, seed uint64) *Model {
	return &Model{spec: spec, seed: seed}
}

// DeriveSeed maps a replication's simulation seed onto its disruption
// stream seed. The salt keeps disruption draws decorrelated from every
// other consumer of the simulation seed (engine streams, schedule and
// workload builders), and the splitmix64 finalizer decorrelates the
// sequential seeds of adjacent replications.
func DeriveSeed(simSeed int64) uint64 {
	const disruptSalt = 0xd15c0_5eed
	return mix64(uint64(simSeed) ^ disruptSalt)
}

// mix64 is the splitmix64 finalizer: a bijective avalanche mix whose
// output is uniform over uint64 for sequential inputs.
func mix64(h uint64) uint64 {
	h ^= h >> 30
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 27
	h *= 0x94d049bb133111eb
	h ^= h >> 31
	return h
}

// draw returns a uniform [0, 1) variate for the (tag, a, b) identity —
// the model's only source of randomness.
func (m *Model) draw(tag, a, b uint64) float64 {
	h := mix64(m.seed ^ mix64(tag) ^ mix64(a*0x9e3779b97f4a7c15+1) ^ mix64(b*0x2545f4914f6cdd1d+2))
	return float64(h>>11) / (1 << 53)
}

// ContactFails decides whether the i-th scheduled contact of the run
// (meetings first, then contacts, in schedule order) silently fails.
func (m *Model) ContactFails(i int) bool {
	if m.spec.PContactFail <= 0 {
		return false
	}
	return m.draw(tagContactFail, uint64(i), 0) < m.spec.PContactFail
}

// Jitter returns the i-th contact's start-time shift, uniform in
// ±JitterSec. At zero intensity it returns exactly 0.
func (m *Model) Jitter(i int) float64 {
	if m.spec.JitterSec <= 0 {
		return 0
	}
	return (2*m.draw(tagJitter, uint64(i), 0) - 1) * m.spec.JitterSec
}

// Lost decides whether the seq-th data transfer of the run, carrying
// the given packet, is lost. seq is the network's monotone transfer
// counter: event execution order is deterministic, so the decision
// stream is too.
func (m *Model) Lost(seq uint64, id packet.ID) bool {
	if m.spec.PLoss <= 0 {
		return false
	}
	return m.draw(tagLoss, seq, uint64(id)) < m.spec.PLoss
}

// HasLoss reports whether the model can ever lose a transfer. When
// false, callers may skip the shared transfer-sequence bookkeeping that
// feeds Lost — the counter is unobservable at zero loss — which is what
// lets loss-free disrupted runs (churn, jitter, contact failure) use
// the parallel engine.
func (m *Model) HasLoss() bool { return m.spec.PLoss > 0 }

// Interval is one half-open [Start, End) span of simulated time.
type Interval struct {
	Start, End float64
}

// maxChurnIntervals bounds the per-node down-interval expansion — a
// backstop that keeps adversarial specs (means of ~0 over a huge
// horizon) from hanging; any realistic churn process sits far below
// it. Past the cap the node simply stays up.
const maxChurnIntervals = 1 << 16

// DownIntervals expands the node's churn process over [0, horizon):
// alternating exponential up/down intervals, starting up, realized
// from the node's own decision stream. It returns nil when churn is
// disabled. The result is sorted, non-overlapping, and clipped to the
// horizon.
func (m *Model) DownIntervals(node packet.NodeID, horizon float64) []Interval {
	down, up := m.spec.ChurnDownMean, m.spec.ChurnUpMean
	if down <= 0 || up <= 0 || !(horizon > 0) {
		return nil
	}
	var out []Interval
	t := 0.0
	for k := uint64(0); len(out) < maxChurnIntervals; k++ {
		t += expDraw(m.draw(tagChurn, uint64(node), 2*k), up)
		if t >= horizon {
			break
		}
		end := t + expDraw(m.draw(tagChurn, uint64(node), 2*k+1), down)
		if end > horizon {
			end = horizon
		}
		out = append(out, Interval{Start: t, End: end})
		t = end
		if t >= horizon {
			break
		}
	}
	return out
}

// Down reports whether t falls strictly inside one of the node's down
// intervals (boundaries count as up: a contact at the exact instant a
// node drops is resolved by event order, not by the model).
func (m *Model) Down(node packet.NodeID, t, horizon float64) bool {
	for _, iv := range m.DownIntervals(node, horizon) {
		if iv.Start < t && t < iv.End {
			return true
		}
		if iv.Start >= t {
			break
		}
	}
	return false
}

// expDraw inverts the exponential CDF at u in [0, 1): -mean·ln(1-u),
// always finite and non-negative.
func expDraw(u, mean float64) float64 {
	return -mean * math.Log1p(-u)
}
