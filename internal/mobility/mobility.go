// Package mobility generates synthetic node-meeting schedules for the
// paper's two synthetic models (§6.3): uniform exponential inter-meeting
// times and popularity-skewed power-law meeting rates. Both produce
// trace.Schedule values, so simulations are agnostic to whether a
// schedule came from a mobility model or a (synthetic) DieselNet trace.
package mobility

import (
	"fmt"
	"math"
	"math/rand"

	"rapid/internal/packet"
	"rapid/internal/stat"
	"rapid/internal/trace"
)

// Model produces meeting schedules for a node population over a horizon.
type Model interface {
	// Schedule draws a meeting schedule using r.
	Schedule(r *rand.Rand) *trace.Schedule
}

// Config carries the parameters shared by the synthetic models
// (Table 4's synthetic column).
type Config struct {
	Nodes    int     // population size (paper: 20)
	Duration float64 // seconds (paper: 15 min = 900 s)
	// MeanMeeting is the mean inter-meeting time of a node pair in
	// seconds for the exponential model, and the base mean that
	// popularity skews for the power-law model.
	MeanMeeting float64
	// TransferBytes is the size of every transfer opportunity
	// (Table 4: average 100 KB). Jitter makes sizes vary ±50% while
	// preserving the mean.
	TransferBytes int64
	Jitter        bool
}

// Validate rejects a config the models cannot draw a finite schedule
// from: fewer than two nodes, a non-finite or non-positive horizon or
// mean inter-meeting time (a zero mean asks for unboundedly many
// meetings), or empty transfer opportunities.
func (c Config) Validate() error {
	positive := func(v float64) bool { return v > 0 && !math.IsInf(v, 1) }
	switch {
	case c.Nodes < 2:
		return fmt.Errorf("mobility: %d nodes, need at least 2", c.Nodes)
	case !positive(c.Duration):
		return fmt.Errorf("mobility: duration %v must be finite and positive", c.Duration)
	case !positive(c.MeanMeeting):
		return fmt.Errorf("mobility: mean meeting time %v must be finite and positive", c.MeanMeeting)
	case c.TransferBytes <= 0:
		return fmt.Errorf("mobility: transfer bytes %d must be positive", c.TransferBytes)
	}
	return nil
}

// ByName constructs a Model from its registry name — the spec
// constructor used by the scenario layer and the command-line tools.
// alpha and ranks parameterize the power-law model only (alpha <= 0
// selects 1; nil ranks order popularity by node index).
func ByName(name string, cfg Config, alpha float64, ranks []int) (Model, error) {
	switch name {
	case "exponential":
		return Exponential{Config: cfg}, nil
	case "powerlaw":
		return PowerLaw{Config: cfg, Alpha: alpha, Ranks: ranks}, nil
	default:
		return nil, fmt.Errorf("mobility: unknown model %q", name)
	}
}

// Exponential is the uniform exponential mobility model: every node
// pair meets according to an independent Poisson process with identical
// rate 1/MeanMeeting (§4.1.1's "uniform exponential distribution").
type Exponential struct {
	Config
}

// Schedule implements Model.
func (m Exponential) Schedule(r *rand.Rand) *trace.Schedule {
	s := &trace.Schedule{Duration: m.Duration}
	for i := 0; i < m.Nodes; i++ {
		for j := i + 1; j < m.Nodes; j++ {
			appendPoissonMeetings(s, packet.NodeID(i), packet.NodeID(j),
				1/m.MeanMeeting, m.TransferBytes, m.Jitter, r)
		}
	}
	s.Sort()
	return s
}

// PowerLaw is the popularity-skewed model of §6.3: "two nodes meet with
// an exponential inter-meeting time, but the mean of the exponential
// distribution is determined by the popularity of the nodes". Each node
// gets a popularity rank 1..Nodes (1 = most popular); the pairwise
// meeting rate is the base rate scaled by the geometric mean of the two
// nodes' power-law weights, normalized so the population-average rate
// matches the exponential model with the same Config (which keeps the
// two models' load axes comparable, as Table 4 requires).
type PowerLaw struct {
	Config
	// Alpha is the power-law exponent over popularity ranks.
	Alpha float64
	// Ranks optionally assigns a popularity rank (0 = most popular) to
	// each node ID. Popularity is a property of the experiment, not of
	// an individual schedule draw, so it is fixed here rather than
	// redrawn per Schedule call. When nil, node i has rank i.
	Ranks []int
}

// RandomRanks returns a random popularity assignment for n nodes drawn
// once per experiment ("we randomly set a popularity value of 1 to 20",
// §6.3).
func RandomRanks(n int, r *rand.Rand) []int { return r.Perm(n) }

// Schedule implements Model.
func (m PowerLaw) Schedule(r *rand.Rand) *trace.Schedule {
	alpha := m.Alpha
	if alpha <= 0 {
		alpha = 1
	}
	w := stat.PowerLawWeights(m.Nodes, alpha)
	nodeW := make([]float64, m.Nodes)
	for i := range nodeW {
		rank := i
		if m.Ranks != nil {
			rank = m.Ranks[i]
		}
		nodeW[i] = w[rank]
	}
	// Normalize so the mean pairwise rate is 1/MeanMeeting.
	var sum float64
	var count int
	pairW := make([][]float64, m.Nodes)
	for i := range pairW {
		pairW[i] = make([]float64, m.Nodes)
	}
	for i := 0; i < m.Nodes; i++ {
		for j := i + 1; j < m.Nodes; j++ {
			g := geomMean(nodeW[i], nodeW[j])
			pairW[i][j] = g
			sum += g
			count++
		}
	}
	norm := (1 / m.MeanMeeting) / (sum / float64(count))
	s := &trace.Schedule{Duration: m.Duration}
	for i := 0; i < m.Nodes; i++ {
		for j := i + 1; j < m.Nodes; j++ {
			appendPoissonMeetings(s, packet.NodeID(i), packet.NodeID(j),
				pairW[i][j]*norm, m.TransferBytes, m.Jitter, r)
		}
	}
	s.Sort()
	return s
}

// appendPoissonMeetings adds meetings for one pair as a Poisson process.
func appendPoissonMeetings(s *trace.Schedule, a, b packet.NodeID, rate float64, bytes int64, jitter bool, r *rand.Rand) {
	if rate <= 0 {
		return
	}
	t := 0.0
	for {
		t += r.ExpFloat64() / rate
		if t >= s.Duration {
			return
		}
		sz := bytes
		if jitter {
			// Uniform in [0.5, 1.5] × bytes keeps the mean at bytes.
			sz = int64(float64(bytes) * (0.5 + r.Float64()))
		}
		s.Meetings = append(s.Meetings, trace.Meeting{A: a, B: b, Time: t, Bytes: sz})
	}
}

func geomMean(a, b float64) float64 {
	if a <= 0 || b <= 0 {
		return 0
	}
	return math.Sqrt(a * b)
}
