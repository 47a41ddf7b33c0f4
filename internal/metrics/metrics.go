// Package metrics collects per-packet delivery records and channel
// accounting during a simulation run and reduces them to the quantities
// the paper's evaluation reports: average delay, maximum delay, delivery
// rate, fraction delivered within deadline, average delay including
// undelivered packets (Fig. 13), per-cohort Jain fairness (Fig. 15),
// and metadata/bandwidth ratios (Table 3, Fig. 9).
package metrics

import (
	"math"
	"sort"

	"rapid/internal/meet"
	"rapid/internal/packet"
	"rapid/internal/stat"
)

// Record tracks one packet's fate.
type Record struct {
	P           *packet.Packet
	Delivered   bool
	DeliveredAt float64
	Hops        int // path length of the first delivered copy
}

// Delta is the channel-accounting portion of a Collector. Sessions of
// the parallel engine accumulate into a private Delta during the
// concurrent phase and fold it into the collector at commit, keeping
// global counters in exact serial order.
type Delta struct {
	Meetings         int
	OpportunityBytes int64 // total contact capacity offered
	DataBytes        int64 // payload bytes transferred (incl. duplicates)
	MetaBytes        int64 // control-channel bytes
	Replications     int   // replica transfers
	DirectDeliveries int
	// LostTransfers counts data transfers the disruption layer lost in
	// flight: their bytes are spent (inside DataBytes' complement of
	// the opportunity) but no data moved.
	LostTransfers int
}

// Add folds o into d.
func (d *Delta) Add(o *Delta) {
	d.Meetings += o.Meetings
	d.OpportunityBytes += o.OpportunityBytes
	d.DataBytes += o.DataBytes
	d.MetaBytes += o.MetaBytes
	d.Replications += o.Replications
	d.DirectDeliveries += o.DirectDeliveries
	d.LostTransfers += o.LostTransfers
}

// Collector accumulates simulation outcomes. The zero value is unusable;
// construct with New. Not safe for concurrent use.
type Collector struct {
	byID  packet.Table[Record]
	order []*Record // insertion order for deterministic iteration

	// Delta holds the channel accounting; embedding promotes the
	// counter fields (c.Meetings etc.) unchanged.
	Delta

	// EventsExecuted is the simulation engine's executed-event count for
	// the run that produced this collector (set by routing.Run; the
	// simulation service's events-executed telemetry counter). It is
	// engine bookkeeping, not an outcome: identical outcomes may execute
	// different event counts (a streamed packet source adds pump events
	// that an upfront workload does not), so it is deliberately absent
	// from Summary and from equivalence fingerprints.
	EventsExecuted uint64

	// Batches, BatchedEvents and CriticalPath copy the parallel
	// engine's batch counters (sim.Engine) for the same run: flushes,
	// events they held, and the summed longest key chain per flush.
	// BatchedEvents/CriticalPath is the batches' ideal parallelism. All
	// three are zero for a serial run and, like EventsExecuted, stay
	// off Summary and the fingerprints.
	Batches       uint64
	BatchedEvents uint64
	CriticalPath  uint64

	// Meet sums the work counters of every node's meeting estimator,
	// and of the shared matrix on the global channel (rows merged,
	// pairs patched, rows published, shortest-path runs), for the run. Each estimator sees the same calls in the same order at
	// every worker count, so the sums are deterministic; they are still
	// engine-side work, not outcomes, and stay off Summary and the
	// fingerprints.
	Meet meet.Stats
}

// New returns an empty collector.
func New() *Collector {
	return &Collector{}
}

// Generated registers a packet's creation. Duplicate registration is a
// programming error and panics (the workload is injected exactly once).
func (c *Collector) Generated(p *packet.Packet) {
	if c.byID.Get(p.ID) != nil {
		panic("metrics: packet generated twice")
	}
	r := &Record{P: p}
	c.byID.Set(p.ID, r)
	c.order = append(c.order, r)
}

// Delivered records the first delivery of a packet; later duplicate
// deliveries of other replicas are ignored. Unknown packets are ignored
// (defensive: a router must not invent traffic).
func (c *Collector) Delivered(id packet.ID, now float64, hops int) {
	r := c.byID.Get(id)
	if r == nil || r.Delivered {
		return
	}
	r.Delivered = true
	r.DeliveredAt = now
	r.Hops = hops
}

// IsDelivered reports whether the packet has reached its destination.
func (c *Collector) IsDelivered(id packet.ID) bool {
	r := c.byID.Get(id)
	return r != nil && r.Delivered
}

// Records returns all records in generation order. Callers must not
// modify the slice.
func (c *Collector) Records() []*Record { return c.order }

// Summary is the reduced view of a run.
type Summary struct {
	Generated int
	Delivered int
	// DeliveryRate is Delivered/Generated.
	DeliveryRate float64
	// AvgDelay is the mean delay of delivered packets (the paper's
	// "average delay of delivered packets", Figs. 4, 16, 22).
	AvgDelay float64
	// AvgDelayAll counts undelivered packets at their time-in-system up
	// to the horizon, the Fig. 13 convention ("the delay of undelivered
	// packets is set to time the packet spent in the system").
	AvgDelayAll float64
	// MaxDelay is the maximum delay over delivered packets (Figs. 6,
	// 17, 23 report delays of delivered traffic).
	MaxDelay float64
	// MaxDelayAll additionally counts undelivered packets at their time
	// in system, so a protocol cannot escape the metric by never
	// serving the oldest packet.
	MaxDelayAll float64
	// WithinDeadline is the fraction of generated packets delivered
	// before their deadline (packets without deadlines are excluded
	// from the denominator).
	WithinDeadline float64

	Meetings         int
	OpportunityBytes int64
	DataBytes        int64
	MetaBytes        int64
	// Utilization is (data+meta)/opportunity (Fig. 9's "% channel
	// utilization").
	Utilization float64
	// MetaOverData and MetaOverBandwidth are Table 3's two overhead
	// ratios.
	MetaOverData      float64
	MetaOverBandwidth float64
	// LostTransfers counts in-flight data transfers lost to the
	// disruption layer (0 in pristine runs).
	LostTransfers int
}

// Summarize reduces the collector at the given horizon (the end of the
// experiment; undelivered packets have spent horizon−created in the
// system).
func (c *Collector) Summarize(horizon float64) Summary {
	s := Summary{
		Generated:        len(c.order),
		Meetings:         c.Meetings,
		OpportunityBytes: c.OpportunityBytes,
		DataBytes:        c.DataBytes,
		MetaBytes:        c.MetaBytes,
		LostTransfers:    c.LostTransfers,
	}
	var delaySum, delayAllSum float64
	var deadlineTotal, deadlineHit int
	for _, r := range c.order {
		var d float64
		if r.Delivered {
			s.Delivered++
			d = r.DeliveredAt - r.P.Created
			delaySum += d
			if d > s.MaxDelay {
				s.MaxDelay = d
			}
		} else {
			d = horizon - r.P.Created
			if d < 0 {
				d = 0
			}
		}
		delayAllSum += d
		if d > s.MaxDelayAll {
			s.MaxDelayAll = d
		}
		if r.P.Deadline > 0 {
			deadlineTotal++
			if r.Delivered && r.DeliveredAt <= r.P.Deadline {
				deadlineHit++
			}
		}
	}
	if s.Delivered > 0 {
		s.AvgDelay = delaySum / float64(s.Delivered)
	}
	if s.Generated > 0 {
		s.DeliveryRate = float64(s.Delivered) / float64(s.Generated)
		s.AvgDelayAll = delayAllSum / float64(s.Generated)
	}
	if deadlineTotal > 0 {
		s.WithinDeadline = float64(deadlineHit) / float64(deadlineTotal)
	}
	if s.OpportunityBytes > 0 {
		s.Utilization = float64(s.DataBytes+s.MetaBytes) / float64(s.OpportunityBytes)
		s.MetaOverBandwidth = float64(s.MetaBytes) / float64(s.OpportunityBytes)
	}
	if s.DataBytes > 0 {
		s.MetaOverData = float64(s.MetaBytes) / float64(s.DataBytes)
	}
	return s
}

// CohortFairness computes Jain's fairness index per parallel-packet
// cohort (Fig. 15). Undelivered packets contribute their time in system
// at the horizon. Cohort 0 (untagged packets) is skipped. The result is
// sorted ascending, ready for a CDF.
func (c *Collector) CohortFairness(horizon float64) []float64 {
	groups := map[int][]float64{}
	for _, r := range c.order {
		if r.P.Cohort == 0 {
			continue
		}
		d := horizon - r.P.Created
		if r.Delivered {
			d = r.DeliveredAt - r.P.Created
		}
		groups[r.P.Cohort] = append(groups[r.P.Cohort], d)
	}
	out := make([]float64, 0, len(groups))
	for _, delays := range groups {
		if j := stat.JainIndex(delays); !math.IsNaN(j) {
			out = append(out, j)
		}
	}
	sort.Float64s(out)
	return out
}
