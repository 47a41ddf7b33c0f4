package trace

import (
	"fmt"
	"math"
	"slices"

	"rapid/internal/packet"
)

// MinPeriod is the smallest admissible repeat period of a periodic
// contact. A period in (0, MinPeriod) would expand to billions of
// occurrences over any realistic horizon — Validate rejects it so a
// miscomputed period cannot OOM the expansion.
const MinPeriod = 1e-6

// PeriodicContact is one recurring transfer opportunity of a
// deterministic contact plan: nodes A and B are in range at
// Start, Start+Period, Start+2·Period, ... and can exchange Bytes bytes
// each time. Period <= 0 declares a one-shot contact. This is the
// contact-graph abstraction used for networks whose connectivity is
// computable in advance — satellite constellations with known orbits,
// scheduled data mules — as opposed to the statistical meeting processes
// of the mobility models.
//
// A contact with Window > 0 is duration-aware: each occurrence is a
// pass window of Window seconds at RateBps (capacity Window·RateBps)
// rather than a point meeting of Bytes. Window == 0 keeps the legacy
// point form.
type PeriodicContact struct {
	A, B   packet.NodeID
	Start  float64
	Period float64
	Bytes  int64
	// Window is each occurrence's temporal extent in seconds
	// (0 = point contact).
	Window float64
	// RateBps is the link rate across each window; required positive
	// when Window > 0, ignored otherwise.
	RateBps float64
}

// ContactPlan is a deterministic, periodic contact schedule over a
// horizon. Unlike a mobility model, expanding a plan consumes no
// randomness: the same plan always flattens to the byte-identical
// Schedule.
type ContactPlan struct {
	Contacts []PeriodicContact
	// Duration is the expansion horizon in seconds.
	Duration float64
}

// Add appends one periodic point contact to the plan.
func (cp *ContactPlan) Add(a, b packet.NodeID, start, period float64, bytes int64) {
	cp.Contacts = append(cp.Contacts, PeriodicContact{
		A: a, B: b, Start: start, Period: period, Bytes: bytes,
	})
}

// AddWindow appends one periodic windowed contact: each occurrence
// lasts `window` seconds at rateBps.
func (cp *ContactPlan) AddWindow(a, b packet.NodeID, start, period, window, rateBps float64) {
	cp.Contacts = append(cp.Contacts, PeriodicContact{
		A: a, B: b, Start: start, Period: period,
		Window: window, RateBps: rateBps,
	})
}

// MaxOccurrences bounds how many occurrences one periodic contact may
// expand to. A plan past it is a configuration error (the largest real
// constellation plans sit around 10⁴–10⁵ per contact), and without the
// bound a huge horizon over a small period would OOM the expansion that
// MinPeriod alone cannot prevent.
const MaxOccurrences = 1 << 20

// Validate checks structural invariants of the plan itself (the
// expanded schedule re-checks the flattened form via Schedule.Validate),
// node IDs in [0, MaxNodeID) among them.
func (cp *ContactPlan) Validate() error {
	// A non-finite horizon would make the cursor's t >= Duration
	// termination test unsatisfiable (NaN compares false forever) or
	// run a periodic contact without end.
	if math.IsNaN(cp.Duration) || math.IsInf(cp.Duration, 0) || cp.Duration < 0 {
		return fmt.Errorf("trace: plan duration %v is not a finite non-negative horizon", cp.Duration)
	}
	for i, c := range cp.Contacts {
		if c.A == c.B {
			return fmt.Errorf("trace: plan contact %d is a self-contact of node %d", i, c.A)
		}
		if err := checkNodes("plan contact", i, c.A, c.B); err != nil {
			return err
		}
		if c.Start < 0 || math.IsNaN(c.Start) || math.IsInf(c.Start, 0) {
			return fmt.Errorf("trace: plan contact %d starts at %v", i, c.Start)
		}
		if math.IsNaN(c.Period) || math.IsInf(c.Period, 0) || (c.Period > 0 && c.Period < MinPeriod) {
			return fmt.Errorf("trace: plan contact %d has period %v below the %g floor",
				i, c.Period, MinPeriod)
		}
		if c.Period > 0 && (cp.Duration-c.Start)/c.Period > MaxOccurrences {
			return fmt.Errorf("trace: plan contact %d expands to over %d occurrences (start %v, period %v, horizon %v)",
				i, MaxOccurrences, c.Start, c.Period, cp.Duration)
		}
		if c.Bytes < 0 {
			return fmt.Errorf("trace: plan contact %d has negative size", i)
		}
		if c.Window < 0 || math.IsNaN(c.Window) {
			return fmt.Errorf("trace: plan contact %d has window %v", i, c.Window)
		}
		if c.Window > 0 {
			if c.RateBps <= 0 || math.IsInf(c.RateBps, 0) || math.IsNaN(c.RateBps) {
				return fmt.Errorf("trace: plan contact %d has rate %v", i, c.RateBps)
			}
			if c.Period > 0 && c.Window > c.Period {
				return fmt.Errorf("trace: plan contact %d window %v exceeds its period %v (self-overlap)",
					i, c.Window, c.Period)
			}
		}
	}
	return nil
}

// Expand flattens the plan into a meeting schedule over [0, Duration)
// by draining its cursor: point occurrences go to Meetings and windows
// to Contacts, each list in the cursor's order (see PlanCursor for
// the order, the half-open horizon and the clipping of windows). Both
// lists are allocated once, at their counted lengths.
func (cp *ContactPlan) Expand() *Schedule {
	points, windows := cp.Occurrences()
	s := &Schedule{Duration: cp.Duration,
		Meetings: slices.Grow([]Meeting(nil), points), Contacts: slices.Grow([]Contact(nil), windows)}
	cur := cp.Cursor(false)
	for c, ok := cur.Next(); ok; c, ok = cur.Next() {
		if m, point := c.AsMeeting(); point {
			s.Meetings = append(s.Meetings, m)
		} else {
			s.Contacts = append(s.Contacts, c)
		}
	}
	return s
}
