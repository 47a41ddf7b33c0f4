// Package trace defines contact traces — the node meeting schedules of
// §3.1 — together with a text codec and the synthetic DieselNet
// generator that substitutes for the proprietary 58-day bus traces used
// by the paper (see DESIGN.md §3 for the substitution argument).
//
// A schedule is the directed multigraph G=(V,E) of the paper flattened
// into a time-sorted list of meetings, each annotated with the transfer
// opportunity size in bytes.
package trace

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"rapid/internal/packet"
)

// MaxNodeID bounds node IDs: a valid schedule or contact plan names
// only nodes in [0, MaxNodeID). Routers, estimators and the planner
// index dense per-node state by ID (DESIGN.md §11), so a negative ID
// would index out of range and a huge one would size every per-node
// table to it.
const MaxNodeID = 1 << 20

// checkNodes reports the first of a record's endpoints outside
// [0, MaxNodeID).
func checkNodes(kind string, i int, a, b packet.NodeID) error {
	for _, id := range [2]packet.NodeID{a, b} {
		if id < 0 || id >= MaxNodeID {
			return fmt.Errorf("trace: %s %d names node %d outside [0,%d)", kind, i, id, MaxNodeID)
		}
	}
	return nil
}

// Meeting is one edge of the meeting multigraph: nodes A and B are in
// radio range at Time and can exchange up to Bytes bytes in total
// (both directions share the opportunity, mirroring the merged
// connection events of the DieselNet deployment, §5).
type Meeting struct {
	A, B  packet.NodeID
	Time  float64
	Bytes int64
}

// Contact is a transfer opportunity with temporal extent: nodes A and B
// are in radio range throughout [Start, Start+Duration) and can move
// bytes at RateBps (bytes per second; the rate is shared by both
// directions and by control and data, like a Meeting's byte pool). A
// contact with Duration == 0 degrades to a point Meeting carrying
// Bytes — the degenerate form every pre-window schedule is expressed
// in — so legacy schedules and windowed ones flow through one type.
type Contact struct {
	A, B  packet.NodeID
	Start float64
	// Duration is the window length in seconds; 0 declares a point
	// contact.
	Duration float64
	// RateBps is the link rate across the window. Required positive for
	// windowed contacts; ignored for point contacts.
	RateBps float64
	// Bytes is the point-contact opportunity size, used only when
	// Duration == 0 (windowed capacity is RateBps·Duration).
	Bytes int64
}

// Windowed reports whether the contact has temporal extent.
func (c Contact) Windowed() bool { return c.Duration > 0 }

// End returns the time the window closes (Start for point contacts).
func (c Contact) End() float64 { return c.Start + c.Duration }

// EndWithin returns the close time clipped to the horizon (horizon
// <= 0 means unbounded) — the shared rule for windows dangling past
// the end of an experiment, used identically by the runtime's close
// event and by plan-ahead routers modeling it.
func (c Contact) EndWithin(horizon float64) float64 {
	end := c.End()
	if horizon > 0 && end > horizon {
		return horizon
	}
	return end
}

// Capacity returns the total transfer opportunity in bytes: the full
// window at the nominal rate, or Bytes for a point contact.
func (c Contact) Capacity() int64 {
	if c.Duration > 0 {
		return int64(c.RateBps * c.Duration)
	}
	return c.Bytes
}

// AsMeeting converts a zero-duration contact to its Meeting form; ok is
// false for windowed contacts, which have no point equivalent.
func (c Contact) AsMeeting() (Meeting, bool) {
	if c.Windowed() {
		return Meeting{}, false
	}
	return Meeting{A: c.A, B: c.B, Time: c.Start, Bytes: c.Bytes}, true
}

// Schedule is a complete meeting schedule for one experiment (one
// DieselNet day, or one synthetic-mobility run). Point meetings and
// windowed contacts coexist: legacy generators fill Meetings only,
// contact-plan generators with finite link rates fill Contacts.
type Schedule struct {
	Meetings []Meeting
	// Contacts holds duration-aware opportunities. A zero-duration
	// entry is exactly equivalent to a Meeting (the runtime degrades
	// it); a windowed entry streams bytes at RateBps across its window.
	Contacts []Contact
	// Duration is the experiment horizon in seconds; meetings all occur
	// in [0, Duration) and contact windows close by Duration.
	Duration float64
}

// Sort orders meetings by time (stable on A, B for determinism), and
// contacts by start time likewise.
func (s *Schedule) Sort() {
	sort.Slice(s.Meetings, func(i, j int) bool {
		mi, mj := s.Meetings[i], s.Meetings[j]
		if mi.Time != mj.Time {
			return mi.Time < mj.Time
		}
		if mi.A != mj.A {
			return mi.A < mj.A
		}
		return mi.B < mj.B
	})
	sort.Slice(s.Contacts, func(i, j int) bool {
		ci, cj := s.Contacts[i], s.Contacts[j]
		if ci.Start != cj.Start {
			return ci.Start < cj.Start
		}
		if ci.A != cj.A {
			return ci.A < cj.A
		}
		if ci.B != cj.B {
			return ci.B < cj.B
		}
		return ci.Duration < cj.Duration
	})
}

// Nodes returns the sorted set of node IDs that appear in the schedule.
func (s *Schedule) Nodes() []packet.NodeID {
	seen := map[packet.NodeID]bool{}
	for _, m := range s.Meetings {
		seen[m.A] = true
		seen[m.B] = true
	}
	for _, c := range s.Contacts {
		seen[c.A] = true
		seen[c.B] = true
	}
	out := make([]packet.NodeID, 0, len(seen))
	for id := range seen {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// TotalBytes sums the transfer-opportunity sizes (the denominator of the
// paper's metadata/bandwidth ratio, Table 3). Windowed contacts count
// their full-window capacity.
func (s *Schedule) TotalBytes() int64 {
	var t int64
	for _, m := range s.Meetings {
		t += m.Bytes
	}
	for _, c := range s.Contacts {
		t += c.Capacity()
	}
	return t
}

// Validate checks structural invariants: a finite horizon, time-sorted
// finite instants within duration, non-negative sizes, no
// self-meetings, node IDs in [0, MaxNodeID).
func (s *Schedule) Validate() error {
	if math.IsNaN(s.Duration) || math.IsInf(s.Duration, 0) || s.Duration < 0 {
		return fmt.Errorf("trace: schedule duration %v is not a finite non-negative horizon", s.Duration)
	}
	prev := -1.0
	for i, m := range s.Meetings {
		if m.A == m.B {
			return fmt.Errorf("trace: meeting %d is a self-meeting of node %d", i, m.A)
		}
		if err := checkNodes("meeting", i, m.A, m.B); err != nil {
			return err
		}
		if math.IsNaN(m.Time) || math.IsInf(m.Time, 0) {
			return fmt.Errorf("trace: meeting %d at non-finite time %v", i, m.Time)
		}
		if m.Time < prev {
			return fmt.Errorf("trace: meeting %d out of order (%.3f after %.3f)", i, m.Time, prev)
		}
		if m.Time < 0 || (s.Duration > 0 && m.Time >= s.Duration) {
			return fmt.Errorf("trace: meeting %d at %.3f outside [0,%.3f)", i, m.Time, s.Duration)
		}
		if m.Bytes < 0 {
			return fmt.Errorf("trace: meeting %d has negative size", i)
		}
		prev = m.Time
	}
	prev = -1.0
	for i, c := range s.Contacts {
		if c.A == c.B {
			return fmt.Errorf("trace: contact %d is a self-contact of node %d", i, c.A)
		}
		if err := checkNodes("contact", i, c.A, c.B); err != nil {
			return err
		}
		if math.IsNaN(c.Start) || math.IsInf(c.Start, 0) {
			return fmt.Errorf("trace: contact %d starts at non-finite time %v", i, c.Start)
		}
		if c.Start < prev {
			return fmt.Errorf("trace: contact %d out of order (%.3f after %.3f)", i, c.Start, prev)
		}
		if c.Start < 0 || (s.Duration > 0 && c.Start >= s.Duration) {
			return fmt.Errorf("trace: contact %d starts at %.3f outside [0,%.3f)", i, c.Start, s.Duration)
		}
		if c.Duration < 0 || math.IsNaN(c.Duration) || math.IsInf(c.Duration, 0) {
			return fmt.Errorf("trace: contact %d has duration %v", i, c.Duration)
		}
		if c.Windowed() {
			if c.RateBps <= 0 || math.IsInf(c.RateBps, 0) || math.IsNaN(c.RateBps) {
				return fmt.Errorf("trace: windowed contact %d has rate %v", i, c.RateBps)
			}
			if s.Duration > 0 && c.End() > s.Duration {
				return fmt.Errorf("trace: contact %d window [%.3f,%.3f) overruns horizon %.3f",
					i, c.Start, c.End(), s.Duration)
			}
		} else if c.Bytes < 0 {
			return fmt.Errorf("trace: contact %d has negative size", i)
		}
		prev = c.Start
	}
	return nil
}

// Clone returns a deep copy of the schedule.
func (s *Schedule) Clone() *Schedule {
	cp := &Schedule{Duration: s.Duration, Meetings: make([]Meeting, len(s.Meetings))}
	copy(cp.Meetings, s.Meetings)
	if len(s.Contacts) > 0 {
		cp.Contacts = make([]Contact, len(s.Contacts))
		copy(cp.Contacts, s.Contacts)
	}
	return cp
}

// ErrEmptySchedule is returned by consumers that need at least one
// meeting.
var ErrEmptySchedule = errors.New("trace: empty schedule")

// MeanOpportunity returns the average transfer-opportunity size in
// bytes over meetings and contacts, or an error for an empty schedule.
func (s *Schedule) MeanOpportunity() (float64, error) {
	n := len(s.Meetings) + len(s.Contacts)
	if n == 0 {
		return 0, ErrEmptySchedule
	}
	return float64(s.TotalBytes()) / float64(n), nil
}
