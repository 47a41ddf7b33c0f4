package trace

import (
	"bytes"
	"math"
	"reflect"
	"slices"
	"strings"
	"testing"

	"rapid/internal/packet"
)

// FuzzReadTrace drives the text codec with arbitrary input. Read must
// never panic; Validate must reject every schedule naming a node
// outside [0, MaxNodeID); and any schedule that parses cleanly and
// validates must survive a Write→Read round trip bit-identically (%g
// formatting is shortest-round-trip, so this is an exact property, not
// approximate).
func FuzzReadTrace(f *testing.F) {
	f.Add("duration 100\nmeet 1 2 5 1024\n")
	f.Add("# comment\nduration 50\ncontact 0 3 1.5 2.5 512 0\nmeet 0 1 10 2048\n")
	f.Add("duration 1e9\nmeet 1 2 1e8 9223372036854775807\n")
	f.Add("meet 1 2 NaN 5\nduration Inf\n")
	f.Add("contact 1 2 0 0 0 100\nunknown directive kept for forward compat\n")
	f.Add("duration\nmeet\ncontact\n")
	f.Add("duration 100\nmeet -1 -2 -5 -1024\ncontact -1 -2 -1 -1 -1 -1\n")
	f.Add("duration 100\nmeet 0 1048576 5 1024\ncontact 1048575 0 6 0 0 10\n")
	f.Fuzz(func(t *testing.T, data string) {
		s, err := Read(strings.NewReader(data))
		if err != nil {
			return
		}
		err = s.Validate()
		if id, bad := outOfRangeNode(s); bad && err == nil {
			t.Fatalf("Validate accepted node %d outside [0,%d)", id, MaxNodeID)
		}
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := Write(&buf, s); err != nil {
			t.Fatalf("Write failed on a valid schedule: %v", err)
		}
		s2, err := Read(&buf)
		if err != nil {
			t.Fatalf("re-Read failed on Write output %q: %v", buf.String(), err)
		}
		if !reflect.DeepEqual(normalize(s), normalize(s2)) {
			t.Fatalf("round trip diverged:\n in: %+v\nout: %+v", s, s2)
		}
	})
}

// outOfRangeNode returns the first node ID of the schedule outside
// [0, MaxNodeID).
func outOfRangeNode(s *Schedule) (packet.NodeID, bool) {
	for _, id := range s.Nodes() {
		if id < 0 || id >= MaxNodeID {
			return id, true
		}
	}
	return 0, false
}

// normalize maps nil and empty slices together for the round-trip
// comparison (Write cannot distinguish them).
func normalize(s *Schedule) *Schedule {
	cp := *s
	if len(cp.Meetings) == 0 {
		cp.Meetings = nil
	}
	if len(cp.Contacts) == 0 {
		cp.Contacts = nil
	}
	return &cp
}

// FuzzContactPlan drives Validate and Expand with arbitrary periodic
// contacts. Whatever the input: Validate must never panic, must accept
// node IDs exactly when they lie in [0, MaxNodeID), and a plan that
// validates must expand — without hanging or overrunning the
// occurrence budget — to a schedule that itself validates, twice over
// to the byte-identical result (the documented determinism property),
// that lists the independent reference's occurrences in its order, and
// whose node set is the plan's.
func FuzzContactPlan(f *testing.F) {
	f.Add(int8(0), int8(1), 0.0, 10.0, int64(1024), 0.0, 0.0, 100.0)
	f.Add(int8(3), int8(4), 5.0, 0.0, int64(1), 2.0, 512.0, 60.0)
	f.Add(int8(0), int8(2), 1.5, 2.5, int64(0), 2.5, 1.0, 1e5)
	f.Add(int8(1), int8(1), math.NaN(), math.Inf(1), int64(-1), -1.0, math.NaN(), math.Inf(1))
	f.Add(int8(0), int8(1), 0.0, 1e-7, int64(8), 0.0, 0.0, 1e9)
	f.Add(int8(0), int8(1), 0.0, 1e-5, int64(8), 0.0, 0.0, 1e18)
	f.Fuzz(func(t *testing.T, a, b int8, start, period float64, bytes int64, window, rate, duration float64) {
		cp := &ContactPlan{Duration: duration}
		cp.Contacts = append(cp.Contacts, PeriodicContact{
			A: packet.NodeID(a), B: packet.NodeID(b),
			Start: start, Period: period, Bytes: bytes,
			Window: window, RateBps: rate,
		})
		// A second contact derived from the first exercises multi-contact
		// interleaving.
		cp.Add(packet.NodeID(a)+1, packet.NodeID(b)+2, start/2, period*2, bytes)
		// A same-pair twin at the first contact's instants with other
		// Bytes exercises the tie-break by contact index.
		cp.Add(packet.NodeID(a), packet.NodeID(b), start, period, bytes/2)
		// A well-formed probe with scaled IDs reaches both sides of the
		// node-ID bound.
		probe := &ContactPlan{Duration: 100}
		lo, hi := packet.NodeID(a)<<14, packet.NodeID(a)<<14+1
		probe.Add(lo, hi, 0, 10, 1)
		if inRange := lo >= 0 && hi < MaxNodeID; (probe.Validate() == nil) != inRange {
			t.Fatalf("probe with nodes %d, %d: Validate() = %v", lo, hi, probe.Validate())
		}
		if cp.Validate() != nil {
			// Invalid plans may still not hang or panic on a defensive
			// expansion.
			cp.Expand()
			cp.Nodes()
			return
		}
		s1 := cp.Expand()
		if err := s1.Validate(); err != nil {
			t.Fatalf("valid plan expanded to invalid schedule: %v\nplan: %+v", err, cp)
		}
		s2 := cp.Expand()
		if !reflect.DeepEqual(s1, s2) {
			t.Fatalf("expansion is not deterministic for plan %+v", cp)
		}
		if len(s1.Meetings)+len(s1.Contacts) > 3*(MaxOccurrences+1) {
			t.Fatalf("expansion overran the occurrence budget: %d records", len(s1.Meetings)+len(s1.Contacts))
		}
		want := &Schedule{Duration: cp.Duration}
		for _, c := range expandReference(cp) {
			if m, point := c.AsMeeting(); point {
				want.Meetings = append(want.Meetings, m)
			} else {
				want.Contacts = append(want.Contacts, c)
			}
		}
		if !reflect.DeepEqual(s1, want) {
			t.Fatalf("Expand differs from the reference for plan %+v", cp)
		}
		if got, want := cp.Nodes(), s1.Nodes(); !slices.Equal(got, want) {
			t.Fatalf("Nodes() = %v, Expand().Nodes() = %v for plan %+v", got, want, cp)
		}
	})
}
