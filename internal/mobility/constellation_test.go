package mobility

import (
	"bytes"
	"math"
	"testing"

	"rapid/internal/packet"
	"rapid/internal/trace"
)

func testConstellation() Constellation {
	return Constellation{Config: ConstellationConfig{
		Planes: 3, SatsPerPlane: 4, GroundStations: 2,
		OrbitPeriod: 120, Duration: 360,
		ISLBytes: 64 << 10, GroundBytes: 128 << 10,
	}}
}

func schedBytes(t *testing.T, s *trace.Schedule) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := trace.Write(&buf, s); err != nil {
		t.Fatalf("write schedule: %v", err)
	}
	return buf.Bytes()
}

// TestConstellationPlanValid: the generated plan and its expansion pass
// the structural validators, and the population matches the config.
func TestConstellationPlanValid(t *testing.T) {
	m := testConstellation()
	plan := m.Plan()
	if err := plan.Validate(); err != nil {
		t.Fatal(err)
	}
	s := plan.Expand()
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(s.Meetings) == 0 {
		t.Fatal("empty constellation schedule")
	}
	c := m.Config
	if got, want := len(s.Nodes()), c.GroundStations+c.Planes*c.SatsPerPlane; got != want {
		t.Fatalf("schedule covers %d nodes, want %d", got, want)
	}
}

// TestConstellationPeriodicity: every periodic contact recurs at its
// declared interval across the horizon — the deterministic-window
// property contact-graph routing relies on.
func TestConstellationPeriodicity(t *testing.T) {
	m := testConstellation()
	plan := m.Plan()
	sched := plan.Expand()
	type pair struct{ a, b packet.NodeID }
	times := map[pair][]float64{}
	for _, mt := range sched.Meetings {
		p := pair{mt.A, mt.B}
		times[p] = append(times[p], mt.Time)
	}
	// Index plan contacts by pair to know each pair's period.
	for _, c := range plan.Contacts {
		ts := times[pair{c.A, c.B}]
		want := 0
		if c.Period > 0 {
			want = int(math.Ceil((plan.Duration - c.Start) / c.Period))
		}
		if c.Start < plan.Duration && want == 0 {
			want = 1
		}
		if len(ts) != want {
			t.Fatalf("pair (%d,%d): %d occurrences, want %d", c.A, c.B, len(ts), want)
		}
		for i := 1; i < len(ts); i++ {
			if gap := ts[i] - ts[i-1]; math.Abs(gap-c.Period) > 1e-9 {
				t.Fatalf("pair (%d,%d): gap %v, want period %v", c.A, c.B, gap, c.Period)
			}
		}
	}
}

// TestConstellationDeterminism: the expanded plan is byte-identical
// across builds (a contact plan, not a statistical process).
func TestConstellationDeterminism(t *testing.T) {
	m := testConstellation()
	a := schedBytes(t, m.Plan().Expand())
	b := schedBytes(t, m.Plan().Expand())
	if !bytes.Equal(a, b) {
		t.Fatal("constellation schedule differs between builds")
	}
}

// TestConstellationGroundCoverage: every ground station sees every
// satellite exactly once per orbital period.
func TestConstellationGroundCoverage(t *testing.T) {
	m := testConstellation()
	sched := m.Plan().Expand()
	periods := m.Config.Duration / m.Config.OrbitPeriod
	counts := map[packet.NodeID]int{}
	for _, mt := range sched.Meetings {
		if int(mt.A) < m.Config.GroundStations {
			counts[mt.A]++
		}
	}
	wantPer := int(periods) * m.Config.Planes * m.Config.SatsPerPlane
	for g := 0; g < m.Config.GroundStations; g++ {
		if got := counts[packet.NodeID(g)]; got != wantPer {
			t.Errorf("ground %d has %d passes, want %d", g, got, wantPer)
		}
	}
}

func testWindowedConstellation() Constellation {
	m := testConstellation()
	m.Config.PassWindow = 12
	m.Config.GroundRateBps = 16 << 10
	m.Config.ISLWindow = 6
	m.Config.ISLRateBps = 8 << 10
	return m
}

// TestConstellationPassWindows: the windowed config emits a valid
// all-window plan whose ground passes carry elevation-driven durations
// and rates — diverse across pass geometries, bounded by the zenith
// pass, and deterministic across builds.
func TestConstellationPassWindows(t *testing.T) {
	m := testWindowedConstellation()
	plan := m.Plan()
	if err := plan.Validate(); err != nil {
		t.Fatal(err)
	}
	s := plan.Expand()
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(s.Meetings) != 0 || len(s.Contacts) == 0 {
		t.Fatalf("windowed plan expanded to %d meetings / %d contacts",
			len(s.Meetings), len(s.Contacts))
	}
	groundDur := map[float64]bool{}
	for _, c := range s.Contacts {
		if !c.Windowed() {
			t.Fatalf("point contact %+v in windowed plan", c)
		}
		ground := c.A < packet.NodeID(m.Config.GroundStations)
		if ground {
			if c.Duration > m.Config.PassWindow || c.RateBps > m.Config.GroundRateBps {
				t.Fatalf("pass %+v exceeds its zenith bounds", c)
			}
			// Duration and rate share the sin(elevation) factor —
			// except for windows clipped by the expansion horizon.
			if clipped := c.End() == s.Duration; !clipped {
				if r := c.Duration / m.Config.PassWindow * m.Config.GroundRateBps; math.Abs(r-c.RateBps) > 1e-6 {
					t.Fatalf("pass %+v: duration and rate disagree on elevation", c)
				}
			}
			groundDur[c.Duration] = true
		} else if c.Duration != m.Config.ISLWindow || c.RateBps != m.Config.ISLRateBps {
			t.Fatalf("ISL window %+v not at configured shape", c)
		}
	}
	if len(groundDur) < 4 {
		t.Errorf("only %d distinct pass durations: elevation profile not driving windows", len(groundDur))
	}
	// Deterministic: same config, byte-identical schedule.
	a, b := m.Plan().Expand(), m.Plan().Expand()
	if len(a.Contacts) != len(b.Contacts) {
		t.Fatal("windowed expansion not deterministic")
	}
	for i := range a.Contacts {
		if a.Contacts[i] != b.Contacts[i] {
			t.Fatalf("contact %d differs between builds", i)
		}
	}
}

// TestConstellationWindowedHalfConfigPanics: enabling pass windows
// without the ISL/ground rate fields would silently emit zero-byte
// point ISLs next to windowed passes; Plan refuses the half-configured
// state.
func TestConstellationWindowedHalfConfigPanics(t *testing.T) {
	m := testWindowedConstellation()
	m.Config.ISLWindow = 0
	defer func() {
		if recover() == nil {
			t.Fatal("half-configured windowed constellation must panic")
		}
	}()
	m.Plan()
}
