package mobility

import (
	"errors"
	"math"

	"rapid/internal/packet"
	"rapid/internal/trace"
)

// ConstellationConfig parameterizes the orbital/ring contact-plan
// generator: Planes orbital planes of SatsPerPlane satellites each,
// plus GroundStations ground sites, which take node IDs
// 0..GroundStations-1 (satellites follow, see Sat). Unlike the
// statistical mobility models, connectivity here is a deterministic
// contact plan — the satellite-DTN setting where orbits make every
// future contact window computable in advance (contact-graph routing's
// premise).
type ConstellationConfig struct {
	Planes         int
	SatsPerPlane   int
	GroundStations int
	// OrbitPeriod is the orbital period in seconds; every periodic
	// contact interval derives from it.
	OrbitPeriod float64
	// Duration is the experiment horizon in seconds.
	Duration float64
	// ISLBytes is the transfer opportunity of one inter-satellite
	// contact window; GroundBytes of one ground pass.
	ISLBytes    int64
	GroundBytes int64

	// Windowed-contact emission. When PassWindow > 0 the plan carries
	// duration-aware pass windows with finite link rates instead of
	// point opportunities (ISLBytes/GroundBytes are then ignored):
	//
	//   - each (ground, satellite) pairing has a fixed pass geometry
	//     whose maximum elevation is derived deterministically from the
	//     pair's indices; a higher pass stays in view longer and closes
	//     a better link, so both the window duration (up to PassWindow
	//     seconds for a zenith pass) and the rate (up to GroundRateBps)
	//     scale with sin(max elevation);
	//   - inter-satellite contacts last ISLWindow seconds at ISLRateBps
	//     (vacuum ISLs have no elevation profile).
	//
	// All zero keeps the legacy point plan: byte-identical schedules.
	PassWindow    float64
	GroundRateBps float64
	ISLWindow     float64
	ISLRateBps    float64
}

// Windowed reports whether the config emits duration-aware contacts.
func (c ConstellationConfig) Windowed() bool { return c.PassWindow > 0 }

// Validate reports a config Plan refuses: a half-configured windowed
// constellation would silently emit zero-byte point ISLs next to
// windowed passes, which is a config bug, not a degenerate network.
func (c ConstellationConfig) Validate() error {
	if c.Windowed() && (c.ISLWindow <= 0 || c.ISLRateBps <= 0 || c.GroundRateBps <= 0) {
		return errors.New("mobility: windowed constellation (PassWindow > 0) requires ISLWindow, ISLRateBps and GroundRateBps")
	}
	return nil
}

// Sat returns the node ID of satellite m in plane p. Satellite IDs
// interleave the planes (in-plane index varies slowest), so the first
// Planes satellite IDs are the index-0 satellite of each plane — a
// natural cross-plane gateway set for workloads that address the first
// K satellites.
func (c ConstellationConfig) Sat(p, m int) packet.NodeID {
	return packet.NodeID(c.GroundStations + m*c.Planes + p)
}

// Constellation is the orbital/ring contact-plan generator. Unlike the
// statistical models it draws no randomness, so it is not a Model: its
// product is the plan itself, which runs either directly or expanded.
type Constellation struct {
	Config ConstellationConfig
}

// Plan builds the deterministic contact plan:
//
//   - intra-plane ISLs: each satellite contacts its ring successor in
//     the same plane every OrbitPeriod/SatsPerPlane seconds, phased by
//     its position so windows stagger instead of synchronizing;
//   - cross-plane ISLs: each satellite contacts its same-index neighbor
//     in the next plane every OrbitPeriod/Planes seconds, phased by half
//     an interval against the intra-plane windows;
//   - ground passes: each (ground, satellite) pair meets once per
//     OrbitPeriod, the plane's satellites passing over a site in even
//     sequence — the sub-interval phase spreads distinct sites' passes.
func (m Constellation) Plan() *trace.ContactPlan {
	c := m.Config
	if err := c.Validate(); err != nil {
		panic(err.Error())
	}
	plan := &trace.ContactPlan{Duration: c.Duration}
	P, M, G := c.Planes, c.SatsPerPlane, c.GroundStations

	if M >= 2 {
		gap := c.OrbitPeriod / float64(M)
		edges := M
		if M == 2 {
			edges = 1 // the ring degenerates to a single pair
		}
		for p := 0; p < P; p++ {
			for i := 0; i < edges; i++ {
				phase := c.OrbitPeriod * float64(p*M+i) / float64(P*M)
				m.addISL(plan, c.Sat(p, i), c.Sat(p, (i+1)%M), mod(phase, gap), gap)
			}
		}
	}
	if P >= 2 {
		gap := c.OrbitPeriod / float64(P)
		edges := P
		if P == 2 {
			edges = 1
		}
		for i := 0; i < edges; i++ {
			for s := 0; s < M; s++ {
				phase := gap/2 + c.OrbitPeriod*float64(i*M+s)/float64(P*M)
				m.addISL(plan, c.Sat(i, s), c.Sat((i+1)%P, s), mod(phase, gap), gap)
			}
		}
	}
	if G > 0 && P*M > 0 {
		passGap := c.OrbitPeriod / float64(max(M, 1))
		for g := 0; g < G; g++ {
			for p := 0; p < P; p++ {
				for s := 0; s < M; s++ {
					phase := passGap*float64(s) +
						passGap*float64(g*P+p)/float64(G*P)
					if c.Windowed() {
						sinE := passElevationSin(g, p, s)
						w := math.Min(c.PassWindow*sinE, c.OrbitPeriod)
						plan.AddWindow(packet.NodeID(g), c.Sat(p, s),
							phase, c.OrbitPeriod, w, c.GroundRateBps*sinE)
					} else {
						plan.Add(packet.NodeID(g), c.Sat(p, s),
							phase, c.OrbitPeriod, c.GroundBytes)
					}
				}
			}
		}
	}
	return plan
}

// addISL appends one inter-satellite contact in the configured form
// (point opportunity, or a fixed-duration window at the ISL rate).
func (m Constellation) addISL(plan *trace.ContactPlan, a, b packet.NodeID, start, gap float64) {
	c := m.Config
	if c.Windowed() {
		plan.AddWindow(a, b, start, gap, math.Min(c.ISLWindow, gap), c.ISLRateBps)
		return
	}
	plan.Add(a, b, start, gap, c.ISLBytes)
}

// passElevationSin returns sin(max elevation) for the fixed pass
// geometry of ground station g and satellite (p, s): a deterministic
// hash of the indices spread uniformly over elevations between a 10°
// usability floor and a zenith pass. Both pass duration and link rate
// scale with it — high passes stay in view longer and close a shorter,
// faster link.
func passElevationSin(g, p, s int) float64 {
	h := uint64(g)*0x9E3779B97F4A7C15 + uint64(p)*0xBF58476D1CE4E5B9 + uint64(s)*0x94D049BB133111EB
	h ^= h >> 31
	h *= 0xD6E8FEB86659FD93
	h ^= h >> 27
	frac := float64(h>>11) / float64(1<<53)
	const minElev = 10 * math.Pi / 180
	return math.Sin(minElev + (math.Pi/2-minElev)*frac)
}

// mod wraps x into [0, m) for positive m.
func mod(x, m float64) float64 {
	if m <= 0 {
		return x
	}
	for x >= m {
		x -= m
	}
	return x
}
