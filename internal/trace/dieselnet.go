package trace

import (
	"errors"
	"math"
	"math/rand"

	"rapid/internal/packet"
)

// DieselNetConfig parameterizes the synthetic DieselNet day generator.
//
// The real testbed (§5) ran 40 buses over 150 square miles around
// Amherst; a subset (~19 on average) was on the road on any given day
// for about 19 hours. The routes radiate from a downtown transfer hub:
// buses repeatedly return to it between runs, so meetings cluster into
// temporally chained bursts at the hub (bus A overlaps B, B overlaps C
// minutes later), with additional encounters between buses sharing a
// route. Some pairs still never meet on a given day — the reason RAPID
// estimates meeting times transitively through up to h=3 hops
// (§4.1.2).
//
// The generator models exactly that structure: each bus visits the hub
// quasi-periodically with jitter; a pair meets when their hub stays
// overlap; same-route pairs add direct Poisson encounters; and
// transfer-opportunity sizes are drawn from a heavy-tailed lognormal
// ("The available bandwidth varies significantly across transfer
// opportunities", §6.2.2).
//
// Defaults are calibrated against Table 3: ≈19 buses/day, ≈147.5
// meetings/day, ≈261 MB transferred/day, 19-hour days — and against
// the deployment's routing feasibility (an offline-optimal router must
// be able to deliver the large majority of a default-load workload, as
// the real testbed's 88% delivery demonstrates).
type DieselNetConfig struct {
	Fleet        int     // total buses in the fleet (paper: 40)
	ActivePerDay int     // buses scheduled on an average day (paper: ~19)
	Routes       int     // distinct bus routes
	DayHours     float64 // hours of service per day (Table 4: 19)

	// HubPeriodMin/HubPeriodMax bound a bus's time between hub visits
	// in seconds; per-bus periods are log-uniform over the range, so a
	// few "hot" short-headway buses account for most meetings (the
	// skew behind the power-law models of §6.3) while cold buses meet
	// rarely.
	HubPeriodMin float64
	HubPeriodMax float64
	// HubStaySeconds is the mean layover duration at the hub.
	HubStaySeconds float64
	// SameRouteMeetsPerDay is the expected number of extra daily
	// on-route meetings for a pair of buses serving the same route.
	SameRouteMeetsPerDay float64

	// MeanTransferBytes is the mean transfer-opportunity size;
	// SigmaTransfer is the lognormal shape (larger = heavier tail).
	MeanTransferBytes float64
	SigmaTransfer     float64
	// MinTransferBytes floors very short contacts.
	MinTransferBytes int64

	Seed int64 // base seed; day d uses Seed^hash(d) so days are independent
}

// DefaultDieselNet returns the Table-3-calibrated configuration.
func DefaultDieselNet() DieselNetConfig {
	return DieselNetConfig{
		Fleet:                40,
		ActivePerDay:         19,
		Routes:               10,
		DayHours:             19,
		HubPeriodMin:         1800,  // hot buses: hub every ~30 min
		HubPeriodMax:         10800, // cold buses: hub every ~3 h
		HubStaySeconds:       160,
		SameRouteMeetsPerDay: 2.0,
		MeanTransferBytes:    1.45e6, // calibrated: ≈261 MB over ≈180 meetings/day
		SigmaTransfer:        1.0,
		MinTransferBytes:     8 << 10,
		Seed:                 1,
	}
}

// DieselNet generates synthetic DieselNet days. Construct with
// NewDieselNet; the same (config, day) pair always yields the same
// schedule.
type DieselNet struct {
	cfg    DieselNetConfig
	route  []int     // route assignment per bus, fleet-wide and stable
	period []float64 // hub-visit period per bus, fleet-wide and stable
}

// Validate reports a configuration NewDieselNet cannot build a fleet
// from.
func (cfg DieselNetConfig) Validate() error {
	if cfg.Fleet <= 1 {
		return errors.New("trace: DieselNet fleet must have at least 2 buses")
	}
	if cfg.ActivePerDay < 2 || cfg.ActivePerDay > cfg.Fleet {
		return errors.New("trace: ActivePerDay must be in [2, Fleet]")
	}
	return nil
}

// NewDieselNet validates the configuration (panicking on an invalid
// one) and fixes the fleet's route assignment (stable across days,
// like real bus-route assignments).
func NewDieselNet(cfg DieselNetConfig) *DieselNet {
	if err := cfg.Validate(); err != nil {
		panic(err.Error())
	}
	if cfg.Routes < 1 {
		cfg.Routes = 1
	}
	if cfg.HubPeriodMin <= 0 {
		cfg.HubPeriodMin = 1500
	}
	if cfg.HubPeriodMax < cfg.HubPeriodMin {
		cfg.HubPeriodMax = cfg.HubPeriodMin * 10
	}
	if cfg.HubStaySeconds <= 0 {
		cfg.HubStaySeconds = 160
	}
	d := &DieselNet{cfg: cfg}
	r := rand.New(rand.NewSource(cfg.Seed))
	d.route = make([]int, cfg.Fleet)
	d.period = make([]float64, cfg.Fleet)
	ratio := cfg.HubPeriodMax / cfg.HubPeriodMin
	for i := range d.route {
		d.route[i] = r.Intn(cfg.Routes)
		// Log-uniform headways: most meetings involve hot buses.
		d.period[i] = cfg.HubPeriodMin * math.Pow(ratio, r.Float64())
	}
	return d
}

// ActiveBuses returns the deterministic roster for a day: the subset of
// the fleet on the road. Roster size varies mildly around ActivePerDay
// ("the number of buses on the road at any time varies", §5.1).
func (d *DieselNet) ActiveBuses(day int) []packet.NodeID {
	r := d.dayRand(day, "roster")
	n := d.cfg.ActivePerDay + r.Intn(5) - 2 // ±2 buses
	if n < 2 {
		n = 2
	}
	if n > d.cfg.Fleet {
		n = d.cfg.Fleet
	}
	perm := r.Perm(d.cfg.Fleet)
	ids := make([]packet.NodeID, n)
	for i := 0; i < n; i++ {
		ids[i] = packet.NodeID(perm[i])
	}
	return ids
}

// Day generates the meeting schedule for one day: hub-layover overlaps
// plus same-route encounters. The result is sorted and validated by
// construction.
func (d *DieselNet) Day(day int) *Schedule {
	active := d.ActiveBuses(day)
	r := d.dayRand(day, "meetings")
	dur := d.cfg.DayHours * 3600
	s := &Schedule{Duration: dur}

	// Hub visit intervals per active bus.
	type stay struct{ start, end float64 }
	visits := make(map[packet.NodeID][]stay, len(active))
	for _, bus := range active {
		period := d.period[int(bus)]
		t := r.Float64() * period // random phase
		for t < dur {
			length := d.cfg.HubStaySeconds * (0.5 + r.Float64())
			end := t + length
			if end > dur {
				end = dur
			}
			visits[bus] = append(visits[bus], stay{t, end})
			t += period * (0.8 + 0.4*r.Float64()) // schedule jitter
		}
	}

	// Meetings: overlapping hub stays (radio discovery succeeds with
	// high probability), chained in time as buses cycle through.
	for i := 0; i < len(active); i++ {
		for j := i + 1; j < len(active); j++ {
			a, b := active[i], active[j]
			for _, va := range visits[a] {
				for _, vb := range visits[b] {
					lo := math.Max(va.start, vb.start)
					hi := math.Min(va.end, vb.end)
					if hi <= lo {
						continue
					}
					if r.Float64() < 0.45 {
						continue // missed discovery / radio failure
					}
					s.Meetings = append(s.Meetings, Meeting{
						A: a, B: b, Time: lo, Bytes: d.transferSize(r),
					})
				}
			}
			// Extra on-route encounters for same-route pairs.
			if d.route[int(a)] == d.route[int(b)] {
				rate := d.cfg.SameRouteMeetsPerDay / dur
				t := 0.0
				for {
					t += r.ExpFloat64() / rate
					if t >= dur {
						break
					}
					s.Meetings = append(s.Meetings, Meeting{
						A: a, B: b, Time: t, Bytes: d.transferSize(r),
					})
				}
			}
		}
	}
	s.Sort()
	return s
}

// transferSize draws a heavy-tailed opportunity size.
func (d *DieselNet) transferSize(r *rand.Rand) int64 {
	mu := math.Log(d.cfg.MeanTransferBytes) - d.cfg.SigmaTransfer*d.cfg.SigmaTransfer/2
	bytes := int64(math.Exp(mu + d.cfg.SigmaTransfer*r.NormFloat64()))
	if bytes < d.cfg.MinTransferBytes {
		bytes = d.cfg.MinTransferBytes
	}
	return bytes
}

// dayRand derives an independent random stream for (day, purpose).
func (d *DieselNet) dayRand(day int, purpose string) *rand.Rand {
	h := int64(uint64(day+1) * 0x9E3779B97F4A7C15)
	for i := 0; i < len(purpose); i++ {
		h = h*1099511628211 + int64(purpose[i])
	}
	return rand.New(rand.NewSource(d.cfg.Seed ^ h))
}

// PerturbConfig models the deployment effects the paper names as absent
// from simulation (§5: "delays caused by computation or the wireless
// channel"). Applying Perturb to a clean schedule produces the
// "Real"-system counterpart for the Fig. 3 validation comparison.
type PerturbConfig struct {
	// TransferEfficiency scales each opportunity: the fraction of
	// nominal contact bytes actually usable after protocol handshake
	// and wireless loss. Drawn uniformly from [Min, 1].
	MinTransferEfficiency float64
	// DropProb is the probability a contact fails entirely (radio or
	// system failure).
	DropProb float64
	// JitterSeconds delays each meeting and contact by
	// U(0, JitterSeconds) — connection-establishment latency.
	JitterSeconds float64
	Seed          int64
}

// DefaultPerturb returns mild perturbations consistent with the ≤1%
// average-delay agreement the paper reports between deployment and
// simulation.
func DefaultPerturb() PerturbConfig {
	return PerturbConfig{
		MinTransferEfficiency: 0.85,
		DropProb:              0.02,
		JitterSeconds:         15,
		Seed:                  99,
	}
}

// Perturb returns a perturbed copy of the schedule. Each meeting and
// then each contact, in list order, may drop; a survivor keeps a drawn
// share of its opportunity (Bytes, or a window's RateBps) and starts
// later by its jitter draw, clipped to the horizon. Contacts draw after
// every meeting, so a meeting-only schedule perturbs as it always has.
func Perturb(s *Schedule, cfg PerturbConfig) *Schedule {
	r := rand.New(rand.NewSource(cfg.Seed))
	out := &Schedule{Duration: s.Duration}
	// perturb draws one opportunity's fate: ok false when it drops, else
	// its usable share and its jittered start, inside the horizon.
	perturb := func(start float64) (eff, at float64, ok bool) {
		if r.Float64() < cfg.DropProb {
			return 0, 0, false
		}
		eff = cfg.MinTransferEfficiency + (1-cfg.MinTransferEfficiency)*r.Float64()
		if at = start + r.Float64()*cfg.JitterSeconds; at >= s.Duration {
			at = s.Duration - 1e-9
		}
		return eff, at, true
	}
	for _, m := range s.Meetings {
		if eff, at, ok := perturb(m.Time); ok {
			m.Time, m.Bytes = at, int64(float64(m.Bytes)*eff)
			out.Meetings = append(out.Meetings, m)
		}
	}
	for _, c := range s.Contacts {
		if eff, at, ok := perturb(c.Start); ok {
			c.Start, c.Bytes, c.RateBps = at, int64(float64(c.Bytes)*eff), c.RateBps*eff
			c.Duration = min(c.Duration, s.Duration-at)
			out.Contacts = append(out.Contacts, c)
		}
	}
	out.Sort()
	return out
}
