package scenario

import (
	"cmp"

	"rapid/internal/core"
	"rapid/internal/disrupt"
	"rapid/internal/trace"
)

// This file owns Table 4 and the registry: every trace and synthetic
// parameter the paper's evaluation uses is declared here once, and
// every family below — and through them the figures of internal/exp —
// builds from it.

// DefaultTraceLoad is the deployment's generation rate (§5.1):
// 4 packets per hour per destination.
const DefaultTraceLoad = 4.0

// defaultTraceWorkload returns the §5.1/Table 4 trace-driven workload:
// Poisson arrivals per hour per on-the-road destination, 1 KB packets,
// 2.7 h deadline.
func defaultTraceWorkload(load float64) WorkloadSpec {
	return WorkloadSpec{
		Shape: ShapePoisson, Load: load, Window: 3600,
		PacketBytes: 1 << 10, Deadline: 2.7 * 3600,
	}
}

// DefaultSynthNodes and DefaultSynthDuration are Table 4's synthetic
// population (20 nodes) and run length (15 minutes).
const (
	DefaultSynthNodes    = 20
	DefaultSynthDuration = 15 * 60.0
)

// defaultSynthOverrides applies Table 4's uniform 100 KB per-node
// storage; synthetic families run with it unless they declare their
// own storage classes.
func defaultSynthOverrides() Overrides {
	return Overrides{BufferBytes: 100 << 10, BufferBytesSet: true}
}

// defaultSynthWorkload returns Table 4's synthetic workload: the load
// axis is packets per 50 s per destination aggregated over sources
// (PerPair), 1 KB packets, 20 s deadline.
func defaultSynthWorkload(load float64, nodes int) WorkloadSpec {
	return WorkloadSpec{
		Shape: ShapePoisson, Load: load, Window: 50,
		PacketBytes: 1 << 10, Deadline: 20,
		NodeCount: nodes, PerPair: true,
	}
}

// defaultSynthSchedule returns Table 4's synthetic mobility spec for
// the given source model.
func defaultSynthSchedule(src Source, nodes int, duration float64) ScheduleSpec {
	return ScheduleSpec{
		Source: src, Nodes: nodes, Duration: duration,
		MeanMeeting: 60, TransferBytes: 100 << 10,
		Alpha: 1, RankSeed: 42,
	}
}

// defaultTraceSchedule returns the Table-3-calibrated DieselNet spec.
func defaultTraceSchedule(day int, dayHours float64) ScheduleSpec {
	return ScheduleSpec{
		Source: SourceDieselNet, Diesel: trace.DefaultDieselNet(),
		Day: day, DayHours: dayHours,
	}
}

// families is the registry, sorted by name (TestRegistryFamilies pins
// the order).
var families = []Family{
	grid("asym-uplink", PopConstellation,
		"uplink-constrained constellation: ground passes run an order of magnitude slower than the inter-satellite links, so the rate-asymmetric access windows — not the space segment — bound delivery",
		nil, nil, func(p Params, _ int, load float64) Scenario {
			s := passesPoint(p, load)
			// The asymmetry: ISLs keep their fast rate, the access
			// links drop to a trickle (16× slower at zenith), as with
			// low-power IoT uplinks under a wideband space segment.
			s.Schedule.GroundRateBps = asymUplinkRateBps
			return s
		}),
	grid("bursty-onoff", PopSynthetic,
		"exponential mobility under a bursty on-off workload (30 s bursts, 120 s silences) — a traffic shape the Poisson-only harness cannot express",
		nil, nil, func(p Params, _ int, load float64) Scenario {
			s := synthPoint(SourceExponential, p, load)
			s.Workload.Shape = ShapeOnOff
			s.Workload.OnMean, s.Workload.OffMean = 30, 120
			return s
		}),
	grid("cgr-constellation", PopConstellation,
		"plan-ahead CGR versus the reactive comparison set over the deterministic orbital contact plan — the offline oracle (optimal.Solve on the same materialized schedule) brackets both from above",
		CGRComparisonSet(), nil, constellationPoint),
	grid("cgr-policies", PopConstellation,
		"CGR allocation policies head-to-head over the lossy constellation plan — single-copy, k-path widest-within-slack, bounded multi-copy over disjoint alternates, GMA-style admission — with RAPID as the multi-copy utility-driven reference, swept over the loss axis",
		CGRPolicySet(), lossAxis, constellationPoint),
	grid("churn-powerlaw", PopSynthetic,
		"power-law mobility with node churn: nodes drop for exponential down intervals during which they neither forward nor receive — popularity-skewed relays keep vanishing under the protocols that lean on them",
		nil, func(p Params) []disrupt.Spec {
			down, up := p.ChurnDownMean, p.ChurnUpMean
			if down <= 0 || up <= 0 {
				down, up = churnDefaultDownMean, churnDefaultUpMean
			}
			return []disrupt.Spec{{Enabled: true, ChurnDownMean: down, ChurnUpMean: up}}
		}, func(p Params, _ int, load float64) Scenario { return synthPoint(SourcePowerLaw, p, load) }),
	grid("constellation-ground", PopConstellation,
		"planes × sats orbital constellation relaying ground-station traffic over a deterministic periodic contact plan",
		nil, nil, constellationPoint),
	grid("constellation-passes", PopConstellation,
		"orbital constellation with duration-aware pass windows: elevation-driven ground-pass durations and per-pass link rates, streamed transfers, radio sharing across overlapping windows",
		nil, nil, func(p Params, _ int, load float64) Scenario { return passesPoint(p, load) }),
	grid("constellation-ring", PopConstellation,
		"pure inter-satellite ring constellation (no ground segment): gateway satellites exchange traffic across the planes",
		nil, nil, func(p Params, _ int, load float64) Scenario {
			s := constellationPoint(p, 0, load)
			s.Schedule.Ground = 0
			// Satellite IDs interleave planes, so the first
			// min(8, Planes) IDs are one gateway per plane — the
			// cross-plane traffic the family exists to isolate.
			s.Workload.NodeCount = min(8, p.Planes)
			return s
		}),
	{
		Name:       "deployment",
		Doc:        "perturbed DieselNet days standing in for the physical deployment (Table 3, Fig. 3's 'Real' arm)",
		Population: PopTrace,
		Gen: func(p Params) []Scenario {
			var out []Scenario
			for day := range max(p.Days, 1) {
				ss := defaultTraceSchedule(day, p.DayHours)
				ss.Perturb = true
				ss.PerturbCfg = trace.DefaultPerturb()
				ss.PerturbCfg.Seed = int64(day) + 4242
				out = append(out, Scenario{
					Family: "deployment", Tag: p.Tag,
					Schedule: ss,
					Workload: defaultTraceWorkload(DefaultTraceLoad),
					Protocol: ProtoRapid, Metric: core.AvgDelay,
				})
			}
			return out
		},
	},
	grid("hetero-buffers", PopSynthetic,
		"power-law mobility where every other node has a tiny buffer — per-node storage classes the uniform-buffer harness cannot express",
		nil, nil, func(p Params, _ int, load float64) Scenario {
			s := synthPoint(SourcePowerLaw, p, load)
			s.Config = Overrides{Hetero: HeteroBuffers{
				Enabled:    true,
				SmallBytes: 10 << 10,
				LargeBytes: 100 << 10,
				SmallEvery: 2,
			}}
			return s
		}),
	grid("lossy-constellation", PopConstellation,
		"constellation plan under Bernoulli packet loss and stochastic whole-contact failures, swept over a loss-probability axis — where CGR's plan-ahead assumptions meet contacts that silently break",
		CGRComparisonSet(), lossAxis, constellationPoint),
	// RAPID-only by default: the point of the scale arm is hot-path
	// scale, not another protocol comparison.
	grid("mega-constellation", PopMega,
		"2,000+-node LEO shell run lazily off the periodic contact plan with a streaming ground-segment workload — the scale arm of the dense routing state, plan cursor and counter-based Poisson source",
		[]Proto{ProtoRapid}, nil, func(p Params, _ int, load float64) Scenario {
			s := constellationPoint(p, 0, load)
			s.Workload.Streaming = true
			return s
		}),
	grid("synth-exponential", PopSynthetic,
		"uniform exponential mobility × load grid (Figs. 22–24)",
		nil, nil, func(p Params, _ int, load float64) Scenario { return synthPoint(SourceExponential, p, load) }),
	grid("synth-powerlaw", PopSynthetic,
		"popularity-skewed power-law mobility × load grid (Figs. 16–18)",
		nil, nil, func(p Params, _ int, load float64) Scenario { return synthPoint(SourcePowerLaw, p, load) }),
	grid("trace-comparison", PopTrace,
		"DieselNet day × load grid over the §6.1 comparison set (Figs. 4–7)",
		nil, nil, func(p Params, day int, load float64) Scenario {
			return Scenario{
				Schedule: defaultTraceSchedule(day, p.DayHours),
				Workload: defaultTraceWorkload(load),
			}
		}),
}

// synthPoint is one Table 4 synthetic coordinate under the src
// mobility model, with Table 4's uniform buffer.
func synthPoint(src Source, p Params, load float64) Scenario {
	return Scenario{
		Schedule: defaultSynthSchedule(src, p.Nodes, p.Duration),
		Workload: defaultSynthWorkload(load, p.Nodes),
		Config:   defaultSynthOverrides(),
	}
}

// constellationPoint is one coordinate of the point-contact orbital
// plan with ground-segment traffic.
func constellationPoint(p Params, _ int, load float64) Scenario {
	return Scenario{
		Schedule: constellationSchedule(p),
		Workload: constellationWorkload(load, p.Ground, p.OrbitPeriod),
		Config:   constellationOverrides(),
	}
}

// passesPoint is constellationPoint over duration-aware pass windows.
func passesPoint(p Params, load float64) Scenario {
	s := constellationPoint(p, 0, load)
	s.Schedule.PassWindow = passWindowFrac * p.OrbitPeriod
	s.Schedule.GroundRateBps = groundRateBps
	s.Schedule.ISLWindow = islWindowFrac * p.OrbitPeriod
	s.Schedule.ISLRateBps = islRateBps
	return s
}

// lossAxis is the loss-probability axis of the lossy constellation
// families: Params.LossGrid (default defaultLossGrid) at a constant
// whole-contact failure probability.
func lossAxis(p Params) []disrupt.Spec {
	lossGrid := p.LossGrid
	if len(lossGrid) == 0 {
		lossGrid = defaultLossGrid()
	}
	failP := cmp.Or(p.ContactFailP, lossyDefaultContactFailP)
	out := make([]disrupt.Spec, len(lossGrid))
	for i, pLoss := range lossGrid {
		out[i] = disrupt.Spec{Enabled: true, PLoss: pLoss, PContactFail: failP}
	}
	return out
}

// constellationSchedule returns the families' orbital contact-plan spec
// for the given grid parameters. Every seed builds the byte-identical
// plan (the defining property of a deterministic contact plan).
func constellationSchedule(p Params) ScheduleSpec {
	return ScheduleSpec{
		Source: SourceConstellation,
		Planes: p.Planes, SatsPerPlane: p.SatsPerPlane, Ground: p.Ground,
		OrbitPeriod: p.OrbitPeriod, Duration: p.Duration,
		ISLBytes: 64 << 10, GroundBytes: 128 << 10,
	}
}

// Default intensities of the stochastic disruption families
// (overridable through Params).
const (
	// lossyDefaultContactFailP is the lossy families' whole-contact
	// failure probability: one pass in ten silently never happens.
	lossyDefaultContactFailP = 0.1
	// churnDefaultDownMean and churnDefaultUpMean keep a node dark
	// roughly a quarter of the time, in outages long enough to straddle
	// several meetings at the synthetic 60 s inter-meeting scale.
	churnDefaultDownMean = 40.0
	churnDefaultUpMean   = 120.0
)

// defaultLossGrid is the lossy families' loss-probability axis, from
// no packet loss up to a third of all transfers lost. The
// whole-contact failure arm stays constant across the axis (a
// controlled variable), so the x=0 point is the loss-free baseline of
// a *failing* plan, not a pristine run — re-run with
// Overrides.Disrupt zeroed for the pristine reference.
func defaultLossGrid() []float64 { return []float64{0, 0.05, 0.15, 0.3} }

// asymUplinkRateBps is the asym-uplink family's zenith access-link
// rate: 16× below groundRateBps, the order-of-magnitude gap between a
// low-power uplink and the wideband space segment.
const asymUplinkRateBps = 1 << 10

// Window shaping of the duration-aware constellation families, as
// fractions of the orbital period: a zenith ground pass stays in view
// for a tenth of an orbit, an ISL window for a twentieth.
const (
	passWindowFrac = 0.1
	islWindowFrac  = 0.05
	groundRateBps  = 16 << 10
	islRateBps     = 8 << 10
)

// constellationWorkload offers Poisson traffic among the first
// `endpoints` node IDs (the ground segment, or the gateway satellites
// of the ring family), deadlined at one orbital period.
func constellationWorkload(load float64, endpoints int, orbitPeriod float64) WorkloadSpec {
	return WorkloadSpec{
		Shape: ShapePoisson, Load: load, Window: 50,
		PacketBytes: 1 << 10, Deadline: orbitPeriod,
		NodeCount: endpoints, PerPair: true,
	}
}

// constellationOverrides sizes per-node storage: satellites buffer more
// than the 100 KB bus default but remain finite, so storage pressure —
// and RAPID's utility-driven eviction — stays in play at scale.
func constellationOverrides() Overrides {
	return Overrides{BufferBytes: 256 << 10, BufferBytesSet: true}
}
