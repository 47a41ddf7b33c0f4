package scenario

import (
	"rapid/internal/core"
	"rapid/internal/disrupt"
	"rapid/internal/trace"
)

// This file owns Table 4: every trace and synthetic parameter the
// paper's evaluation uses is declared here once, and both the registry
// families below and the figures of internal/exp build from it.

// DefaultTraceLoad is the deployment's generation rate (§5.1):
// 4 packets per hour per destination.
const DefaultTraceLoad = 4.0

// DefaultTraceWorkload returns the §5.1/Table 4 trace-driven workload:
// Poisson arrivals per hour per on-the-road destination, 1 KB packets,
// 2.7 h deadline.
func DefaultTraceWorkload(load float64) WorkloadSpec {
	return WorkloadSpec{
		Shape: ShapePoisson, Load: load, Window: 3600,
		PacketBytes: 1 << 10, Deadline: 2.7 * 3600,
	}
}

// DefaultSynthBuffer is Table 4's per-node storage (100 KB); synthetic
// families run with it unless they declare their own storage classes.
const DefaultSynthBuffer int64 = 100 << 10

// DefaultSynthNodes and DefaultSynthDuration are Table 4's synthetic
// population (20 nodes) and run length (15 minutes).
const (
	DefaultSynthNodes    = 20
	DefaultSynthDuration = 15 * 60.0
)

// defaultSynthOverrides applies Table 4's uniform buffer.
func defaultSynthOverrides() Overrides {
	return Overrides{BufferBytes: DefaultSynthBuffer, BufferBytesSet: true}
}

// DefaultSynthWorkload returns Table 4's synthetic workload: the load
// axis is packets per 50 s per destination aggregated over sources
// (PerPair), 1 KB packets, 20 s deadline.
func DefaultSynthWorkload(load float64, nodes int) WorkloadSpec {
	return WorkloadSpec{
		Shape: ShapePoisson, Load: load, Window: 50,
		PacketBytes: 1 << 10, Deadline: 20,
		NodeCount: nodes, PerPair: true,
	}
}

// DefaultSynthSchedule returns Table 4's synthetic mobility spec for
// the given source model.
func DefaultSynthSchedule(src Source, nodes int, duration float64) ScheduleSpec {
	return ScheduleSpec{
		Source: src, Nodes: nodes, Duration: duration,
		MeanMeeting: 60, TransferBytes: 100 << 10,
		Alpha: 1, RankSeed: 42,
	}
}

// DefaultTraceSchedule returns the Table-3-calibrated DieselNet spec.
func DefaultTraceSchedule(day int, dayHours float64) ScheduleSpec {
	return ScheduleSpec{
		Source: SourceDieselNet, Diesel: trace.DefaultDieselNet(),
		Day: day, DayHours: dayHours,
	}
}

// protocols resolves the family's protocol arms.
func protocols(p Params) []Proto {
	if len(p.Protocols) > 0 {
		return p.Protocols
	}
	return ComparisonSet()
}

// grid expands the days×runs×loads×protocols cross product with a
// per-point scenario constructor.
func grid(p Params, days bool, mk func(day, run int, load float64, proto Proto) Scenario) []Scenario {
	nd := p.Days
	if !days || nd < 1 {
		nd = 1
	}
	var out []Scenario
	for _, proto := range protocols(p) {
		for _, load := range p.Loads {
			for day := 0; day < nd; day++ {
				for run := 0; run < p.Runs; run++ {
					out = append(out, mk(day, run, load, proto))
				}
			}
		}
	}
	return out
}

func init() {
	Register(Family{
		Name: "trace-comparison",
		Doc:  "DieselNet day × load grid over the §6.1 comparison set (Figs. 4–7)",
		Gen: func(p Params) []Scenario {
			return grid(p, true, func(day, run int, load float64, proto Proto) Scenario {
				return Scenario{
					Family: "trace-comparison", Tag: p.Tag,
					Schedule: DefaultTraceSchedule(day, p.DayHours),
					Workload: DefaultTraceWorkload(load),
					Protocol: proto, Metric: NormalizeMetric(proto, core.AvgDelay),
					Run: run,
				}
			})
		},
	})
	Register(Family{
		Name: "synth-exponential",
		Doc:  "uniform exponential mobility × load grid (Figs. 22–24)",
		Gen:  func(p Params) []Scenario { return synthFamily("synth-exponential", SourceExponential, p) },
	})
	Register(Family{
		Name: "synth-powerlaw",
		Doc:  "popularity-skewed power-law mobility × load grid (Figs. 16–18)",
		Gen:  func(p Params) []Scenario { return synthFamily("synth-powerlaw", SourcePowerLaw, p) },
	})
	Register(Family{
		Name: "hetero-buffers",
		Doc:  "power-law mobility where every other node has a tiny buffer — per-node storage classes the uniform-buffer harness cannot express",
		Gen: func(p Params) []Scenario {
			return grid(p, false, func(_, run int, load float64, proto Proto) Scenario {
				return Scenario{
					Family: "hetero-buffers", Tag: p.Tag,
					Schedule: DefaultSynthSchedule(SourcePowerLaw, p.Nodes, p.Duration),
					Workload: DefaultSynthWorkload(load, p.Nodes),
					Protocol: proto, Metric: NormalizeMetric(proto, core.AvgDelay),
					Config: Overrides{Hetero: HeteroBuffers{
						Enabled:    true,
						SmallBytes: 10 << 10,
						LargeBytes: 100 << 10,
						SmallEvery: 2,
					}},
					Run: run,
				}
			})
		},
	})
	Register(Family{
		Name: "bursty-onoff",
		Doc:  "exponential mobility under a bursty on-off workload (30 s bursts, 120 s silences) — a traffic shape the Poisson-only harness cannot express",
		Gen: func(p Params) []Scenario {
			return grid(p, false, func(_, run int, load float64, proto Proto) Scenario {
				w := DefaultSynthWorkload(load, p.Nodes)
				w.Shape = ShapeOnOff
				w.OnMean, w.OffMean = 30, 120
				return Scenario{
					Family: "bursty-onoff", Tag: p.Tag,
					Schedule: DefaultSynthSchedule(SourceExponential, p.Nodes, p.Duration),
					Workload: w,
					Protocol: proto, Metric: NormalizeMetric(proto, core.AvgDelay),
					Config: defaultSynthOverrides(),
					Run:    run,
				}
			})
		},
	})
	Register(Family{
		Name: "constellation-ground",
		Doc:  "planes × sats orbital constellation relaying ground-station traffic over a deterministic periodic contact plan",
		Gen: func(p Params) []Scenario {
			return grid(p, false, func(_, run int, load float64, proto Proto) Scenario {
				return Scenario{
					Family: "constellation-ground", Tag: p.Tag,
					Schedule: ConstellationSchedule(p),
					Workload: constellationWorkload(load, p.Ground, p.OrbitPeriod),
					Protocol: proto, Metric: NormalizeMetric(proto, core.AvgDelay),
					Config: constellationOverrides(),
					Run:    run,
				}
			})
		},
	})
	Register(Family{
		Name: "constellation-ring",
		Doc:  "pure inter-satellite ring constellation (no ground segment): gateway satellites exchange traffic across the planes",
		Gen: func(p Params) []Scenario {
			return grid(p, false, func(_, run int, load float64, proto Proto) Scenario {
				ss := ConstellationSchedule(p)
				ss.Ground = 0
				// Satellite IDs interleave planes, so the first
				// min(8, Planes) IDs are one gateway per plane — the
				// cross-plane traffic the family exists to isolate.
				gateways := min(8, p.Planes)
				return Scenario{
					Family: "constellation-ring", Tag: p.Tag,
					Schedule: ss,
					Workload: constellationWorkload(load, gateways, p.OrbitPeriod),
					Protocol: proto, Metric: NormalizeMetric(proto, core.AvgDelay),
					Config: constellationOverrides(),
					Run:    run,
				}
			})
		},
	})
	Register(Family{
		Name: "constellation-passes",
		Doc:  "orbital constellation with duration-aware pass windows: elevation-driven ground-pass durations and per-pass link rates, streamed transfers, radio sharing across overlapping windows",
		Gen: func(p Params) []Scenario {
			return grid(p, false, func(_, run int, load float64, proto Proto) Scenario {
				return Scenario{
					Family: "constellation-passes", Tag: p.Tag,
					Schedule: PassesSchedule(p),
					Workload: constellationWorkload(load, p.Ground, p.OrbitPeriod),
					Protocol: proto, Metric: NormalizeMetric(proto, core.AvgDelay),
					Config: constellationOverrides(),
					Run:    run,
				}
			})
		},
	})
	Register(Family{
		Name: "asym-uplink",
		Doc:  "uplink-constrained constellation: ground passes run an order of magnitude slower than the inter-satellite links, so the rate-asymmetric access windows — not the space segment — bound delivery",
		Gen: func(p Params) []Scenario {
			return grid(p, false, func(_, run int, load float64, proto Proto) Scenario {
				ss := PassesSchedule(p)
				// The asymmetry: ISLs keep their fast rate, the access
				// links drop to a trickle (16× slower at zenith), as with
				// low-power IoT uplinks under a wideband space segment.
				ss.GroundRateBps = asymUplinkRateBps
				return Scenario{
					Family: "asym-uplink", Tag: p.Tag,
					Schedule: ss,
					Workload: constellationWorkload(load, p.Ground, p.OrbitPeriod),
					Protocol: proto, Metric: NormalizeMetric(proto, core.AvgDelay),
					Config: constellationOverrides(),
					Run:    run,
				}
			})
		},
	})
	Register(Family{
		Name: "cgr-constellation",
		Doc:  "plan-ahead CGR versus the reactive comparison set over the deterministic orbital contact plan — the offline oracle (optimal.Solve on the same materialized schedule) brackets both from above",
		Gen: func(p Params) []Scenario {
			if len(p.Protocols) == 0 {
				p.Protocols = CGRComparisonSet()
			}
			return grid(p, false, func(_, run int, load float64, proto Proto) Scenario {
				return Scenario{
					Family: "cgr-constellation", Tag: p.Tag,
					Schedule: ConstellationSchedule(p),
					Workload: constellationWorkload(load, p.Ground, p.OrbitPeriod),
					Protocol: proto, Metric: NormalizeMetric(proto, core.AvgDelay),
					Config: constellationOverrides(),
					Run:    run,
				}
			})
		},
	})
	Register(Family{
		Name: "lossy-constellation",
		Doc:  "constellation plan under Bernoulli packet loss and stochastic whole-contact failures, swept over a loss-probability axis — where CGR's plan-ahead assumptions meet contacts that silently break",
		Gen: func(p Params) []Scenario {
			if len(p.Protocols) == 0 {
				p.Protocols = CGRComparisonSet()
			}
			lossGrid := p.LossGrid
			if len(lossGrid) == 0 {
				lossGrid = DefaultLossGrid()
			}
			failP := p.ContactFailP
			if failP == 0 {
				failP = LossyDefaultContactFailP
			}
			var out []Scenario
			for _, pLoss := range lossGrid {
				spec := disrupt.Spec{Enabled: true, PLoss: pLoss, PContactFail: failP}
				out = append(out, grid(p, false, func(_, run int, load float64, proto Proto) Scenario {
					return Scenario{
						Family: "lossy-constellation", Tag: p.Tag,
						Schedule: ConstellationSchedule(p),
						Workload: constellationWorkload(load, p.Ground, p.OrbitPeriod),
						Protocol: proto, Metric: NormalizeMetric(proto, core.AvgDelay),
						Config:     constellationOverrides(),
						Disruption: spec,
						Run:        run,
					}
				})...)
			}
			return out
		},
	})
	Register(Family{
		Name: "cgr-policies",
		Doc:  "CGR allocation policies head-to-head over the lossy constellation plan — single-copy, k-path widest-within-slack, bounded multi-copy over disjoint alternates, GMA-style admission — with RAPID as the multi-copy utility-driven reference, swept over the loss axis",
		Gen: func(p Params) []Scenario {
			if len(p.Protocols) == 0 {
				p.Protocols = CGRPolicySet()
			}
			lossGrid := p.LossGrid
			if len(lossGrid) == 0 {
				lossGrid = DefaultLossGrid()
			}
			failP := p.ContactFailP
			if failP == 0 {
				failP = LossyDefaultContactFailP
			}
			var out []Scenario
			for _, pLoss := range lossGrid {
				spec := disrupt.Spec{Enabled: true, PLoss: pLoss, PContactFail: failP}
				out = append(out, grid(p, false, func(_, run int, load float64, proto Proto) Scenario {
					return Scenario{
						Family: "cgr-policies", Tag: p.Tag,
						Schedule: ConstellationSchedule(p),
						Workload: constellationWorkload(load, p.Ground, p.OrbitPeriod),
						Protocol: proto, Metric: NormalizeMetric(proto, core.AvgDelay),
						Config:     constellationOverrides(),
						Disruption: spec,
						Run:        run,
					}
				})...)
			}
			return out
		},
	})
	Register(Family{
		Name: "mega-constellation",
		Doc:  "2,000+-node LEO shell run lazily off the periodic contact plan with a streaming ground-segment workload — the scale arm of the dense routing state, plan cursor and counter-based Poisson source",
		Gen: func(p Params) []Scenario {
			// RAPID-only by default: the point of the family is hot-path
			// scale, not another protocol comparison.
			if len(p.Protocols) == 0 {
				p.Protocols = []Proto{ProtoRapid}
			}
			return grid(p, false, func(_, run int, load float64, proto Proto) Scenario {
				w := constellationWorkload(load, p.Ground, p.OrbitPeriod)
				w.Streaming = true
				return Scenario{
					Family: "mega-constellation", Tag: p.Tag,
					Schedule: ConstellationSchedule(p),
					Workload: w,
					Protocol: proto, Metric: NormalizeMetric(proto, core.AvgDelay),
					Config: constellationOverrides(),
					Run:    run,
				}
			})
		},
	})
	Register(Family{
		Name: "churn-powerlaw",
		Doc:  "power-law mobility with node churn: nodes drop for exponential down intervals during which they neither forward nor receive — popularity-skewed relays keep vanishing under the protocols that lean on them",
		Gen: func(p Params) []Scenario {
			down, up := p.ChurnDownMean, p.ChurnUpMean
			if down <= 0 || up <= 0 {
				down, up = ChurnDefaultDownMean, ChurnDefaultUpMean
			}
			spec := disrupt.Spec{Enabled: true, ChurnDownMean: down, ChurnUpMean: up}
			return grid(p, false, func(_, run int, load float64, proto Proto) Scenario {
				return Scenario{
					Family: "churn-powerlaw", Tag: p.Tag,
					Schedule: DefaultSynthSchedule(SourcePowerLaw, p.Nodes, p.Duration),
					Workload: DefaultSynthWorkload(load, p.Nodes),
					Protocol: proto, Metric: NormalizeMetric(proto, core.AvgDelay),
					Config:     defaultSynthOverrides(),
					Disruption: spec,
					Run:        run,
				}
			})
		},
	})
	Register(Family{
		Name: "deployment",
		Doc:  "perturbed DieselNet days standing in for the physical deployment (Table 3, Fig. 3's 'Real' arm)",
		Gen: func(p Params) []Scenario {
			var out []Scenario
			for day := 0; day < max(p.Days, 1); day++ {
				out = append(out, Deployment(p.Tag, day, p.DayHours, DefaultTraceLoad))
			}
			return out
		},
	})
}

// synthFamily is the shared shape of the two Table 4 mobility families.
func synthFamily(name string, src Source, p Params) []Scenario {
	return grid(p, false, func(_, run int, load float64, proto Proto) Scenario {
		return Scenario{
			Family: name, Tag: p.Tag,
			Schedule: DefaultSynthSchedule(src, p.Nodes, p.Duration),
			Workload: DefaultSynthWorkload(load, p.Nodes),
			Protocol: proto, Metric: NormalizeMetric(proto, core.AvgDelay),
			Config: defaultSynthOverrides(),
			Run:    run,
		}
	})
}

// ConstellationSchedule returns the family's orbital contact-plan spec
// for the given grid parameters. Every seed builds the byte-identical
// plan (the defining property of a deterministic contact plan).
func ConstellationSchedule(p Params) ScheduleSpec {
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
	// LossyDefaultContactFailP is lossy-constellation's whole-contact
	// failure probability: one pass in ten silently never happens.
	LossyDefaultContactFailP = 0.1
	// ChurnDefaultDownMean and ChurnDefaultUpMean keep a node dark
	// roughly a quarter of the time, in outages long enough to straddle
	// several meetings at the synthetic 60 s inter-meeting scale.
	ChurnDefaultDownMean = 40.0
	ChurnDefaultUpMean   = 120.0
)

// DefaultLossGrid is lossy-constellation's loss-probability axis, from
// no packet loss up to a third of all transfers lost. The
// whole-contact failure arm stays constant across the axis (a
// controlled variable), so the x=0 point is the loss-free baseline of
// a *failing* plan, not a pristine run — re-run with
// Overrides.Disrupt zeroed for the pristine reference.
func DefaultLossGrid() []float64 { return []float64{0, 0.05, 0.15, 0.3} }

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

// PassesSchedule returns the windowed-contact constellation spec: the
// point-plan geometry of ConstellationSchedule with elevation-driven
// pass windows and finite link rates layered on.
func PassesSchedule(p Params) ScheduleSpec {
	ss := ConstellationSchedule(p)
	ss.PassWindow = passWindowFrac * p.OrbitPeriod
	ss.GroundRateBps = groundRateBps
	ss.ISLWindow = islWindowFrac * p.OrbitPeriod
	ss.ISLRateBps = islRateBps
	return ss
}

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

// Deployment returns the perturbed-schedule scenario of the Fig. 3
// "Real" arm for one day at the given load.
func Deployment(tag string, day int, dayHours, load float64) Scenario {
	ss := DefaultTraceSchedule(day, dayHours)
	ss.Perturb = true
	pc := trace.DefaultPerturb()
	pc.Seed = int64(day) + 4242
	ss.PerturbCfg = pc
	return Scenario{
		Family: "deployment", Tag: tag,
		Schedule: ss,
		Workload: DefaultTraceWorkload(load),
		Protocol: ProtoRapid, Metric: core.AvgDelay,
	}
}
