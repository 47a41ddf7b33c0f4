// Package scenario is the declarative experiment layer: a Scenario is a
// pure, comparable value describing one simulation run — where the
// meeting schedule comes from, what workload rides on it, which
// protocol and routing metric are in play, which runtime-config
// overrides apply, and how every random seed is derived. Because a
// Scenario is comparable it serves directly as a cache key (the
// experiment engine in internal/exp memoizes summaries per Scenario)
// and as a registry entry: the package keeps a registry of named
// scenario families — parameterized grids such as the paper's
// trace-comparison sweep or the heterogeneous-buffer stress family —
// that figures, benchmarks and the command-line tools all draw from.
//
// DESIGN.md §4 documents the registry and how to add a family;
// DESIGN.md §6 covers the seed-derivation rules that make every run
// reproducible bit-for-bit.
package scenario

import (
	"errors"
	"fmt"
	"math/rand"

	"rapid/internal/disrupt"
	"rapid/internal/metrics"
	"rapid/internal/mobility"
	"rapid/internal/packet"
	"rapid/internal/routing"
	"rapid/internal/trace"
)

// Source selects where a scenario's meeting schedule comes from.
type Source int

const (
	// SourceDieselNet replays a synthetic DieselNet day (§5's testbed).
	SourceDieselNet Source = iota
	// SourceExponential draws uniform exponential mobility (§6.3).
	SourceExponential
	// SourcePowerLaw draws popularity-skewed mobility (§6.3).
	SourcePowerLaw
	// SourceConstellation expands a deterministic orbital/ring contact
	// plan (satellite-DTN setting; not in the paper).
	SourceConstellation
)

// String implements fmt.Stringer.
func (s Source) String() string {
	switch s {
	case SourceDieselNet:
		return "dieselnet"
	case SourceExponential:
		return "exponential"
	case SourcePowerLaw:
		return "powerlaw"
	case SourceConstellation:
		return "constellation"
	default:
		return fmt.Sprintf("Source(%d)", int(s))
	}
}

// ScheduleSpec declares a meeting schedule. The zero value is not
// usable; fill the fields for the chosen Source. All fields are
// comparable so the spec can be part of a cache key.
type ScheduleSpec struct {
	Source Source

	// DieselNet fields.
	Diesel trace.DieselNetConfig
	// Day is the DieselNet day index.
	Day int
	// DayHours truncates the simulated day when positive (scales trade
	// fidelity for wall clock; see exp.Scale).
	DayHours float64
	// Perturb applies deployment perturbations to the built schedule,
	// whatever its source (the Fig. 3 "Real" arm).
	Perturb    bool
	PerturbCfg trace.PerturbConfig

	// Synthetic-mobility fields (Table 4's synthetic column).
	Nodes         int
	Duration      float64
	MeanMeeting   float64
	TransferBytes int64
	// Alpha is the power-law exponent (SourcePowerLaw).
	Alpha float64
	// RankSeed fixes the popularity assignment; popularity is a property
	// of the experiment, not of a schedule draw.
	RankSeed int64

	// Constellation fields (SourceConstellation). Ground stations get
	// IDs 0..Ground-1, satellites follow; Duration above is the horizon.
	Planes       int
	SatsPerPlane int
	Ground       int
	// OrbitPeriod is the orbital period in seconds.
	OrbitPeriod float64
	// ISLBytes/GroundBytes size the inter-satellite and ground-pass
	// transfer opportunities.
	ISLBytes    int64
	GroundBytes int64
	// Windowed constellation contacts (all zero keeps point meetings):
	// PassWindow is the zenith ground-pass duration in seconds and
	// GroundRateBps its peak link rate — per-pass duration and rate
	// scale with the pass's deterministic max elevation; ISLWindow and
	// ISLRateBps shape the inter-satellite windows.
	PassWindow    float64
	GroundRateBps float64
	ISLWindow     float64
	ISLRateBps    float64
	// MergeWindows coalesces back-to-back windowed plan occurrences
	// (Window == Period) into single long windows when running off the
	// plan. Semantics-changing (one open per run instead of per pass),
	// so opt-in.
	MergeWindows bool
}

// lazyPlan reports whether the spec runs straight off its contact
// plan, through a streaming cursor (trace.PlanCursor) that keeps memory
// O(plan) rather than O(horizon): every constellation does, unless it
// is perturbed — perturbation transforms the materialized schedule.
func (ss ScheduleSpec) lazyPlan() bool {
	return ss.Source == SourceConstellation && !ss.Perturb
}

// BuildPlan returns the periodic contact plan of a constellation spec
// without expanding it.
func (ss ScheduleSpec) BuildPlan() *trace.ContactPlan {
	if ss.Source != SourceConstellation {
		panic("scenario: BuildPlan requires SourceConstellation")
	}
	return ss.constellation().Plan()
}

// constellation is the SourceConstellation generator the spec declares.
func (ss ScheduleSpec) constellation() mobility.Constellation {
	return mobility.Constellation{Config: mobility.ConstellationConfig{
		Planes: ss.Planes, SatsPerPlane: ss.SatsPerPlane,
		GroundStations: ss.Ground,
		OrbitPeriod:    ss.OrbitPeriod, Duration: ss.Duration,
		ISLBytes: ss.ISLBytes, GroundBytes: ss.GroundBytes,
		PassWindow: ss.PassWindow, GroundRateBps: ss.GroundRateBps,
		ISLWindow: ss.ISLWindow, ISLRateBps: ss.ISLRateBps,
	}}
}

// mobilityConfig is the synthetic-mobility config the spec declares
// (SourceExponential, SourcePowerLaw).
func (ss ScheduleSpec) mobilityConfig() mobility.Config {
	return mobility.Config{
		Nodes:         ss.Nodes,
		Duration:      ss.Duration,
		MeanMeeting:   ss.MeanMeeting,
		TransferBytes: ss.TransferBytes,
		Jitter:        true,
	}
}

// Build materializes the schedule. DieselNet days are deterministic in
// the config alone; the synthetic models consume seed.
func (ss ScheduleSpec) Build(seed int64) *trace.Schedule {
	s := ss.build(seed)
	if ss.Perturb {
		s = trace.Perturb(s, ss.PerturbCfg)
	}
	return s
}

func (ss ScheduleSpec) build(seed int64) *trace.Schedule {
	switch ss.Source {
	case SourceDieselNet:
		cfg := ss.Diesel
		if ss.DayHours > 0 {
			cfg.DayHours = ss.DayHours
		}
		return trace.NewDieselNet(cfg).Day(ss.Day)
	case SourceExponential, SourcePowerLaw:
		cfg := ss.mobilityConfig()
		var ranks []int
		if ss.Source == SourcePowerLaw {
			ranks = mobility.RandomRanks(ss.Nodes, rand.New(rand.NewSource(ss.RankSeed)))
		}
		m, err := mobility.ByName(ss.Source.String(), cfg, ss.Alpha, ranks)
		if err != nil {
			panic("scenario: " + err.Error())
		}
		return m.Schedule(rand.New(rand.NewSource(seed)))
	case SourceConstellation:
		return ss.BuildPlan().Expand()
	default:
		panic(fmt.Sprintf("scenario: unknown schedule source %v", ss.Source))
	}
}

// Shape selects the workload generator.
type Shape int

const (
	// ShapePoisson is the paper's workload: independent Poisson arrivals
	// per ordered (src, dst) pair (§5.1).
	ShapePoisson Shape = iota
	// ShapeOnOff gates each pair's Poisson arrivals by alternating
	// exponential on/off periods — a bursty workload family the paper
	// does not evaluate.
	ShapeOnOff
	// ShapeCohorts is the Fig. 15 fairness workload: batches of packets
	// created in parallel riding on a Poisson background.
	ShapeCohorts
)

// String implements fmt.Stringer.
func (s Shape) String() string {
	switch s {
	case ShapePoisson:
		return "poisson"
	case ShapeOnOff:
		return "on-off"
	case ShapeCohorts:
		return "cohorts"
	default:
		return fmt.Sprintf("Shape(%d)", int(s))
	}
}

// WorkloadSpec declares the traffic offered to the network. Load is in
// packets per Window per destination; the trace experiments use
// Window = 3600 s and the synthetic ones Window = 50 s (Table 4).
type WorkloadSpec struct {
	Shape Shape
	Load  float64
	// Window is the load-axis unit in seconds.
	Window float64
	// PacketBytes is the packet size (1 KB everywhere in the paper).
	PacketBytes int64
	// Deadline stamps packets with Created+Deadline when positive.
	Deadline float64
	// NodeCount, when positive, makes the endpoints 0..NodeCount-1
	// (the synthetic convention) instead of the schedule's node set
	// (the trace convention, §5.1: "only buses that were scheduled to
	// be on the road").
	NodeCount int
	// PerPair divides Load by (endpoints-1), turning the load axis into
	// packets per window per destination aggregated over sources
	// (DESIGN.md §7).
	PerPair bool
	// Streaming generates the workload lazily through a packet.Source
	// instead of materializing the slice — memory O(endpoint pairs)
	// rather than O(packets). Poisson-only; requires NodeCount > 0 (a
	// streaming run may have no materialized schedule to take endpoints
	// from). The counter-based stream draws a different (equally valid)
	// arrival sequence than the materialized generator for the same seed,
	// so a family picks one form and keeps it.
	Streaming bool

	// OnMean/OffMean are the mean burst/silence durations in seconds
	// (ShapeOnOff). Load stays the long-run offered load: Build scales
	// the instantaneous ON rate by (OnMean+OffMean)/OnMean, so the load
	// axis is comparable with always-on shapes.
	OnMean, OffMean float64

	// Fairness-cohort fields (ShapeCohorts).
	Cohorts  int
	Parallel int
	// BgLoad is the Poisson background load that keeps resources
	// contended under the cohorts (§6.2.5).
	BgLoad float64
}

// cohortIDBase re-IDs cohort packets above any plausible background
// range so the two sub-workloads cannot collide.
const cohortIDBase = 1_000_000

// Build materializes the workload over the given schedule using seed.
func (ws WorkloadSpec) Build(sched *trace.Schedule, seed int64) packet.Workload {
	return ws.buildOver(sched.Nodes(), sched.Duration, seed)
}

// endpoints resolves the workload's endpoint set: 0..NodeCount-1 when
// declared, the fallback set (schedule or plan nodes) otherwise.
func (ws WorkloadSpec) endpoints(fallback []packet.NodeID) []packet.NodeID {
	if ws.NodeCount <= 0 {
		return fallback
	}
	nodes := make([]packet.NodeID, ws.NodeCount)
	for i := range nodes {
		nodes[i] = packet.NodeID(i)
	}
	return nodes
}

// genConfig assembles the generator config over a resolved endpoint set
// and horizon.
func (ws WorkloadSpec) genConfig(nodes []packet.NodeID, duration float64) packet.GenConfig {
	rate := ws.Load
	if ws.PerPair && len(nodes) > 1 {
		rate = ws.Load / float64(len(nodes)-1)
	}
	return packet.GenConfig{
		Nodes:                 nodes,
		PacketsPerHourPerDest: rate,
		LoadWindow:            ws.Window,
		Duration:              duration,
		PacketSize:            ws.PacketBytes,
		Deadline:              ws.Deadline,
		FirstID:               1,
	}
}

// validateStreaming checks what the streaming form needs: the lazy
// per-pair arrival streams have no on-off or cohort analogue, and a
// streaming run may have no materialized schedule to take endpoints
// from.
func (ws WorkloadSpec) validateStreaming() error {
	if ws.Shape != ShapePoisson {
		return fmt.Errorf("scenario: streaming workload requires ShapePoisson, got %v", ws.Shape)
	}
	if ws.NodeCount <= 0 {
		return errors.New("scenario: streaming workload requires NodeCount > 0")
	}
	return nil
}

// BuildSource returns the streaming form of the workload. Poisson-only:
// the lazy per-pair arrival streams have no on-off or cohort analogue.
func (ws WorkloadSpec) BuildSource(duration float64, seed int64) packet.Source {
	if err := ws.validateStreaming(); err != nil {
		panic(err.Error())
	}
	gc := ws.genConfig(ws.endpoints(nil), duration)
	return packet.NewPoissonSource(gc, uint64(seed))
}

func (ws WorkloadSpec) buildOver(fallback []packet.NodeID, duration float64, seed int64) packet.Workload {
	nodes := ws.endpoints(fallback)
	gc := ws.genConfig(nodes, duration)
	switch ws.Shape {
	case ShapePoisson:
		return packet.Generate(gc, rand.New(rand.NewSource(seed)))
	case ShapeOnOff:
		if ws.OnMean > 0 && ws.OffMean > 0 {
			gc.PacketsPerHourPerDest *= (ws.OnMean + ws.OffMean) / ws.OnMean
		}
		return packet.GenerateOnOff(gc, ws.OnMean, ws.OffMean, rand.New(rand.NewSource(seed)))
	case ShapeCohorts:
		bg := gc
		bg.PacketsPerHourPerDest = ws.BgLoad
		bg.Deadline = 0
		w := packet.Generate(bg, rand.New(rand.NewSource(seed+99)))
		cohorts := packet.GenerateParallel(nodes, ws.Cohorts, ws.Parallel,
			duration/10, ws.PacketBytes,
			rand.New(rand.NewSource(seed*17+int64(ws.Parallel))))
		for i, cp := range cohorts {
			cp.ID = packet.ID(cohortIDBase + i)
		}
		w = append(w, cohorts...)
		w.Sort()
		return w
	default:
		panic(fmt.Sprintf("scenario: unknown workload shape %v", ws.Shape))
	}
}

// HeteroBuffers declares per-node storage classes — a scenario family
// the uniform-buffer harness cannot express. Every SmallEvery-th node
// (by ID) gets SmallBytes of storage; the rest get LargeBytes.
type HeteroBuffers struct {
	Enabled    bool
	SmallBytes int64
	LargeBytes int64
	SmallEvery int
}

// Overrides tweaks the runtime config declaratively. Unlike the old
// free-text modKey closures, an Overrides value is comparable, so two
// scenarios with different tweaks can never collide in a cache.
type Overrides struct {
	// MetaFraction caps in-band metadata when MetaFractionSet (Fig. 8's
	// axis; negative = uncapped, zero = disabled).
	MetaFraction    float64
	MetaFractionSet bool
	// BufferBytes replaces per-node storage when BufferBytesSet
	// (Figs. 19–21's axis).
	BufferBytes    int64
	BufferBytesSet bool
	// Hops overrides the meeting-estimation horizon when positive.
	Hops int
	// Mode replaces the control plane when ModeSet (e.g. the CLI's
	// -global-channel applied to a non-RAPID protocol).
	Mode    routing.ControlMode
	ModeSet bool
	// Hetero assigns per-node storage classes.
	Hetero HeteroBuffers
	// Disrupt replaces the scenario's Disruption spec when DisruptSet —
	// the knob ablation studies use to re-run a family pristine
	// (Disrupt zero) or under a different intensity. Applied by
	// Materialize, not by Apply: disruption is a property of the run,
	// not of the runtime config.
	Disrupt    disrupt.Spec
	DisruptSet bool
	// Workers overrides the run's event-engine worker count when
	// non-zero (routing.Config.Workers semantics: >1 parallel,
	// negative = one per CPU). Output is byte-identical at every
	// setting, so Workers does not change what a scenario computes —
	// only how fast.
	Workers int
}

// Apply folds the overrides into a runtime config.
func (o Overrides) Apply(cfg *routing.Config) {
	if o.MetaFractionSet {
		cfg.MetaFraction = o.MetaFraction
	}
	if o.BufferBytesSet {
		cfg.BufferBytes = o.BufferBytes
	}
	if o.Hops > 0 {
		cfg.Hops = o.Hops
	}
	if o.ModeSet {
		cfg.Mode = o.Mode
	}
	if o.Workers != 0 {
		cfg.Workers = o.Workers
	}
	if o.Hetero.Enabled {
		h := o.Hetero
		if h.SmallEvery < 1 {
			h.SmallEvery = 2
		}
		cfg.BufferBytesFor = func(id packet.NodeID) int64 {
			if int(id)%h.SmallEvery == 0 {
				return h.SmallBytes
			}
			return h.LargeBytes
		}
	}
}

// Scenario is one fully specified simulation run. It is a pure value:
// comparable (usable as a map key), copyable, and deterministic — the
// same Scenario always produces byte-identical schedules, workloads and
// summaries.
type Scenario struct {
	// Family names the registry family that produced the scenario
	// (informational; part of the cache identity).
	Family string
	// Tag namespaces the cache (the exp.Scale name; benchmarks use
	// per-iteration tags to defeat memoization).
	Tag      string
	Schedule ScheduleSpec
	Workload WorkloadSpec
	Protocol Proto
	// Metric is RAPID's routing objective (ignored by the baselines).
	Metric Metric
	// Config declares runtime-config overrides.
	Config Overrides
	// Disruption declares the stochastic disruption model (loss,
	// contact failure, churn, jitter; internal/disrupt). The zero value
	// is the pristine network. Config.Disrupt overrides it when set.
	Disruption disrupt.Spec
	// Run is the averaging-seed index; scenarios differing only in Run
	// are independent draws of the same experiment point — including
	// independent disruption realizations (DESIGN.md §10).
	Run int
}

// workloadSeedSalt keeps workload draws decorrelated from simulation
// seeds (the seed harness used the same constant).
const workloadSeedSalt = 0x5ca1ab1e

// Seeds derives every random seed from the scenario identity:
//
//   - DieselNet: base = Day·1000 + Run; the schedule is deterministic in
//     the config, the workload draws from base XOR 0x5ca1ab1e, and the
//     simulation from base.
//   - Synthetic: base = Run + 1; the schedule draws from 31·base, the
//     workload from 77·base, the simulation from base.
//
// The derivation matches the pre-registry harness for the standard
// trace and synthetic sweeps (Figs. 4–14, 16–24), so those figure
// values are stable across the refactor. The deployment and fairness
// arms (Table 3, Fig. 3 "Real", Fig. 15) previously seeded the
// simulator with the bare day index and now share this rule, so their
// reproduced values shift within their expected spread.
func (s Scenario) Seeds() (schedule, workload, sim int64) {
	switch s.Schedule.Source {
	case SourceDieselNet:
		base := int64(s.Schedule.Day)*1000 + int64(s.Run)
		return 0, base ^ workloadSeedSalt, base
	default:
		base := int64(s.Run) + 1
		return base * 31, base * 77, base
	}
}

// baseConfig is the runtime config before protocol arm and overrides.
func (s Scenario) baseConfig() routing.Config {
	cfg := routing.Config{
		Mode:         routing.ControlInBand,
		MetaFraction: -1,
		Hops:         3,
	}
	switch s.Schedule.Source {
	case SourceDieselNet:
		cfg.DefaultTransferBytes = s.Schedule.Diesel.MeanTransferBytes
	case SourceConstellation:
		cfg.DefaultTransferBytes = float64(s.Schedule.ISLBytes)
		if s.Schedule.PassWindow > 0 && s.Schedule.ISLWindow > 0 {
			// Windowed plans size opportunities as rate × window.
			cfg.DefaultTransferBytes = s.Schedule.ISLRateBps * s.Schedule.ISLWindow
		}
	default:
		cfg.DefaultTransferBytes = float64(s.Schedule.TransferBytes)
	}
	return cfg
}

// Disrupt resolves the effective disruption spec: the Config override
// when set, the scenario's own Disruption otherwise.
func (s Scenario) Disrupt() disrupt.Spec {
	if s.Config.DisruptSet {
		return s.Config.Disrupt
	}
	return s.Disruption
}

// Validate reports a scenario that Materialize or routing.Run would
// panic on: an invalid schedule or workload spec, or an enabled
// disruption spec outside the model's domain. Input from outside the
// process (a simd job) is validated here before it runs.
func (s Scenario) Validate() error {
	var err error
	switch s.Schedule.Source {
	case SourceDieselNet:
		err = s.Schedule.Diesel.Validate()
	case SourceExponential, SourcePowerLaw:
		err = s.Schedule.mobilityConfig().Validate()
	case SourceConstellation:
		err = s.Schedule.constellation().Config.Validate()
	default:
		err = fmt.Errorf("scenario: unknown schedule source %v", s.Schedule.Source)
	}
	if err != nil {
		return err
	}
	switch s.Workload.Shape {
	case ShapePoisson, ShapeOnOff, ShapeCohorts:
	default:
		return fmt.Errorf("scenario: unknown workload shape %v", s.Workload.Shape)
	}
	if s.Workload.Streaming {
		err = s.Workload.validateStreaming()
	}
	if d := s.Disrupt(); err == nil && d.Enabled {
		err = d.Validate()
	}
	return err
}

// Materialize builds the runnable form: schedule, workload, router
// factory and final config, with all seeds derived. The disruption
// seed derives from the simulation seed, so replications (distinct Run
// values) realize independent disruption streams.
func (s Scenario) Materialize() routing.Scenario {
	schedSeed, wSeed, simSeed := s.Seeds()
	factory, cfg := Arm(s.Protocol, s.Metric, s.baseConfig())
	s.Config.Apply(&cfg)
	rs := routing.Scenario{Factory: factory, Cfg: cfg, Seed: simSeed}
	if s.Schedule.lazyPlan() {
		rs.Plan = s.Schedule.BuildPlan()
		rs.MergePlanWindows = s.Schedule.MergeWindows
	} else {
		rs.Schedule = s.Schedule.Build(schedSeed)
	}
	if s.Workload.Streaming {
		rs.Source = s.Workload.BuildSource(rs.Horizon(), wSeed)
	} else if rs.Schedule != nil {
		rs.Workload = s.Workload.Build(rs.Schedule, wSeed)
	} else {
		rs.Workload = s.Workload.buildOver(rs.Plan.Nodes(), rs.Horizon(), wSeed)
	}
	if d := s.Disrupt(); d.Enabled {
		rs.Disrupt = d
		rs.DisruptSeed = disrupt.DeriveSeed(simSeed)
	}
	return rs
}

// Execute materializes and runs the scenario, returning the full
// collector and the run horizon.
func (s Scenario) Execute() (*metrics.Collector, float64) {
	rs := s.Materialize()
	return routing.Run(rs), rs.Horizon()
}

// Summary runs the scenario and reduces it to the reported metrics.
func (s Scenario) Summary() metrics.Summary {
	col, horizon := s.Execute()
	return col.Summarize(horizon)
}
