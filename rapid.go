// Package rapid is a Go implementation of RAPID — "DTN Routing as a
// Resource Allocation Problem" (Balasubramanian, Levine, Venkataramani,
// SIGCOMM 2007) — together with the complete evaluation stack the paper
// describes: a deterministic DTN simulator, synthetic DieselNet traces,
// exponential and power-law mobility models, the MaxProp /
// Spray-and-Wait / PRoPHET / Random / Epidemic baselines, an offline
// optimal oracle with an exact ILP cross-check, and a harness that
// regenerates every table and figure of the paper's evaluation.
//
// # Quick start
//
//	sched := rapid.ExponentialMobility(rapid.MobilityConfig{
//		Nodes: 20, Duration: 900, MeanMeeting: 60, TransferBytes: 100 << 10,
//	}, 1)
//	w := rapid.PoissonWorkload(rapid.WorkloadConfig{
//		Nodes: sched.Nodes(), PacketsPerWindowPerDest: 4,
//		Window: 50, Duration: 900, PacketBytes: 1 << 10,
//	}, 2)
//	res := rapid.Run(sched, w, rapid.RAPID(rapid.MinimizeAvgDelay), rapid.Config{})
//	fmt.Printf("delivered %.0f%%, avg delay %.1fs\n",
//		100*res.Summary.DeliveryRate, res.Summary.AvgDelay)
//
// The cmd/experiments binary regenerates the paper's figures;
// DESIGN.md maps each figure to the modules involved and EXPERIMENTS.md
// records paper-versus-measured values.
package rapid

import (
	"math/rand"

	"rapid/internal/core"
	"rapid/internal/metrics"
	"rapid/internal/mobility"
	"rapid/internal/packet"
	"rapid/internal/routing"
	"rapid/internal/routing/optimal"
	"rapid/internal/routing/spraywait"
	"rapid/internal/scenario"
	"rapid/internal/trace"
)

// Re-exported data-plane types: these are the library's vocabulary.
type (
	// NodeID identifies a DTN node.
	NodeID = packet.NodeID
	// PacketID identifies a packet within a run.
	PacketID = packet.ID
	// Packet is one DTN bundle (source, destination, size, creation
	// time, optional absolute deadline).
	Packet = packet.Packet
	// Workload is a time-sorted packet set.
	Workload = packet.Workload
	// Meeting is one instantaneous transfer opportunity between two
	// nodes.
	Meeting = trace.Meeting
	// Contact is a duration-aware transfer opportunity: a window of
	// Duration seconds at RateBps. Zero-duration contacts degrade to
	// point meetings.
	Contact = trace.Contact
	// ContactPlan is a deterministic periodic contact schedule (the
	// contact-graph abstraction for computable connectivity).
	ContactPlan = trace.ContactPlan
	// Schedule is a node-meeting schedule (§3.1's multigraph), holding
	// point meetings, windowed contacts, or both.
	Schedule = trace.Schedule
	// Summary is the reduced metrics of one run.
	Summary = metrics.Summary
)

// MaxNodeID bounds node IDs: a valid schedule or contact plan names
// only nodes in [0, MaxNodeID).
const MaxNodeID = trace.MaxNodeID

// MaxPacketID bounds packet IDs: a run accepts only packets with IDs in
// [0, MaxPacketID).
const MaxPacketID = packet.MaxID

// Metric selects RAPID's routing objective (§3.5).
type Metric = core.Metric

// The three instantiated routing metrics of the paper.
const (
	// MinimizeAvgDelay minimizes average delivery delay (Eq. 1).
	MinimizeAvgDelay = core.AvgDelay
	// MinimizeMissedDeadlines maximizes in-deadline delivery (Eq. 2).
	MinimizeMissedDeadlines = core.Deadline
	// MinimizeMaxDelay minimizes the worst-case delay (Eq. 3).
	MinimizeMaxDelay = core.MaxDelay
)

// ControlChannel selects how RAPID's metadata propagates.
type ControlChannel int

const (
	// InBand is the default: metadata rides transfer opportunities and
	// is charged against them (§4.2).
	InBand ControlChannel = iota
	// InstantGlobal is the idealized hybrid-DTN channel of §6.2.3:
	// metadata is globally visible at zero cost.
	InstantGlobal
	// NoControl disables the control plane entirely.
	NoControl
)

// Config carries runtime parameters for Run.
type Config struct {
	// BufferBytes is per-node storage for in-transit packets
	// (<= 0: unlimited).
	BufferBytes int64
	// Control selects the metadata channel (default InBand).
	Control ControlChannel
	// MetaFraction caps in-band metadata at this fraction of each
	// transfer opportunity; 0 means the paper's default (uncapped).
	// Use a negative value to disable metadata entirely.
	MetaFraction float64
	// AcksOnly restricts the control channel to delivery
	// acknowledgments (used by MaxProp and Random-with-acks arms).
	AcksOnly bool
	// LocalMetaOnly restricts metadata to the sender's own buffer
	// (the rapid-local ablation arm of Fig. 14).
	LocalMetaOnly bool
	// Hops is the transitive meeting-estimation horizon (default 3).
	Hops int
	// Seed drives every random decision; runs are reproducible.
	Seed int64
}

// Protocol is an opaque routing-protocol selection: a protocol arm of
// the experiment harness and the metric RAPID optimizes.
type Protocol struct {
	name   string
	arm    scenario.Proto
	metric Metric
	// sprayL, when positive, replaces Spray and Wait's default token
	// budget.
	sprayL int
}

// Name returns the protocol's display name.
func (p Protocol) Name() string { return p.name }

// RAPID returns the paper's protocol optimizing the given metric.
func RAPID(m Metric) Protocol {
	return Protocol{name: "rapid/" + m.String(), arm: scenario.ProtoRapid, metric: m}
}

// MaxProp returns the MaxProp baseline [Burgess et al. 2006].
func MaxProp() Protocol { return Protocol{name: "maxprop", arm: scenario.ProtoMaxProp} }

// SprayAndWait returns binary Spray and Wait with token budget l
// (l <= 0 selects the paper's L = 12).
func SprayAndWait(l int) Protocol {
	return Protocol{name: "spray-and-wait", arm: scenario.ProtoSprayWait, sprayL: l}
}

// PRoPHET returns the PRoPHET baseline with the paper's parameters.
func PRoPHET() Protocol { return Protocol{name: "prophet", arm: scenario.ProtoProphet} }

// Random returns the random-replication baseline.
func Random() Protocol { return Protocol{name: "random", arm: scenario.ProtoRandom} }

// RandomWithAcks returns Random plus acknowledgment flooding (the
// Fig. 14 component arm).
func RandomWithAcks() Protocol {
	return Protocol{name: "random+acks", arm: scenario.ProtoRandomAcks}
}

// Epidemic returns classic epidemic flooding.
func Epidemic() Protocol { return Protocol{name: "epidemic", arm: scenario.ProtoEpidemic} }

// CGR returns contact-graph routing: single-copy earliest-arrival
// planning over the full schedule, with per-window capacity and relay
// buffer reservations, re-planning when a window is missed or cut off.
// It treats the schedule passed to Run as a contact plan known a
// priori (the satellite-DTN setting), so it needs no control channel.
func CGR() Protocol { return Protocol{name: "cgr", arm: scenario.ProtoCGR} }

// Result couples the run summary with per-packet records for deeper
// analysis.
type Result struct {
	Summary Summary
	// Collector exposes per-packet delivery records and cohort
	// fairness.
	Collector *metrics.Collector
}

// Run executes one simulation: the schedule's meetings are replayed
// against the workload under the chosen protocol. It is deterministic
// for a fixed (schedule, workload, protocol, config) tuple.
//
// The schedule must be valid (sched.Validate() == nil): in particular
// every node ID, in the schedule and in the workload, must lie in
// [0, MaxNodeID). Per-node state is indexed by ID, so a negative
// ID panics and a huge one sizes every per-node table to it. Every
// packet ID must lie in [0, MaxPacketID); a packet outside it panics
// when it is generated.
func Run(sched *Schedule, w Workload, p Protocol, cfg Config) Result {
	rcfg := routing.Config{
		BufferBytes:   cfg.BufferBytes,
		MetaFraction:  -1,
		Hops:          cfg.Hops,
		LocalOnlyMeta: cfg.LocalMetaOnly,
		AcksOnly:      cfg.AcksOnly,
	}
	switch cfg.Control {
	case InstantGlobal:
		rcfg.Mode = routing.ControlGlobal
	case NoControl:
		rcfg.Mode = routing.ControlNone
	default:
		rcfg.Mode = routing.ControlInBand
	}
	if cfg.MetaFraction > 0 {
		rcfg.MetaFraction = cfg.MetaFraction
	} else if cfg.MetaFraction < 0 {
		rcfg.MetaFraction = 0
	}
	// The arm builds a fresh factory on every call (CGR's routers share
	// per-run planner state) and sets the acks and control channel the
	// protocol needs.
	factory, rcfg := scenario.Arm(p.arm, p.metric, rcfg)
	if p.sprayL > 0 {
		factory = spraywait.New(p.sprayL)
	}
	col := routing.Run(routing.Scenario{
		Schedule: sched,
		Workload: w,
		Factory:  factory,
		Cfg:      rcfg,
		Seed:     cfg.Seed,
	})
	return Result{Summary: col.Summarize(sched.Duration), Collector: col}
}

// MobilityConfig parameterizes the synthetic mobility models (Table 4).
type MobilityConfig struct {
	Nodes         int
	Duration      float64 // seconds
	MeanMeeting   float64 // mean pairwise inter-meeting time, seconds
	TransferBytes int64   // per-opportunity size
	// PowerLawAlpha skews meeting rates by node popularity for
	// PowerLawMobility (<= 0 selects 1).
	PowerLawAlpha float64
}

// ExponentialMobility draws a uniform exponential meeting schedule.
func ExponentialMobility(cfg MobilityConfig, seed int64) *Schedule {
	m := mobility.Exponential{Config: mobility.Config{
		Nodes: cfg.Nodes, Duration: cfg.Duration,
		MeanMeeting: cfg.MeanMeeting, TransferBytes: cfg.TransferBytes,
		Jitter: true,
	}}
	return m.Schedule(rand.New(rand.NewSource(seed)))
}

// PowerLawMobility draws a popularity-skewed meeting schedule (§6.3).
func PowerLawMobility(cfg MobilityConfig, seed int64) *Schedule {
	r := rand.New(rand.NewSource(seed))
	m := mobility.PowerLaw{
		Config: mobility.Config{
			Nodes: cfg.Nodes, Duration: cfg.Duration,
			MeanMeeting: cfg.MeanMeeting, TransferBytes: cfg.TransferBytes,
			Jitter: true,
		},
		Alpha: cfg.PowerLawAlpha,
		Ranks: mobility.RandomRanks(cfg.Nodes, r),
	}
	return m.Schedule(r)
}

// DieselNetConfig re-exports the synthetic testbed generator's
// configuration.
type DieselNetConfig = trace.DieselNetConfig

// DefaultDieselNet returns the Table-3-calibrated testbed parameters.
func DefaultDieselNet() DieselNetConfig { return trace.DefaultDieselNet() }

// DieselNetDay generates one synthetic DieselNet day (the substitution
// for the paper's real 40-bus traces; see DESIGN.md).
func DieselNetDay(cfg DieselNetConfig, day int) *Schedule {
	return trace.NewDieselNet(cfg).Day(day)
}

// WorkloadConfig parameterizes PoissonWorkload.
type WorkloadConfig struct {
	// Nodes lists traffic endpoints; every ordered pair generates.
	Nodes []NodeID
	// PacketsPerWindowPerDest is the load axis: packets per Window per
	// ordered (src, dst) pair.
	PacketsPerWindowPerDest float64
	// Window is the load unit in seconds (3600 for trace-style loads,
	// 50 for Table 4's synthetic loads).
	Window float64
	// Duration is the generation horizon in seconds.
	Duration float64
	// PacketBytes is the packet size.
	PacketBytes int64
	// Deadline, when positive, stamps each packet with
	// created+Deadline.
	Deadline float64
}

// PoissonWorkload draws a workload with exponential inter-arrival
// times, as the deployment generated (§5.1).
func PoissonWorkload(cfg WorkloadConfig, seed int64) Workload {
	return packet.Generate(packet.GenConfig{
		Nodes:                 cfg.Nodes,
		PacketsPerHourPerDest: cfg.PacketsPerWindowPerDest,
		LoadWindow:            cfg.Window,
		Duration:              cfg.Duration,
		PacketSize:            cfg.PacketBytes,
		Deadline:              cfg.Deadline,
		FirstID:               1,
	}, rand.New(rand.NewSource(seed)))
}

// OptimalResult is the offline oracle's outcome.
type OptimalResult = optimal.Result

// Optimal computes the offline optimal baseline (§6.2.4): routing with
// complete knowledge of meetings and workload, the upper bound RAPID is
// compared against in Fig. 13.
func Optimal(sched *Schedule, w Workload) *OptimalResult {
	return optimal.Solve(sched, w, optimal.Options{})
}
