package exp

import (
	"fmt"
	"sort"

	"rapid/internal/core"
	"rapid/internal/metrics"
	"rapid/internal/report"
	"rapid/internal/routing/optimal"
	"rapid/internal/scenario"
	"rapid/internal/stat"
)

// Output is one experiment's reproduced artifact: a figure, a table,
// or both, plus notes.
type Output struct {
	Figure *report.Figure
	Table  *report.Table
	Notes  []string
}

// Experiment couples a paper artifact with its regeneration function,
// which runs every scenario on the engine it is given.
type Experiment struct {
	ID    string
	Title string
	Run   func(*Engine, Scale) Output
}

// All returns every reproduced table and figure in paper order. It is
// the single declaration of each artifact: the grid figures are rows
// of figure(), the rest name their own function.
func All() []Experiment {
	return []Experiment{
		{"table3", "Deployment daily statistics", table3},
		{"fig3", "Validation: deployment vs simulation average delay", fig3},
		// Figs. 4–7: the comparison set on the trace. Fig. 5 reads the
		// average-delay sweep; Figs. 6 and 7 run RAPID at Eqs. 3 and 2.
		figure("fig4", "Trace: average delay vs load", "Average delay vs load (trace)",
			grid{traceFamily, comparison, traceLoads, core.AvgDelay, avgDelayMin}),
		figure("fig5", "Trace: delivery rate vs load", "Delivery rate vs load (trace)",
			grid{traceFamily, comparison, traceLoads, core.AvgDelay, deliveryRate}),
		figure("fig6", "Trace: max delay vs load", "Max delay vs load (trace)",
			grid{traceFamily, comparison, traceLoads, core.MaxDelay, maxDelayMin}),
		figure("fig7", "Trace: delivered within deadline vs load", "Delivered within deadline vs load (trace)",
			grid{traceFamily, comparison, traceLoads, core.Deadline, withinDeadline}),
		{"fig8", "Trace: control channel benefit (metadata cap sweep)", fig8},
		{"fig9", "Trace: channel utilization and metadata vs load", fig9},
		// Figs. 10–12: the hybrid DTN's two control channels.
		figure("fig10", "Trace: avg delay, in-band vs instant global channel", "Avg delay: in-band vs instant global channel",
			grid{traceFamily, channels, traceLoads, core.AvgDelay, avgDelayMin}),
		figure("fig11", "Trace: delivery rate, in-band vs instant global channel", "Delivery rate: in-band vs instant global channel",
			grid{traceFamily, channels, traceLoads, core.AvgDelay, deliveryRate}),
		figure("fig12", "Trace: within deadline, in-band vs instant global channel", "Within deadline: in-band vs instant global channel",
			grid{traceFamily, channels, traceLoads, core.Deadline, withinDeadline}),
		{"fig13", "Trace: comparison with Optimal (small loads)", fig13},
		// Fig. 14: the component ablation from Random up to full RAPID.
		figure("fig14", "Trace: RAPID component ablation", "RAPID component ablation (trace)",
			grid{traceFamily, ablation, traceLoads, core.AvgDelay, avgDelayMin}),
		{"fig15", "Trace: Jain fairness CDF for parallel packets", fig15},
		// Figs. 16–24: synthetic mobility; Figs. 19–21 vary per-node
		// storage at a fixed load.
		figure("fig16", "Power law: average delay vs load", "Average delay vs load (power law)",
			grid{"synth-powerlaw", comparison, synthLoads, core.AvgDelay, avgDelaySec}),
		figure("fig17", "Power law: max delay vs load", "Max delay vs load (power law)",
			grid{"synth-powerlaw", comparison, synthLoads, core.MaxDelay, maxDelaySec}),
		figure("fig18", "Power law: delivered within deadline vs load", "Delivered within deadline vs load (power law)",
			grid{"synth-powerlaw", comparison, synthLoads, core.Deadline, withinDeadline}),
		figure("fig19", "Power law: average delay vs buffer size", "Average delay vs buffer size (power law)",
			grid{"synth-powerlaw", comparison, buffers, core.AvgDelay, avgDelaySec}),
		figure("fig20", "Power law: max delay vs buffer size", "Max delay vs buffer size (power law)",
			grid{"synth-powerlaw", comparison, buffers, core.MaxDelay, maxDelaySec}),
		figure("fig21", "Power law: delivered within deadline vs buffer size", "Delivered within deadline vs buffer size (power law)",
			grid{"synth-powerlaw", comparison, buffers, core.Deadline, withinDeadline}),
		figure("fig22", "Exponential: average delay vs load", "Average delay vs load (exponential)",
			grid{"synth-exponential", comparison, synthLoads, core.AvgDelay, avgDelaySec}),
		figure("fig23", "Exponential: max delay vs load", "Max delay vs load (exponential)",
			grid{"synth-exponential", comparison, synthLoads, core.MaxDelay, maxDelaySec}),
		figure("fig24", "Exponential: delivered within deadline vs load", "Delivered within deadline vs load (exponential)",
			grid{"synth-exponential", comparison, synthLoads, core.Deadline, withinDeadline}),
		// The CGR allocation-policy family (single-copy, k-path,
		// bounded multi-copy, admission, with RAPID as the multi-copy
		// reference): the reduction `experiments -family cgr-policies`
		// produces, pinned by the goldens. The engine's cache makes the
		// second artifact's reduction nearly free.
		{"cgr-policies-delay", "CGR allocation policies: average delay vs loss",
			func(e *Engine, sc Scale) Output { return cgrPolicies(e, sc)[0] }},
		{"cgr-policies-rate", "CGR allocation policies: delivery rate vs loss",
			func(e *Engine, sc Scale) Output { return cgrPolicies(e, sc)[1] }},
	}
}

// ByID looks an experiment up.
func ByID(id string) (Experiment, bool) {
	for _, e := range All() {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}

// ---------------------------------------------------------------------
// Grid figures

// arm is one series of a grid figure: its label and the protocol it
// runs.
type arm struct {
	label string
	proto scenario.Proto
}

// protos labels each protocol by its own name.
func protos(ps ...scenario.Proto) []arm {
	arms := make([]arm, len(ps))
	for i, p := range ps {
		arms[i] = arm{string(p), p}
	}
	return arms
}

var (
	comparison = protos(scenario.ComparisonSet()...)
	channels   = []arm{
		{"In-band control channel", scenario.ProtoRapid},
		{"Instant global control channel", scenario.ProtoRapidGlobal},
	}
	ablation = protos(scenario.ProtoRapid, scenario.ProtoRapidLocal, scenario.ProtoRandomAcks, scenario.ProtoRandom)
)

// tick is one point of a grid figure's x axis: the plotted x, the load
// its runs generate, and the overrides they run with.
type tick struct {
	x, load float64
	ov      scenario.Overrides
}

// axis is a grid figure's x axis: its label and its ticks at a scale.
type axis struct {
	label string
	ticks func(Scale) []tick
}

// loadAxis plots a scale's load axis against the load itself.
func loadAxis(label string, loads func(Scale) []float64) axis {
	return axis{label, func(sc Scale) []tick {
		var ts []tick
		for _, l := range loads(sc) {
			ts = append(ts, tick{x: l, load: l})
		}
		return ts
	}}
}

const tracePerHour = "packets generated per hour per destination"

var (
	traceLoads   = loadAxis(tracePerHour, func(sc Scale) []float64 { return sc.TraceLoads })
	optimalLoads = loadAxis(tracePerHour, func(sc Scale) []float64 { return sc.OptimalLoads })
	synthLoads   = loadAxis("packets generated per 50 s per destination", func(sc Scale) []float64 { return sc.SynthLoads })
	// buffers is Figs. 19–21's per-node storage axis (KB), at Table 4's
	// 20 packets per destination (§6.3.2).
	buffers = axis{"available storage (KB)", func(sc Scale) []tick {
		var ts []tick
		for _, b := range sc.Buffers {
			ts = append(ts, tick{x: float64(b >> 10), load: 20,
				ov: scenario.Overrides{BufferBytes: b, BufferBytesSet: true}})
		}
		return ts
	}}
)

// measure is what a figure plots of each run, and its y label.
type measure struct {
	ylabel string
	value  func(metrics.Summary) float64
}

var (
	avgDelayMin    = measure{"avg delay (min)", func(s metrics.Summary) float64 { return s.AvgDelay / 60 }}
	avgDelaySec    = measure{"avg delay (s)", func(s metrics.Summary) float64 { return s.AvgDelay }}
	maxDelayMin    = measure{"max delay (min)", func(s metrics.Summary) float64 { return s.MaxDelay / 60 }}
	maxDelaySec    = measure{"max delay (s)", func(s metrics.Summary) float64 { return s.MaxDelay }}
	deliveryRate   = measure{"fraction delivered", func(s metrics.Summary) float64 { return s.DeliveryRate }}
	withinDeadline = measure{"fraction within deadline", func(s metrics.Summary) float64 { return s.WithinDeadline }}
	avgDelayAllMin = measure{"avg delay incl. undelivered (min)", func(s metrics.Summary) float64 { return s.AvgDelayAll / 60 }}
)

// grid declares a figure swept over a registry family's grid: one
// series per arm and one point per axis tick, each point the arm's
// days × runs at that tick, with RAPID optimizing metric.
type grid struct {
	family  string
	arms    []arm
	axis    axis
	metric  core.Metric
	measure measure
}

// points is the grid's figure points at the scale, arm by arm.
func (g grid) points(sc Scale) []point {
	var pts []point
	ticks := g.axis.ticks(sc)
	for _, a := range g.arms {
		for _, t := range ticks {
			pts = append(pts, point{series: a.label, x: t.x, value: g.measure.value,
				scs: pointGrid(g.family, sc, t.load, a.proto, g.metric, t.ov)})
		}
	}
	return pts
}

// fig is the grid's empty figure.
func (g grid) fig(id, title string) *report.Figure {
	return &report.Figure{ID: id, Title: title, XLabel: g.axis.label, YLabel: g.measure.ylabel}
}

// figure declares the experiment that plots g; figTitle heads its
// figure.
func figure(id, title, figTitle string, g grid) Experiment {
	return Experiment{id, title, func(e *Engine, sc Scale) Output {
		pts := g.points(sc)
		return Output{Figure: plot(g.fig(id, figTitle), pts, e.reduce(pts), false)}
	}}
}

// ---------------------------------------------------------------------
// Figures of their own shape

// fig8 reproduces Figure 8: RAPID average delay as the metadata budget
// is capped at a fraction of each opportunity, at three loads.
// Unlimited metadata plots at x = 0.4 (just past the paper's 0.35 axis
// end) and is called out in the notes.
func fig8(e *Engine, sc Scale) Output {
	loads := []float64{6, 12, 20}
	if sc.Name == "tiny" {
		loads = []float64{6}
	}
	var pts []point
	for _, load := range loads {
		label := fmt.Sprintf("load %g/hour/destination", load)
		for _, frac := range sc.MetaFractions {
			x := frac
			if frac < 0 {
				x = 0.4
			}
			ov := scenario.Overrides{MetaFraction: frac, MetaFractionSet: true}
			pts = append(pts, point{series: label, x: x, value: avgDelayMin.value,
				scs: pointGrid(traceFamily, sc, load, scenario.ProtoRapid, core.AvgDelay, ov)})
		}
	}
	fig := &report.Figure{ID: "fig8", Title: "Control channel benefit (trace)",
		XLabel: "metadata cap (fraction of opportunity; 0.4 = unlimited)", YLabel: avgDelayMin.ylabel}
	return Output{Figure: plot(fig, pts, e.reduce(pts), false), Notes: []string{
		"x = 0.4 is the unlimited-metadata arm (paper: best performance with no restriction)",
	}}
}

// fig9 reproduces Figure 9: channel utilization, metadata/data ratio,
// and delivery rate of RAPID as load grows past the comparison range.
func fig9(e *Engine, sc Scale) Output {
	last := sc.TraceLoads[len(sc.TraceLoads)-1]
	var pts []point
	for _, load := range append(append([]float64{}, sc.TraceLoads...), last*1.4, last*1.875) {
		scs := pointGrid(traceFamily, sc, load, scenario.ProtoRapid, core.AvgDelay, scenario.Overrides{})
		pts = append(pts,
			point{series: "Meta information/RAPID data", x: load, scs: scs, value: func(s metrics.Summary) float64 { return s.MetaOverData }},
			point{series: "% channel utilization", x: load, scs: scs, value: func(s metrics.Summary) float64 { return s.Utilization }},
			point{series: "Delivery rate", x: load, scs: scs, value: deliveryRate.value})
	}
	fig := &report.Figure{ID: "fig9", Title: "Channel utilization (trace)", XLabel: tracePerHour, YLabel: "fraction"}
	return Output{Figure: plot(fig, pts, e.reduce(pts), false)}
}

// fig13 reproduces Figure 13: average delay including undelivered
// packets for Optimal, RAPID (both channels) and MaxProp at small
// loads. The offline oracle substitutes for the paper's CPLEX ILP
// (cross-checked in internal/routing/optimal's tests; see DESIGN.md).
// It solves every scenario of the in-band arm's grid — the days and
// runs each arm averages over — on the same materialized schedules and
// workloads, so the bound is computed on exactly the traffic RAPID
// routed.
func fig13(e *Engine, sc Scale) Output {
	g := grid{traceFamily, []arm{
		{"Rapid: Instant global control channel", scenario.ProtoRapidGlobal},
		{"Rapid: In-band control channel", scenario.ProtoRapid},
		{"Maxprop", scenario.ProtoMaxProp},
	}, optimalLoads, core.AvgDelay, avgDelayAllMin}
	ticks := g.axis.ticks(sc)
	var jobs []scenario.Scenario
	for _, t := range ticks {
		jobs = append(jobs, pointGrid(traceFamily, sc, t.load, scenario.ProtoRapid, core.AvgDelay, t.ov)...)
	}
	// One solve per scenario, fanned across the pool.
	delays := make([]float64, len(jobs))
	e.parallel(len(jobs), func(i int) {
		rs := jobs[i].Materialize()
		delays[i] = optimal.Solve(rs.Schedule, rs.Workload, optimal.Options{}).AvgDelayAll() / 60
	})
	per := sc.Days * sc.Runs
	var opt []point
	for i, t := range ticks {
		opt = append(opt, point{series: "Optimal", x: t.x, obs: delays[i*per : (i+1)*per]})
	}
	fig := g.fig("fig13", "Comparison with Optimal (trace, small loads)")
	pts := append(opt, g.points(sc)...)
	return Output{Figure: plot(fig, pts, e.reduce(pts), false), Notes: []string{
		"Optimal is the offline earliest-arrival oracle with capacity reservation (single-copy, like the paper's ILP); exact-ILP cross-checks live in internal/routing/optimal tests",
	}}
}

// fig15 reproduces Figure 15: the CDF of Jain's fairness index over
// per-cohort delays of packets created in parallel, under contention.
func fig15(e *Engine, sc Scale) Output {
	fig := &report.Figure{
		ID: "fig15", Title: "RAPID fairness (trace)",
		XLabel: "fairness index", YLabel: "CDF of cohorts",
	}
	for _, parallel := range []int{20, 30} {
		var indices []float64
		for _, r := range e.Runs(fairnessGrid(sc, parallel)) {
			indices = append(indices, r.Col.CohortFairness(r.Horizon)...)
		}
		sort.Float64s(indices)
		ecdf := stat.NewECDF(indices)
		xs, ys := ecdf.Points(min(64, len(indices)))
		fig.Series = append(fig.Series, report.Series{
			Label: fmt.Sprintf("Number of parallel packets: %d", parallel),
			X:     xs, Y: ys,
		})
	}
	return Output{Figure: fig}
}

// cgrPolicies runs the cgr-policies family reduction.
func cgrPolicies(e *Engine, sc Scale) []Output {
	outs, err := e.FamilyCI("cgr-policies", sc, sc.Runs)
	if err != nil {
		// Expansion of a registered family cannot fail unless the
		// registry itself is broken — a programming error.
		panic(fmt.Sprintf("exp: cgr-policies family: %v", err))
	}
	return outs
}
