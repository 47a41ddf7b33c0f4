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

// Experiment couples a paper artifact with its regeneration function.
type Experiment struct {
	ID    string
	Title string
	Run   func(sc Scale) Output
}

// All returns every reproduced table and figure in paper order.
func All() []Experiment {
	return []Experiment{
		{"table3", "Deployment daily statistics", Table3},
		{"fig3", "Validation: deployment vs simulation average delay", Fig3},
		{"fig4", "Trace: average delay vs load", Fig4},
		{"fig5", "Trace: delivery rate vs load", Fig5},
		{"fig6", "Trace: max delay vs load", Fig6},
		{"fig7", "Trace: delivered within deadline vs load", Fig7},
		{"fig8", "Trace: control channel benefit (metadata cap sweep)", Fig8},
		{"fig9", "Trace: channel utilization and metadata vs load", Fig9},
		{"fig10", "Trace: avg delay, in-band vs instant global channel", Fig10},
		{"fig11", "Trace: delivery rate, in-band vs instant global channel", Fig11},
		{"fig12", "Trace: within deadline, in-band vs instant global channel", Fig12},
		{"fig13", "Trace: comparison with Optimal (small loads)", Fig13},
		{"fig14", "Trace: RAPID component ablation", Fig14},
		{"fig15", "Trace: Jain fairness CDF for parallel packets", Fig15},
		{"fig16", "Power law: average delay vs load", Fig16},
		{"fig17", "Power law: max delay vs load", Fig17},
		{"fig18", "Power law: delivered within deadline vs load", Fig18},
		{"fig19", "Power law: average delay vs buffer size", Fig19},
		{"fig20", "Power law: max delay vs buffer size", Fig20},
		{"fig21", "Power law: delivered within deadline vs buffer size", Fig21},
		{"fig22", "Exponential: average delay vs load", Fig22},
		{"fig23", "Exponential: max delay vs load", Fig23},
		{"fig24", "Exponential: delivered within deadline vs load", Fig24},
		{"cgr-policies-delay", "CGR allocation policies: average delay vs loss", CGRPoliciesDelay},
		{"cgr-policies-rate", "CGR allocation policies: delivery rate vs loss", CGRPoliciesRate},
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
// Trace comparison sweeps (Figs. 4–7)

// traceComparison sweeps the load axis for the comparison set (the
// trace-comparison family's grid at the figure's metric).
func traceComparison(sc Scale, metric core.Metric, value func(metrics.Summary) float64, id, title, ylabel string) *sweep {
	sw := newSweep(id, title, "packets generated per hour per destination", ylabel)
	for _, proto := range scenario.ComparisonSet() {
		for _, load := range sc.TraceLoads {
			sw.point(string(proto), load, value,
				pointGrid(traceFamily, sc, load, proto, metric, scenario.Overrides{}))
		}
	}
	return sw
}

// Fig4 reproduces Figure 4 (average delay of delivered packets).
func Fig4(sc Scale) Output {
	return traceComparison(sc, core.AvgDelay, avgDelayMin,
		"fig4", "Average delay vs load (trace)", "avg delay (min)").output()
}

// Fig5 reproduces Figure 5 (delivery rate; RAPID run with the
// average-delay metric, as in the paper's shared sweep).
func Fig5(sc Scale) Output {
	return traceComparison(sc, core.AvgDelay, deliveryRate,
		"fig5", "Delivery rate vs load (trace)", "fraction delivered").output()
}

// Fig6 reproduces Figure 6 (maximum delay; RAPID optimizes Eq. 3).
func Fig6(sc Scale) Output {
	return traceComparison(sc, core.MaxDelay, maxDelayMin,
		"fig6", "Max delay vs load (trace)", "max delay (min)").output()
}

// Fig7 reproduces Figure 7 (fraction delivered within the 2.7 h
// deadline; RAPID optimizes Eq. 2).
func Fig7(sc Scale) Output {
	return traceComparison(sc, core.Deadline, withinDeadline,
		"fig7", "Delivered within deadline vs load (trace)", "fraction within deadline").output()
}

// ---------------------------------------------------------------------
// Control-channel studies (Figs. 8–12)

// Fig8 reproduces Figure 8: RAPID average delay as the metadata budget
// is capped at a fraction of each opportunity, at three loads.
// Unlimited metadata plots at x = 0.4 (just past the paper's 0.35 axis
// end) and is called out in the notes.
func Fig8(sc Scale) Output {
	loads := []float64{6, 12, 20}
	if sc.Name == "tiny" {
		loads = []float64{6}
	}
	sw := newSweep("fig8", "Control channel benefit (trace)",
		"metadata cap (fraction of opportunity; 0.4 = unlimited)", "avg delay (min)")
	for _, load := range loads {
		label := fmt.Sprintf("load %g/hour/destination", load)
		for _, frac := range sc.MetaFractions {
			x := frac
			if frac < 0 {
				x = 0.4
			}
			ov := scenario.Overrides{MetaFraction: frac, MetaFractionSet: true}
			sw.point(label, x, avgDelayMin,
				pointGrid(traceFamily, sc, load, scenario.ProtoRapid, core.AvgDelay, ov))
		}
	}
	fig := sw.run(defaultEngine)
	for i := range fig.Series {
		sortSeries(&fig.Series[i])
	}
	return Output{Figure: fig, Notes: []string{
		"x = 0.4 is the unlimited-metadata arm (paper: best performance with no restriction)",
	}}
}

// Fig9 reproduces Figure 9: channel utilization, metadata/data ratio,
// and delivery rate as load grows past the comparison range.
func Fig9(sc Scale) Output {
	loads := append(append([]float64{}, sc.TraceLoads...),
		sc.TraceLoads[len(sc.TraceLoads)-1]*1.4,
		sc.TraceLoads[len(sc.TraceLoads)-1]*1.875)
	sw := newSweep("fig9", "Channel utilization (trace)",
		"packets generated per hour per destination", "fraction")
	for _, load := range loads {
		grid := pointGrid(traceFamily, sc, load, scenario.ProtoRapid, core.AvgDelay, scenario.Overrides{})
		sw.point("Meta information/RAPID data", load, metaOverData, grid)
		sw.point("% channel utilization", load, channelUtilization, grid)
		sw.point("Delivery rate", load, deliveryRate, grid)
	}
	return sw.output()
}

// globalVsInBand powers Figs. 10–12.
func globalVsInBand(sc Scale, metric core.Metric, value func(metrics.Summary) float64, id, title, ylabel string) Output {
	sw := newSweep(id, title, "packets generated per hour per destination", ylabel)
	for _, proto := range []scenario.Proto{scenario.ProtoRapid, scenario.ProtoRapidGlobal} {
		label := "In-band control channel"
		if proto == scenario.ProtoRapidGlobal {
			label = "Instant global control channel"
		}
		for _, load := range sc.TraceLoads {
			sw.point(label, load, value,
				pointGrid(traceFamily, sc, load, proto, metric, scenario.Overrides{}))
		}
	}
	return sw.output()
}

// Fig10 reproduces Figure 10 (average delay, hybrid DTN).
func Fig10(sc Scale) Output {
	return globalVsInBand(sc, core.AvgDelay, avgDelayMin,
		"fig10", "Avg delay: in-band vs instant global channel", "avg delay (min)")
}

// Fig11 reproduces Figure 11 (delivery rate, hybrid DTN).
func Fig11(sc Scale) Output {
	return globalVsInBand(sc, core.AvgDelay, deliveryRate,
		"fig11", "Delivery rate: in-band vs instant global channel", "fraction delivered")
}

// Fig12 reproduces Figure 12 (within-deadline, hybrid DTN).
func Fig12(sc Scale) Output {
	return globalVsInBand(sc, core.Deadline, withinDeadline,
		"fig12", "Within deadline: in-band vs instant global channel", "fraction within deadline")
}

// ---------------------------------------------------------------------
// Optimality and components (Figs. 13–15)

// Fig13 reproduces Figure 13: average delay including undelivered
// packets for Optimal, RAPID (both channels) and MaxProp at small
// loads. The offline oracle substitutes for the paper's CPLEX ILP
// (cross-checked in internal/routing/optimal's tests; see DESIGN.md).
// The oracle shares the online arms' materialized schedules and
// workloads, so the bound is computed on exactly the traffic RAPID
// routed.
func Fig13(sc Scale) Output {
	arms := []struct {
		label string
		proto scenario.Proto
	}{
		{"Rapid: Instant global control channel", scenario.ProtoRapidGlobal},
		{"Rapid: In-band control channel", scenario.ProtoRapid},
		{"Maxprop", scenario.ProtoMaxProp},
	}

	// Offline oracle, one solve per scenario of each load's grid — the
	// days and runs every arm averages over — fanned across the pool.
	var jobs []scenario.Scenario
	for _, load := range sc.OptimalLoads {
		jobs = append(jobs, pointGrid(traceFamily, sc, load, scenario.ProtoRapid, core.AvgDelay, scenario.Overrides{})...)
	}
	delays := make([]float64, len(jobs))
	defaultEngine.parallel(len(jobs), func(i int) {
		rs := jobs[i].Materialize()
		delays[i] = optimal.Solve(rs.Schedule, rs.Workload, optimal.Options{}).AvgDelayAll() / 60
	})
	per := sc.Days * sc.Runs
	optSeries := report.Series{Label: "Optimal"}
	for i, load := range sc.OptimalLoads {
		var sum float64
		for _, d := range delays[i*per : (i+1)*per] {
			sum += d
		}
		optSeries.X = append(optSeries.X, load)
		optSeries.Y = append(optSeries.Y, sum/float64(per))
	}

	sw := newSweep("fig13", "Comparison with Optimal (trace, small loads)",
		"packets generated per hour per destination",
		"avg delay incl. undelivered (min)")
	for _, a := range arms {
		for _, load := range sc.OptimalLoads {
			sw.point(a.label, load, avgDelayAllMin,
				pointGrid(traceFamily, sc, load, a.proto, core.AvgDelay, scenario.Overrides{}))
		}
	}
	fig := sw.run(defaultEngine)
	fig.Series = append([]report.Series{optSeries}, fig.Series...)
	return Output{Figure: fig, Notes: []string{
		"Optimal is the offline earliest-arrival oracle with capacity reservation (single-copy, like the paper's ILP); exact-ILP cross-checks live in internal/routing/optimal tests",
	}}
}

// Fig14 reproduces Figure 14: the component ablation from Random up to
// full RAPID.
func Fig14(sc Scale) Output {
	sw := newSweep("fig14", "RAPID component ablation (trace)",
		"packets generated per hour per destination", "avg delay (min)")
	for _, proto := range []scenario.Proto{scenario.ProtoRapid, scenario.ProtoRapidLocal, scenario.ProtoRandomAcks, scenario.ProtoRandom} {
		for _, load := range sc.TraceLoads {
			sw.point(string(proto), load, avgDelayMin,
				pointGrid(traceFamily, sc, load, proto, core.AvgDelay, scenario.Overrides{}))
		}
	}
	return sw.output()
}

// Fig15 reproduces Figure 15: the CDF of Jain's fairness index over
// per-cohort delays of packets created in parallel, under contention.
func Fig15(sc Scale) Output {
	fig := &report.Figure{
		ID: "fig15", Title: "RAPID fairness (trace)",
		XLabel: "fairness index", YLabel: "CDF of cohorts",
	}
	for _, parallel := range []int{20, 30} {
		var indices []float64
		for _, r := range defaultEngine.Runs(fairnessGrid(sc, parallel)) {
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

// ---------------------------------------------------------------------
// Synthetic mobility (Figs. 16–24)

// synthComparison sweeps the load axis of a synthetic-mobility family
// (synth-powerlaw or synth-exponential) at the figure's metric.
func synthComparison(sc Scale, family string, metric core.Metric, value func(metrics.Summary) float64, id, title, ylabel string) *sweep {
	sw := newSweep(id, title, "packets generated per 50 s per destination", ylabel)
	for _, proto := range scenario.ComparisonSet() {
		for _, load := range sc.SynthLoads {
			sw.point(string(proto), load, value,
				pointGrid(family, sc, load, proto, metric, scenario.Overrides{}))
		}
	}
	return sw
}

// Fig16 reproduces Figure 16 (power-law average delay).
func Fig16(sc Scale) Output {
	return synthComparison(sc, "synth-powerlaw", core.AvgDelay, avgDelaySec,
		"fig16", "Average delay vs load (power law)", "avg delay (s)").output()
}

// Fig17 reproduces Figure 17 (power-law max delay).
func Fig17(sc Scale) Output {
	return synthComparison(sc, "synth-powerlaw", core.MaxDelay, maxDelaySec,
		"fig17", "Max delay vs load (power law)", "max delay (s)").output()
}

// Fig18 reproduces Figure 18 (power-law within-deadline).
func Fig18(sc Scale) Output {
	return synthComparison(sc, "synth-powerlaw", core.Deadline, withinDeadline,
		"fig18", "Delivered within deadline vs load (power law)", "fraction within deadline").output()
}

// synthBufferSweep powers Figs. 19–21: fixed load, varying per-node
// storage.
func synthBufferSweep(sc Scale, metric core.Metric, value func(metrics.Summary) float64, id, title, ylabel string) Output {
	const load = 20 // Table 4 / §6.3.2: 20 packets per destination
	sw := newSweep(id, title, "available storage (KB)", ylabel)
	for _, proto := range scenario.ComparisonSet() {
		for _, buf := range sc.Buffers {
			ov := scenario.Overrides{BufferBytes: buf, BufferBytesSet: true}
			sw.point(string(proto), float64(buf>>10), value,
				pointGrid("synth-powerlaw", sc, load, proto, metric, ov))
		}
	}
	return sw.output()
}

// Fig19 reproduces Figure 19 (power-law avg delay vs buffer).
func Fig19(sc Scale) Output {
	return synthBufferSweep(sc, core.AvgDelay, avgDelaySec,
		"fig19", "Average delay vs buffer size (power law)", "avg delay (s)")
}

// Fig20 reproduces Figure 20 (power-law max delay vs buffer).
func Fig20(sc Scale) Output {
	return synthBufferSweep(sc, core.MaxDelay, maxDelaySec,
		"fig20", "Max delay vs buffer size (power law)", "max delay (s)")
}

// Fig21 reproduces Figure 21 (power-law within-deadline vs buffer).
func Fig21(sc Scale) Output {
	return synthBufferSweep(sc, core.Deadline, withinDeadline,
		"fig21", "Delivered within deadline vs buffer size (power law)", "fraction within deadline")
}

// Fig22 reproduces Figure 22 (exponential average delay).
func Fig22(sc Scale) Output {
	return synthComparison(sc, "synth-exponential", core.AvgDelay, avgDelaySec,
		"fig22", "Average delay vs load (exponential)", "avg delay (s)").output()
}

// Fig23 reproduces Figure 23 (exponential max delay).
func Fig23(sc Scale) Output {
	return synthComparison(sc, "synth-exponential", core.MaxDelay, maxDelaySec,
		"fig23", "Max delay vs load (exponential)", "max delay (s)").output()
}

// Fig24 reproduces Figure 24 (exponential within-deadline).
func Fig24(sc Scale) Output {
	return synthComparison(sc, "synth-exponential", core.Deadline, withinDeadline,
		"fig24", "Delivered within deadline vs load (exponential)", "fraction within deadline").output()
}

// sortSeries orders a series by X (Fig. 8 and the replication
// reductions build out of order), keeping Y and any YErr aligned.
func sortSeries(s *report.Series) {
	idx := make([]int, len(s.X))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return s.X[idx[a]] < s.X[idx[b]] })
	permute := func(v []float64) []float64 {
		if v == nil {
			return nil
		}
		out := make([]float64, len(idx))
		for i, j := range idx {
			out[i] = v[j]
		}
		return out
	}
	s.X, s.Y, s.YErr = permute(s.X), permute(s.Y), permute(s.YErr)
}
