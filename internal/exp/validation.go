package exp

import (
	"fmt"

	"rapid/internal/core"
	"rapid/internal/report"
	"rapid/internal/scenario"
	"rapid/internal/stat"
)

// Table3 reproduces the deployment's average daily statistics (§5.2):
// RAPID at the default load (4 packets/hour/destination) over the
// scale's days, on the deployment-emulated (perturbed) schedules.
func Table3(sc Scale) Output {
	scs := expand("deployment", FamilyParams("deployment", sc))
	sums := defaultEngine.Summaries(scs)

	var buses, bytesDay, meetings stat.Welford
	var delivered, delay, metaBW, metaData stat.Welford
	for day, s := range sums {
		// Roster size is a schedule property; rebuild the (cheap,
		// deterministic) schedule for it.
		schedSeed, _, _ := scs[day].Seeds()
		sched := scs[day].Schedule.Build(schedSeed)
		buses.Add(float64(len(sched.Nodes())))
		bytesDay.Add(float64(s.OpportunityBytes))
		meetings.Add(float64(s.Meetings))
		delivered.Add(s.DeliveryRate)
		delay.Add(s.AvgDelay / 60)
		metaBW.Add(s.MetaOverBandwidth)
		metaData.Add(s.MetaOverData)
	}
	t := &report.Table{Header: []string{"statistic", "paper", "reproduced"}}
	add := t.AddRow
	add("Avg. buses scheduled per day", "19", report.F(buses.Mean()))
	add("Avg. total bytes transferred per day (MB)", "261.4", report.F(bytesDay.Mean()/1e6))
	add("Avg. number of meetings per day", "147.5", report.F(meetings.Mean()))
	add("Percentage delivered per day", "88%", report.Pct(delivered.Mean()))
	add("Avg. packet delivery delay (min)", "91.7", report.F(delay.Mean()))
	add("Meta-data size/bandwidth", "0.002", fmt.Sprintf("%.4f", metaBW.Mean()))
	add("Meta-data size/data size", "0.017", fmt.Sprintf("%.4f", metaData.Mean()))
	notes := []string{
		"reproduced on synthetic DieselNet days with deployment perturbations (DESIGN.md §3)",
	}
	if sc.DayHours > 0 && sc.DayHours < 19 {
		notes = append(notes, fmt.Sprintf("day shortened to %.0f h at scale %q; bytes/meetings scale accordingly", sc.DayHours, sc.Name))
	}
	return Output{Table: t, Notes: notes}
}

// Fig3 reproduces Figure 3: per-day average delay of the deployment
// ("Real": perturbed schedule) against the clean trace-driven
// simulation averaged over the scale's runs, plus the headline
// validation statistic — the simulator's mean delay within a small
// relative error of the deployment's at 95% confidence.
func Fig3(sc Scale) Output {

	// Both arms submitted as one flat batch: days × (1 real + Runs sim).
	realScs := expand("deployment", FamilyParams("deployment", sc))
	simScs := pointGrid(traceFamily, sc, scenario.DefaultTraceLoad, scenario.ProtoRapid, core.AvgDelay, scenario.Overrides{})
	sums := defaultEngine.Summaries(append(realScs, simScs...))
	realSums, simSums := sums[:sc.Days], sums[sc.Days:]

	fig := &report.Figure{
		ID: "fig3", Title: "Deployment vs simulation, daily average delay",
		XLabel: "day", YLabel: "avg delay (min)",
	}
	real := report.Series{Label: "Real"}
	simS := report.Series{Label: "Simulation"}
	var relDiffs []float64
	for day := 0; day < sc.Days; day++ {
		rs := realSums[day]
		real.X = append(real.X, float64(day))
		real.Y = append(real.Y, rs.AvgDelay/60)

		// Clean simulation, averaged over seeds (paper: 30 runs).
		var w stat.Welford
		for run := 0; run < sc.Runs; run++ {
			w.Add(simSums[day*sc.Runs+run].AvgDelay / 60)
		}
		simS.X = append(simS.X, float64(day))
		simS.Y = append(simS.Y, w.Mean())
		if rs.AvgDelay > 0 {
			relDiffs = append(relDiffs, (w.Mean()*60-rs.AvgDelay)/rs.AvgDelay)
		}
	}
	fig.Series = []report.Series{real, simS}
	notes := []string{}
	if len(relDiffs) >= 2 {
		mean, hw, err := stat.MeanCI(relDiffs, 0.95)
		if err == nil {
			notes = append(notes, fmt.Sprintf(
				"simulation vs deployment mean relative delay difference: %.1f%% ± %.1f%% (95%% CI; paper: within 1%%)",
				100*mean, 100*hw))
		}
	}
	return Output{Figure: fig, Notes: notes}
}
