package exp

import (
	"rapid/internal/core"
	"rapid/internal/metrics"
	"rapid/internal/scenario"
)

// This file turns (scale, experiment point) coordinates into scenario
// values built from scenario's Table 4 constructors. All execution
// flows through the Engine (engine.go): the figures assemble scenario
// grids here and submit them as one flat job list.

// traceScenario builds the clean DieselNet scenario for one
// (day, run, load, protocol) coordinate.
func traceScenario(sc Scale, day, run int, load float64, proto scenario.Proto, metric core.Metric, ov scenario.Overrides) scenario.Scenario {
	return scenario.Scenario{
		Family: "trace", Tag: sc.Name,
		Schedule: scenario.DefaultTraceSchedule(day, sc.DayHours),
		Workload: scenario.DefaultTraceWorkload(load),
		Protocol: proto,
		Metric:   scenario.NormalizeMetric(proto, metric),
		Config:   ov,
		Run:      run,
	}
}

// traceGrid expands the scale's day×run grid for one experiment point.
func traceGrid(sc Scale, load float64, proto scenario.Proto, metric core.Metric, ov scenario.Overrides) []scenario.Scenario {
	out := make([]scenario.Scenario, 0, sc.Days*sc.Runs)
	for day := 0; day < sc.Days; day++ {
		for run := 0; run < sc.Runs; run++ {
			out = append(out, traceScenario(sc, day, run, load, proto, metric, ov))
		}
	}
	return out
}

// deployScenario builds the "Real" arm: the perturbed schedule standing
// in for the physical deployment (Table 3, Fig. 3).
func deployScenario(sc Scale, day int) scenario.Scenario {
	return scenario.Deployment(sc.Name, day, sc.DayHours, scenario.DefaultTraceLoad)
}

// synthDuration is the synthetic run length: Table 4's 15 minutes
// unless the scale shortens it.
func (sc Scale) synthDuration() float64 {
	if sc.SynthDuration > 0 {
		return sc.SynthDuration
	}
	return scenario.DefaultSynthDuration
}

// synthScenario builds one synthetic-mobility scenario. model is a
// mobility registry name ("exponential" or "powerlaw"); storage is
// Table 4's uniform buffer unless ov sets its own.
func synthScenario(sc Scale, model string, run int, load float64, proto scenario.Proto, metric core.Metric, ov scenario.Overrides) scenario.Scenario {
	src := scenario.SourceExponential
	if model == "powerlaw" {
		src = scenario.SourcePowerLaw
	}
	if !ov.BufferBytesSet {
		ov.BufferBytes, ov.BufferBytesSet = scenario.DefaultSynthBuffer, true
	}
	return scenario.Scenario{
		Family: "synth-" + model, Tag: sc.Name,
		Schedule: scenario.DefaultSynthSchedule(src, scenario.DefaultSynthNodes, sc.synthDuration()),
		Workload: scenario.DefaultSynthWorkload(load, scenario.DefaultSynthNodes),
		Protocol: proto,
		Metric:   scenario.NormalizeMetric(proto, metric),
		Config:   ov,
		Run:      run,
	}
}

// synthGrid expands the scale's runs for one synthetic point.
func synthGrid(sc Scale, model string, load float64, proto scenario.Proto, metric core.Metric, ov scenario.Overrides) []scenario.Scenario {
	out := make([]scenario.Scenario, 0, sc.Runs)
	for run := 0; run < sc.Runs; run++ {
		out = append(out, synthScenario(sc, model, run, load, proto, metric, ov))
	}
	return out
}

// fairnessScenario builds the Fig. 15 cohort workload for one day: a
// Poisson background keeping resources contended plus batches of
// packets created in parallel.
func fairnessScenario(sc Scale, day, parallel int) scenario.Scenario {
	s := traceScenario(sc, day, 0, 0, scenario.ProtoRapid, core.AvgDelay, scenario.Overrides{})
	s.Family = "trace-fairness"
	// The trace workload's window and packet size, without a deadline.
	s.Workload.Shape, s.Workload.Deadline = scenario.ShapeCohorts, 0
	s.Workload.Cohorts, s.Workload.Parallel, s.Workload.BgLoad = 8, parallel, 10
	return s
}

// Summary value extractors shared by the figures.
func avgDelayMin(s metrics.Summary) float64        { return s.AvgDelay / 60 }
func avgDelaySec(s metrics.Summary) float64        { return s.AvgDelay }
func maxDelayMin(s metrics.Summary) float64        { return s.MaxDelay / 60 }
func maxDelaySec(s metrics.Summary) float64        { return s.MaxDelay }
func deliveryRate(s metrics.Summary) float64       { return s.DeliveryRate }
func withinDeadline(s metrics.Summary) float64     { return s.WithinDeadline }
func avgDelayAllMin(s metrics.Summary) float64     { return s.AvgDelayAll / 60 }
func metaOverData(s metrics.Summary) float64       { return s.MetaOverData }
func channelUtilization(s metrics.Summary) float64 { return s.Utilization }
