package exp

import (
	"fmt"

	"rapid/internal/core"
	"rapid/internal/scenario"
)

// This file turns (scale, experiment point) coordinates into scenario
// values: each point is a slice of a registry family's grid. All
// execution flows through the Engine (engine.go): the figures assemble
// scenario grids here and hand them to the sweep reducer.

// traceFamily is the clean DieselNet grid the trace figures run.
const traceFamily = "trace-comparison"

// expand is a registry family's grid at p. The figures name only
// registered families, so an error is a programming error.
func expand(family string, p scenario.Params) []scenario.Scenario {
	scs, err := scenario.Expand(family, p)
	if err != nil {
		panic(fmt.Sprintf("exp: %v", err))
	}
	return scs
}

// pointGrid is one experiment point: the family's grid at the scale,
// expanded at one load and one arm (the scale's days × runs), run at
// metric, with ov in place of the family's overrides when it sets any.
// Being the family's own scenarios, a figure's runs share cache
// entries with `experiments -family` at the same scale.
func pointGrid(family string, sc Scale, load float64, proto scenario.Proto, metric core.Metric, ov scenario.Overrides) []scenario.Scenario {
	p := FamilyParams(family, sc)
	p.Loads, p.Protocols = []float64{load}, []scenario.Proto{proto}
	scs := expand(family, p)
	for i := range scs {
		scs[i].Metric = scenario.NormalizeMetric(proto, metric)
		if ov != (scenario.Overrides{}) {
			scs[i].Config = ov
		}
	}
	return scs
}

// synthDuration is the synthetic run length: Table 4's 15 minutes
// unless the scale shortens it.
func (sc Scale) synthDuration() float64 {
	if sc.SynthDuration > 0 {
		return sc.SynthDuration
	}
	return scenario.DefaultSynthDuration
}

// fairnessGrid builds the Fig. 15 cohort workload, one run a day: the
// trace grid at load 0 carrying a Poisson background that keeps
// resources contended plus batches of packets created in parallel.
func fairnessGrid(sc Scale, parallel int) []scenario.Scenario {
	p := FamilyParams(traceFamily, sc)
	p.Runs, p.Loads, p.Protocols = 1, []float64{0}, []scenario.Proto{scenario.ProtoRapid}
	scs := expand(traceFamily, p)
	for i := range scs {
		s := &scs[i]
		s.Family = "trace-fairness"
		// The trace workload's window and packet size, without a deadline.
		s.Workload.Shape, s.Workload.Deadline = scenario.ShapeCohorts, 0
		s.Workload.Cohorts, s.Workload.Parallel, s.Workload.BgLoad = 8, parallel, 10
	}
	return scs
}
