package main

import (
	"fmt"

	"rapid/internal/disrupt"
	"rapid/internal/scenario"
)

// workload is one named benchmark input. Simulation workloads build one
// scenario per rep; the service workload has no build function and
// drives simd over loopback instead (service.go).
type workload struct {
	name string
	why  string
	// workers is the event-engine worker count the workload runs at.
	workers int
	// repSeconds is the nominal length of one rep on the reference
	// machine (results/). It turns -seconds into a fixed rep count, so
	// the inputs a run measures depend on -seed and -seconds alone,
	// never on how fast the code under test happens to be.
	repSeconds float64
	// build returns the scenario of one rep at the given Run index;
	// smoke selects a tiny size for tests.
	build func(run int, smoke bool) scenario.Scenario
}

// simulated reports whether the workload runs the simulator directly.
func (w workload) simulated() bool { return w.build != nil }

// serviceWorkload names the loopback simd workload.
const serviceWorkload = "simd-mixed"

// workloads returns every benchmark workload in reporting order. The
// set covers the paper's regimes (saturated synthetic mobility, the
// DieselNet trace) and the constellation, scale and plan-ahead regimes
// the simulator grew into, so that a change to one layer shows on the
// workload that exercises it and not on the one that bypasses it.
func workloads() []workload {
	rapid := []scenario.Proto{scenario.ProtoRapid}
	return []workload{
		{
			name:       "paper-synth",
			why:        "Table-4 power-law mobility under saturation: 20 nodes, 100 KB buffers; replica Accept (insert plus utility-ranked eviction) and core estimation dominate",
			workers:    1,
			repSeconds: 6,
			build: func(run int, smoke bool) scenario.Scenario {
				p := scenario.Params{Loads: []float64{80}, Nodes: 20, Duration: 600, Protocols: rapid}
				if smoke {
					p.Loads, p.Nodes, p.Duration = []float64{40}, 10, 120
				}
				return atRun(expandOne("synth-powerlaw", p), run)
			},
		},
		{
			name:       "dieselnet-trace",
			why:        "the paper's trace setting: few sessions over unlimited buffers, so inventory, PlanReplication and replica metadata dominate and eviction never runs",
			workers:    1,
			repSeconds: 4.7,
			build: func(run int, smoke bool) scenario.Scenario {
				p := scenario.Params{Days: 1, DayHours: 12, Loads: []float64{20}, Protocols: rapid}
				if smoke {
					p.DayHours, p.Loads = 2, []float64{4}
				}
				return atRun(expandOne("trace-comparison", p), run)
			},
		},
		{
			name:       "constel-par",
			why:        "300-node point-contact constellation on the parallel engine: control exchange and meet merges dominate, so shard batching decides wall time",
			workers:    2,
			repSeconds: 3.8,
			build: func(run int, smoke bool) scenario.Scenario {
				p := scenario.Params{Loads: []float64{4}, Planes: 12, SatsPerPlane: 24, Ground: 12,
					OrbitPeriod: 900, Duration: 900, Protocols: rapid}
				if smoke {
					p.Planes, p.SatsPerPlane, p.Ground, p.OrbitPeriod, p.Duration = 3, 4, 2, 150, 300
				}
				return atRun(expandOne("constellation-ground", p), run)
			},
		},
		{
			name:       "mega-stream",
			why:        "512-node lazy plan cursor plus streaming Poisson source: per-pair routing state, not traffic, sets memory; the only user of trace.PlanCursor and packet.PoissonSource",
			workers:    2,
			repSeconds: 5.1,
			build: func(run int, smoke bool) scenario.Scenario {
				p := scenario.Params{Loads: []float64{1}, Planes: 20, SatsPerPlane: 25, Ground: 12,
					OrbitPeriod: 5400, Duration: 2700, Protocols: rapid}
				if smoke {
					p.Planes, p.SatsPerPlane, p.Ground, p.OrbitPeriod, p.Duration = 5, 8, 4, 300, 300
				}
				return atRun(expandOne("mega-constellation", p), run)
			},
		},
		{
			name:       "cgr-windowed-lossy",
			why:        "plan-ahead multi-copy CGR over windowed passes with loss and contact failure: the planner dominates and RAPID's core, control and meet layers do no work",
			workers:    2,
			repSeconds: 3.2,
			build: func(run int, smoke bool) scenario.Scenario {
				p := scenario.Params{Loads: []float64{4}, Planes: 12, SatsPerPlane: 24, Ground: 12,
					OrbitPeriod: 900, Duration: 900, Protocols: []scenario.Proto{scenario.ProtoCGRMulti}}
				if smoke {
					p.Planes, p.SatsPerPlane, p.Ground, p.OrbitPeriod, p.Duration = 3, 4, 2, 150, 300
				}
				sc := atRun(expandOne("constellation-passes", p), run)
				sc.Config.Disrupt = disrupt.Spec{Enabled: true, PLoss: 0.15, PContactFail: 0.1}
				sc.Config.DisruptSet = true
				return sc
			},
		},
		{
			name:       serviceWorkload,
			why:        "the user-facing path: open-loop HTTP jobs on simd mixing cache misses, cache hits and hooked telemetry runs that are forced serial",
			workers:    2,
			repSeconds: 0, // the open loop runs for exactly -seconds
		},
	}
}

// lookupWorkload finds a workload by name.
func lookupWorkload(name string) (workload, bool) {
	for _, w := range workloads() {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// expandOne expands a registry family to its single scenario.
func expandOne(family string, p scenario.Params) scenario.Scenario {
	p.Tag, p.Runs = "bench", 1
	scs, err := scenario.Expand(family, p)
	if err != nil || len(scs) != 1 {
		panic(fmt.Sprintf("bench: family %s expanded to %d scenarios (%v)", family, len(scs), err))
	}
	return scs[0]
}

// atRun sets the scenario's Run index, from which scenario.Seeds
// derives the schedule, workload and simulation seeds.
func atRun(sc scenario.Scenario, run int) scenario.Scenario {
	sc.Run = run
	return sc
}

// maxReps bounds the reps of one run; rep r of seed s runs at Run index
// s·maxReps + r, so distinct seeds never share an input.
const maxReps = 16

// repCount is the number of reps a simulation run makes at -seconds:
// the nominal rep length divided into the budget, at least one.
func repCount(w workload, seconds float64, smoke bool) int {
	if smoke {
		return 1
	}
	n := int(seconds/w.repSeconds + 0.5)
	return min(max(n, 1), maxReps)
}
