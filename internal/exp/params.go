// Package exp is the experiment harness: it reconstructs every table
// and figure of the paper's evaluation (§5–§6) from the simulator,
// producing the report.Figure and report.Table values cmd/experiments
// writes to disk. Scenario parameters (Table 4) come from
// internal/scenario; this package owns only scales, sweeps, reductions
// and the figure list. DESIGN.md carries the per-experiment index
// mapping each figure to the modules and parameters used here.
package exp

import "fmt"

// Scale trades fidelity for wall-clock time. The paper's full scale
// (58 days × 10 averaging runs) takes CPU-hours; the default scale
// preserves every qualitative claim at a fraction of the cost, and the
// Tiny scale keeps `go test ./...` and the benchmarks fast.
type Scale struct {
	Name string
	// Days is how many DieselNet days to average over (paper: 58).
	Days int
	// Runs is how many seeds per configuration (paper: 10 trace, then
	// averaged over days; 30 for Fig. 3 validation).
	Runs int
	// DayHours shortens the simulated day (paper: 19 h).
	DayHours float64
	// TraceLoads is the load axis for trace figures (paper: 1..40).
	TraceLoads []float64
	// SynthLoads is the load axis for synthetic figures (paper:
	// 10..80).
	SynthLoads []float64
	// Buffers is the storage axis for Figs. 19–21 in KB (paper:
	// 10..280).
	Buffers []int64
	// MetaFractions is the Fig. 8 metadata cap axis.
	MetaFractions []float64
	// OptimalLoads is the Fig. 13 load axis (paper: 1..6).
	OptimalLoads []float64
	// SynthDuration overrides the synthetic run length in seconds
	// (0 = Table 4's 15 minutes).
	SynthDuration float64
	// ConstelPlanes × ConstelSats satellites plus ConstelGround ground
	// stations size the constellation families; ConstelPeriod is the
	// orbital period and ConstelLoads the families' load axis (the
	// synthetic axis is far too hot for hundreds of destinations).
	ConstelPlanes int
	ConstelSats   int
	ConstelGround int
	ConstelPeriod float64
	ConstelLoads  []float64
	// MegaPlanes × MegaSats satellites plus MegaGround ground stations
	// size the mega-constellation scale arm (run lazily off the contact
	// plan with a streaming workload); MegaPeriod is its orbital period
	// and MegaLoads its load axis.
	MegaPlanes int
	MegaSats   int
	MegaGround int
	MegaPeriod float64
	MegaLoads  []float64
}

// TinyScale keeps unit/bench runs under a second per figure.
func TinyScale() Scale {
	return Scale{
		Name: "tiny", Days: 1, Runs: 1, DayHours: 3,
		TraceLoads:    []float64{4, 20},
		SynthLoads:    []float64{10, 40},
		Buffers:       []int64{10 << 10, 80 << 10},
		MetaFractions: []float64{0, 0.1, -1},
		OptimalLoads:  []float64{1, 2},
		SynthDuration: 300,
		// 200 nodes even at tiny scale: the constellation family exists
		// to prove the runtime handles populations an order of magnitude
		// past the paper's 20 buses (the CI benchmark gate runs this).
		ConstelPlanes: 8, ConstelSats: 24, ConstelGround: 8,
		ConstelPeriod: 300, ConstelLoads: []float64{2},
		// The tiny mega arm is a smoke test of the lazy plan + streaming
		// workload path, not a scale run (CI's figure matrix uses it).
		MegaPlanes: 5, MegaSats: 8, MegaGround: 4,
		MegaPeriod: 300, MegaLoads: []float64{1},
	}
}

// DefaultScale balances fidelity and wall-clock time; the shape claims
// asserted in EXPERIMENTS.md hold at this scale.
func DefaultScale() Scale {
	return Scale{
		Name: "default", Days: 4, Runs: 2, DayHours: 8,
		TraceLoads:    []float64{2, 4, 8, 16, 28, 40},
		SynthLoads:    []float64{10, 20, 40, 60, 80},
		Buffers:       []int64{10 << 10, 40 << 10, 100 << 10, 180 << 10, 280 << 10},
		MetaFractions: []float64{0, 0.02, 0.05, 0.1, 0.2, 0.35, -1},
		OptimalLoads:  []float64{1, 2, 4, 6},
		ConstelPlanes: 12, ConstelSats: 24, ConstelGround: 12,
		ConstelPeriod: 900, ConstelLoads: []float64{1, 4},
		// A Starlink-shell-shaped population: 40 planes × 50 satellites
		// plus 24 ground stations = 2,024 nodes over one LEO period.
		MegaPlanes: 40, MegaSats: 50, MegaGround: 24,
		MegaPeriod: 5400, MegaLoads: []float64{1},
	}
}

// FullScale approximates the paper's scale. Expect CPU-hours.
func FullScale() Scale {
	loads := []float64{1, 2, 4, 8, 12, 16, 20, 24, 28, 32, 36, 40}
	return Scale{
		Name: "full", Days: 58, Runs: 10, DayHours: 19,
		TraceLoads:    loads,
		SynthLoads:    []float64{10, 20, 30, 40, 50, 60, 70, 80},
		Buffers:       []int64{10 << 10, 40 << 10, 80 << 10, 120 << 10, 180 << 10, 240 << 10, 280 << 10},
		MetaFractions: []float64{0, 0.02, 0.05, 0.1, 0.15, 0.2, 0.25, 0.3, 0.35, -1},
		OptimalLoads:  []float64{1, 2, 3, 4, 5, 6},
		// A Starlink-shell-shaped population over a full LEO period.
		ConstelPlanes: 24, ConstelSats: 66, ConstelGround: 24,
		ConstelPeriod: 5400, ConstelLoads: []float64{1, 2, 4, 8},
		MegaPlanes: 40, MegaSats: 50, MegaGround: 50,
		MegaPeriod: 5400, MegaLoads: []float64{1, 2},
	}
}

// ScaleByName returns the preset named tiny, default or full.
func ScaleByName(name string) (Scale, error) {
	switch name {
	case "tiny":
		return TinyScale(), nil
	case "default":
		return DefaultScale(), nil
	case "full":
		return FullScale(), nil
	}
	return Scale{}, fmt.Errorf("unknown scale %q (want tiny, default or full)", name)
}
