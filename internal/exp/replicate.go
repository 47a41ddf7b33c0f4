package exp

import (
	"fmt"
	"math"

	"rapid/internal/metrics"
	"rapid/internal/report"
	"rapid/internal/scenario"
)

// This file is the replication/statistics engine: it expands a
// registered scenario family at R seeded replications per grid point,
// fans every replication through the worker pool, and reduces each
// (protocol, axis) point to mean ± 95% confidence intervals — the
// error bars the paper's noisy-trace averaging carries and a single
// replication per point cannot reproduce (DESIGN.md §10).

// ciConfidence is the reported confidence level.
const ciConfidence = 0.95

// FamilyParams maps a family and scale onto grid parameters — the
// single rule shared by cmd/experiments' family runner, the replication
// engine, the figures and simd. The family's Population picks which of
// the scale's populations and load axes it runs; an unknown name gets
// the synthetic one.
func FamilyParams(name string, sc Scale) scenario.Params {
	p := scenario.Params{
		Tag: sc.Name, Days: sc.Days, Runs: sc.Runs, DayHours: sc.DayHours,
		Loads: sc.SynthLoads, Nodes: scenario.DefaultSynthNodes, Duration: sc.synthDuration(),
		Planes: sc.ConstelPlanes, SatsPerPlane: sc.ConstelSats,
		Ground: sc.ConstelGround, OrbitPeriod: sc.ConstelPeriod,
	}
	f, _ := scenario.Lookup(name)
	switch f.Population {
	case scenario.PopTrace:
		p.Loads = sc.TraceLoads
	case scenario.PopConstellation:
		p.Loads = sc.ConstelLoads
	case scenario.PopMega:
		p.Planes, p.SatsPerPlane = sc.MegaPlanes, sc.MegaSats
		p.Ground, p.OrbitPeriod = sc.MegaGround, sc.MegaPeriod
		p.Loads = sc.MegaLoads
	}
	if f.Population == scenario.PopConstellation || f.Population == scenario.PopMega {
		// A horizon shorter than one orbit would leave most of the
		// plan unexpanded; run at least one full period.
		p.Duration = max(p.Duration, p.OrbitPeriod)
	}
	return p
}

// FamilyCI expands the family at reps replications per grid point, runs
// every replication on the engine, and reduces the family to two
// error-bar figures — average delay and delivery rate against the
// family's axis — plus an aggregate mean ± CI table. Families whose
// scenarios sweep a disruption loss probability (lossy-constellation)
// use that as the x axis; all others use the workload load.
func (e *Engine) FamilyCI(name string, sc Scale, reps int) ([]Output, error) {
	p := FamilyParams(name, sc)
	if reps > 0 {
		p.Runs = reps
	}
	scs, err := scenario.Expand(name, p)
	if err != nil {
		return nil, err
	}
	if len(scs) == 0 {
		return nil, fmt.Errorf("exp: family %q expanded to no scenarios", name)
	}

	// The x axis: loss probability when the family sweeps one,
	// workload load otherwise.
	lossAxis := false
	for _, s := range scs {
		if s.Disruption.PLoss != scs[0].Disruption.PLoss {
			lossAxis = true
			break
		}
	}
	xlabel := "packets generated per window per destination"
	xOf := func(s scenario.Scenario) float64 { return s.Workload.Load }
	labelOf := func(s scenario.Scenario) string { return string(s.Protocol) }
	if lossAxis {
		xlabel = "per-packet loss probability"
		xOf = func(s scenario.Scenario) float64 { return s.Disruption.PLoss }
		loads := map[float64]bool{}
		for _, s := range scs {
			loads[s.Workload.Load] = true
		}
		if len(loads) > 1 {
			// A loss axis with several workload loads: one series per
			// (protocol, load) so points never collide.
			labelOf = func(s scenario.Scenario) string {
				return fmt.Sprintf("%s (load %g)", s.Protocol, s.Workload.Load)
			}
		}
	}

	// Group replications into points: the key is the scenario with Run
	// — and the DieselNet day index, the trace families' second
	// averaging dimension — erased, so each point is exactly one
	// experiment point's Days×R independent draws (the paper averages
	// over days and seeds alike). A zero-delivery replication has no
	// delay sample — Summarize leaves AvgDelay at 0, and pooling that 0
	// would drag the delay mean toward the best possible value exactly
	// when the run performed worst — so the delay value declines it;
	// the delivery rate records the failure instead.
	delay := func(s metrics.Summary) float64 {
		if s.Delivered == 0 {
			return math.NaN()
		}
		return s.AvgDelay
	}
	group := map[scenario.Scenario]int{}
	var pts []point
	for _, s := range scs {
		k := s
		k.Run = 0
		k.Schedule.Day = 0
		i, ok := group[k]
		if !ok {
			i = len(pts)
			group[k] = i
			pts = append(pts, point{series: labelOf(k), x: xOf(k), value: delay})
		}
		pts[i].scs = append(pts[i].scs, s)
	}
	n := len(pts)
	for _, d := range pts[:n] {
		pts = append(pts, point{series: d.series, x: d.x, scs: d.scs, value: deliveryRate.value})
	}
	cis := e.reduce(pts)

	tbl := &report.Table{Header: []string{
		"protocol", "x", "reps", "avg delay (s)", "±95%", "delivery rate", "±95%",
	}}
	for i, g := range pts[:n] {
		d, r := cis[i], cis[n+i]
		// r.N is the point's full replication pool; the delay CI spans
		// the subset that delivered (d.N, equal unless a replication
		// delivered nothing).
		tbl.Rows = append(tbl.Rows, []string{
			g.series, trim(g.x), fmt.Sprint(r.N),
			trim(d.Mean), trim(d.Half), trim(r.Mean), trim(r.Half),
		})
	}

	note := fmt.Sprintf("mean ± 95%% CI over %d seeded replications per point (Student-t)", p.Runs)
	if days := distinctDays(scs); days > 1 {
		note = fmt.Sprintf("mean ± 95%% CI over %d days × %d seeded replications pooled per point (Student-t)", days, p.Runs)
	}
	note += "; delay pools delivering replications only"
	fig := func(kind, title, ylabel string) *report.Figure {
		return &report.Figure{ID: name + "-" + kind, Title: fmt.Sprintf("%s: %s (R=%d)", name, title, p.Runs),
			XLabel: xlabel, YLabel: ylabel}
	}
	return []Output{
		{
			Figure: plot(fig("delay", "average delay", "avg delay (s)"), pts[:n], cis[:n], true),
			Table:  tbl,
			Notes:  []string{note},
		},
		{
			Figure: plot(fig("rate", "delivery rate", deliveryRate.ylabel), pts[n:], cis[n:], true),
			Notes:  []string{note},
		},
	}, nil
}

// distinctDays counts the day values a grid sweeps (1 for dayless
// families).
func distinctDays(scs []scenario.Scenario) int {
	days := map[int]bool{}
	for _, s := range scs {
		days[s.Schedule.Day] = true
	}
	return len(days)
}

// trim formats a float compactly for the aggregate table.
func trim(v float64) string {
	return fmt.Sprintf("%.4g", v)
}
