package exp

import (
	"fmt"

	"rapid/internal/report"
	"rapid/internal/scenario"
	"rapid/internal/stat"
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

// repPoint accumulates one (series, x) point's replications.
type repPoint struct {
	series string
	x      float64
	delay  stat.Welford
	rate   stat.Welford
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
	sums := e.Summaries(scs)

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

	// Group replications: the key is the scenario with Run — and the
	// DieselNet day index, the trace families' second averaging
	// dimension — erased, so each group is exactly one experiment
	// point's Days×R independent draws (the paper averages over days
	// and seeds alike).
	groups := map[scenario.Scenario]*repPoint{}
	var order []scenario.Scenario
	for i, s := range sums {
		k := scs[i]
		k.Run = 0
		k.Schedule.Day = 0
		g := groups[k]
		if g == nil {
			g = &repPoint{series: labelOf(k), x: xOf(k)}
			groups[k] = g
			order = append(order, k)
		}
		// A zero-delivery replication has no delay sample — Summarize
		// leaves AvgDelay at 0, and pooling that 0 would drag the delay
		// mean toward the best possible value exactly when the run
		// performed worst. The delivery-rate accumulator records the
		// failure instead.
		if s.Delivered > 0 {
			g.delay.Add(s.AvgDelay)
		}
		g.rate.Add(s.DeliveryRate)
	}

	mkFigure := func(id, title, ylabel string, value func(*repPoint) stat.CI) *report.Figure {
		fig := &report.Figure{ID: id, Title: title, XLabel: xlabel, YLabel: ylabel}
		idx := map[string]int{}
		for _, k := range order {
			g := groups[k]
			ci := value(g)
			si, ok := idx[g.series]
			if !ok {
				si = len(fig.Series)
				idx[g.series] = si
				fig.Series = append(fig.Series, report.Series{Label: g.series})
			}
			s := &fig.Series[si]
			s.X = append(s.X, g.x)
			s.Y = append(s.Y, ci.Mean)
			s.YErr = append(s.YErr, ci.Half)
		}
		for i := range fig.Series {
			sortSeries(&fig.Series[i])
		}
		return fig
	}

	tbl := &report.Table{Header: []string{
		"protocol", "x", "reps", "avg delay (s)", "±95%", "delivery rate", "±95%",
	}}
	for _, k := range order {
		g := groups[k]
		d, r := g.delay.CI(ciConfidence), g.rate.CI(ciConfidence)
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
	return []Output{
		{
			Figure: mkFigure(name+"-delay", fmt.Sprintf("%s: average delay (R=%d)", name, p.Runs),
				"avg delay (s)", func(g *repPoint) stat.CI { return g.delay.CI(ciConfidence) }),
			Table: tbl,
			Notes: []string{note},
		},
		{
			Figure: mkFigure(name+"-rate", fmt.Sprintf("%s: delivery rate (R=%d)", name, p.Runs),
				"fraction delivered", func(g *repPoint) stat.CI { return g.rate.CI(ciConfidence) }),
			Notes: []string{note},
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
