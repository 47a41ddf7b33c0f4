package scenario

import (
	"fmt"
	"slices"

	"rapid/internal/core"
	"rapid/internal/disrupt"
)

// Params scales a family's grid. Families ignore fields they do not
// use; DefaultParams returns a modest grid suitable for interactive
// sweeps.
type Params struct {
	// Tag namespaces the produced scenarios' cache identity.
	Tag string
	// Days is the number of DieselNet days to cover.
	Days int
	// Runs is the number of averaging seeds per grid point.
	Runs int
	// DayHours truncates DieselNet days when positive.
	DayHours float64
	// Loads is the load axis (packets per window per destination).
	Loads []float64
	// Protocols restricts the protocol arms (nil = family default).
	Protocols []Proto
	// Nodes and Duration size the synthetic-mobility populations.
	Nodes    int
	Duration float64
	// Planes, SatsPerPlane and Ground size the constellation families;
	// OrbitPeriod is the constellation's orbital period in seconds.
	Planes       int
	SatsPerPlane int
	Ground       int
	OrbitPeriod  float64
	// Disruption knobs of the stochastic families (zero = the family's
	// documented default intensity).
	//
	// LossGrid is lossy-constellation's per-packet loss axis;
	// ContactFailP scales its whole-contact failure arm;
	// ChurnDownMean/ChurnUpMean shape churn-powerlaw's exponential
	// down/up intervals in seconds.
	LossGrid      []float64
	ContactFailP  float64
	ChurnDownMean float64
	ChurnUpMean   float64
}

// DefaultParams returns a small grid: two days, one seed, two loads.
func DefaultParams() Params {
	return Params{
		Tag: "default", Days: 2, Runs: 1, DayHours: 4,
		Loads: []float64{4, 20}, Nodes: 20, Duration: 300,
		Planes: 3, SatsPerPlane: 4, Ground: 2, OrbitPeriod: 120,
	}
}

// Population names the population of a scale that sizes a family's
// grid: exp.FamilyParams fills Params from it.
type Population int

const (
	// PopSynthetic is Table 4's synthetic population on the synthetic
	// load axis.
	PopSynthetic Population = iota
	// PopTrace is the scale's DieselNet days on the trace load axis.
	PopTrace
	// PopConstellation is the scale's orbital constellation on its own
	// load axis, run for at least one orbit.
	PopConstellation
	// PopMega is the mega-constellation scale arm's population.
	PopMega
)

// Family is a named, documented scenario generator in the registry.
type Family struct {
	Name string
	// Doc is a one-line description shown by `experiments -families`.
	Doc string
	// Population sizes the family's grid at a given scale.
	Population Population
	// Gen expands the family into its scenario grid.
	Gen func(p Params) []Scenario
}

// grid declares a family whose scenarios cross, outermost first, the
// disruption axis (nil: pristine only), the protocol arms (arms unless
// Params names its own; nil: ComparisonSet), the loads, the DieselNet
// days (PopTrace only) and the runs. point fills in the schedule,
// workload and storage of one (day, load) coordinate.
func grid(name string, pop Population, doc string, arms []Proto, disruptions func(Params) []disrupt.Spec, point func(p Params, day int, load float64) Scenario) Family {
	if arms == nil {
		arms = ComparisonSet()
	}
	return Family{Name: name, Doc: doc, Population: pop, Gen: func(p Params) []Scenario {
		protos := arms
		if len(p.Protocols) > 0 {
			protos = p.Protocols
		}
		axis := []disrupt.Spec{{}}
		if disruptions != nil {
			axis = disruptions(p)
		}
		days := 1
		if pop == PopTrace {
			days = max(p.Days, 1)
		}
		var out []Scenario
		for _, d := range axis {
			for _, proto := range protos {
				for _, load := range p.Loads {
					for day := range days {
						s := point(p, day, load)
						s.Family, s.Tag, s.Disruption = name, p.Tag, d
						s.Protocol, s.Metric = proto, core.AvgDelay
						for run := range p.Runs {
							s.Run = run
							out = append(out, s)
						}
					}
				}
			}
		}
		return out
	}}
}

// Families returns every family, sorted by name.
func Families() []Family { return slices.Clone(families) }

// Lookup finds a family by name.
func Lookup(name string) (Family, bool) {
	i := slices.IndexFunc(families, func(f Family) bool { return f.Name == name })
	if i < 0 {
		return Family{}, false
	}
	return families[i], true
}

// Expand generates the named family's grid or errors on an unknown
// name.
func Expand(name string, p Params) ([]Scenario, error) {
	f, ok := Lookup(name)
	if !ok {
		return nil, fmt.Errorf("scenario: unknown family %q", name)
	}
	return f.Gen(p), nil
}
