package scenario

import (
	"testing"

	"rapid/internal/core"
	"rapid/internal/routing"
	"rapid/internal/trace"
)

// megaParams is a miniature mega-constellation grid: the family's lazy
// plan + streaming workload wiring at unit-test scale.
func megaParams() Params {
	return Params{
		Tag: "mega-test", Runs: 1, Loads: []float64{2},
		Planes: 3, SatsPerPlane: 4, Ground: 3,
		OrbitPeriod: 240, Duration: 240,
	}
}

func TestMegaConstellationFamilyWiring(t *testing.T) {
	scs, err := Expand("mega-constellation", megaParams())
	if err != nil {
		t.Fatal(err)
	}
	if len(scs) == 0 {
		t.Fatal("family expanded to no scenarios")
	}
	for _, s := range scs {
		if s.Protocol != ProtoRapid {
			t.Errorf("default protocol arm is %v, want RAPID-only", s.Protocol)
		}
		if !s.Workload.Streaming {
			t.Fatalf("mega scenario is not streaming: %+v", s)
		}
		rs := s.Materialize()
		if rs.Schedule != nil {
			t.Error("lazy scenario materialized a schedule")
		}
		if rs.Plan == nil {
			t.Fatal("lazy scenario carries no contact plan")
		}
		if rs.Source == nil {
			t.Fatal("streaming scenario carries no packet source")
		}
		if rs.Workload != nil {
			t.Error("streaming scenario also materialized a workload")
		}
		sum := s.Summary()
		if sum.Generated == 0 {
			t.Error("mega run generated no packets")
		}
		if sum.Delivered == 0 {
			t.Error("mega run delivered nothing")
		}
	}
}

// TestPlanSpecMatchesExpanded pins the scenario-layer equivalence: a
// pure constellation spec materializes its contact plan and no
// schedule, and running off the plan's cursor gives the summary of a
// run over the plan's expansion with the same workload — the cursor is
// a layout change, not a semantic one.
func TestPlanSpecMatchesExpanded(t *testing.T) {
	p := megaParams()
	s := Scenario{
		Family: "plan-equiv", Tag: "plan-equiv",
		Schedule: constellationSchedule(p),
		Workload: constellationWorkload(2, p.Ground, p.OrbitPeriod),
		Protocol: ProtoRapid, Metric: NormalizeMetric(ProtoRapid, core.AvgDelay),
		Config: constellationOverrides(),
	}
	rs := s.Materialize()
	if rs.Schedule != nil || rs.Plan == nil {
		t.Fatalf("constellation spec materialized schedule %v, plan %v; want a plan only",
			rs.Schedule != nil, rs.Plan != nil)
	}
	horizon := rs.Plan.Duration
	got := routing.Run(rs).Summarize(horizon)
	expanded := rs
	expanded.Plan, expanded.Schedule = nil, rs.Plan.Expand()
	want := routing.Run(expanded).Summarize(horizon)
	if got != want {
		t.Errorf("plan run diverged from expanded run:\n  expanded: %+v\n  plan:     %+v", want, got)
	}
	if want.Generated == 0 || want.Delivered == 0 {
		t.Fatalf("equivalence vacuous: expanded summary %+v", want)
	}
}

// TestLazyFallsBackToMaterialized: a perturbed constellation is no
// longer a pure plan, so it materializes its (perturbed) schedule.
func TestLazyFallsBackToMaterialized(t *testing.T) {
	p := megaParams()
	ss := constellationSchedule(p)
	ss.Perturb = true
	ss.PerturbCfg = trace.DefaultPerturb()
	s := Scenario{
		Family: "lazy-fallback", Tag: "lazy-fallback",
		Schedule: ss,
		Workload: constellationWorkload(2, p.Ground, p.OrbitPeriod),
		Protocol: ProtoRapid, Metric: NormalizeMetric(ProtoRapid, core.AvgDelay),
	}
	rs := s.Materialize()
	if rs.Schedule == nil || rs.Plan != nil {
		t.Error("perturbed constellation must materialize its schedule")
	}
}

// TestPerturbedPassesKeepWindows: perturbing a windowed constellation
// perturbs its pass windows rather than dropping them all, and the
// materialized schedule is still valid.
func TestPerturbedPassesKeepWindows(t *testing.T) {
	ss := passesPoint(megaParams(), 2).Schedule
	nominal := ss.BuildPlan().Expand()
	ss.Perturb = true
	ss.PerturbCfg = trace.DefaultPerturb()
	s := ss.Build(0)
	if err := s.Validate(); err != nil {
		t.Fatalf("perturbed windowed constellation invalid: %v", err)
	}
	if len(nominal.Contacts) == 0 {
		t.Fatal("nominal constellation has no windows; the check is vacuous")
	}
	if len(s.Contacts) < len(nominal.Contacts)*8/10 || len(s.Contacts) > len(nominal.Contacts) {
		t.Errorf("perturbation kept %d of %d windows", len(s.Contacts), len(nominal.Contacts))
	}
	if s.TotalBytes() >= nominal.TotalBytes() {
		t.Error("perturbation should reduce the windows' usable bytes")
	}
}
