package exp

import (
	"strings"
	"testing"

	"rapid/internal/core"
	"rapid/internal/scenario"
)

// TestRegistryComplete checks every paper artifact is registered once.
func TestRegistryComplete(t *testing.T) {
	want := []string{"table3", "fig3"}
	for i := 4; i <= 24; i++ {
		want = append(want, "fig"+itoa(i))
	}
	want = append(want, "cgr-policies-delay", "cgr-policies-rate")
	all := All()
	if len(all) != len(want) {
		t.Fatalf("registry has %d experiments want %d", len(all), len(want))
	}
	seen := map[string]bool{}
	for _, e := range all {
		if seen[e.ID] {
			t.Errorf("duplicate experiment %s", e.ID)
		}
		seen[e.ID] = true
		if e.Title == "" || e.Run == nil {
			t.Errorf("experiment %s incomplete", e.ID)
		}
	}
	for _, id := range want {
		if !seen[id] {
			t.Errorf("missing experiment %s", id)
		}
	}
	if _, ok := ByID("fig4"); !ok {
		t.Error("ByID failed for fig4")
	}
	if _, ok := ByID("nope"); ok {
		t.Error("ByID matched a nonexistent id")
	}
}

// regen regenerates one experiment on a fresh engine.
func regen(id string, sc Scale) Output {
	e, _ := ByID(id)
	return e.Run(NewEngine(0, 0), sc)
}

func itoa(i int) string {
	if i >= 10 {
		return string(rune('0'+i/10)) + string(rune('0'+i%10))
	}
	return string(rune('0' + i))
}

// TestTraceComparisonShape asserts the paper's headline ordering at
// tiny scale: RAPID delivers at least as much as Random and has no
// worse average delay under load.
func TestTraceComparisonShape(t *testing.T) {
	sc := TinyScale()
	out := regen("fig5", sc) // delivery rate sweep
	rates := map[string][]float64{}
	for _, s := range out.Figure.Series {
		rates[s.Label] = s.Y
	}
	rapidY := rates[string(scenario.ProtoRapid)]
	randomY := rates[string(scenario.ProtoRandom)]
	if len(rapidY) == 0 || len(randomY) == 0 {
		t.Fatalf("missing series: %v", rates)
	}
	// Compare at the highest load (the discriminating regime).
	last := len(rapidY) - 1
	if rapidY[last] < randomY[last]-0.02 {
		t.Errorf("RAPID delivery %v below Random %v at high load", rapidY[last], randomY[last])
	}
	for label, ys := range rates {
		for i, y := range ys {
			if y < 0 || y > 1 {
				t.Errorf("%s delivery rate out of range at %d: %v", label, i, y)
			}
		}
	}
}

// TestTable3Sanity checks the deployment reproduction produces the
// right shape of statistics.
func TestTable3Sanity(t *testing.T) {
	out := regen("table3", TinyScale())
	if out.Table == nil || len(out.Table.Rows) != 7 {
		t.Fatalf("table3 %+v", out.Table)
	}
	for _, row := range out.Table.Rows {
		if len(row) != 3 || row[2] == "" {
			t.Errorf("row %v", row)
		}
	}
}

// TestFig3ProducesValidationNote checks the sim-vs-deployment
// comparison emits its agreement statistic.
func TestFig3ProducesValidationNote(t *testing.T) {
	sc := TinyScale()
	sc.Days = 3 // need >=2 days for a CI
	out := regen("fig3", sc)
	if out.Figure == nil || len(out.Figure.Series) != 2 {
		t.Fatal("fig3 must have Real and Simulation series")
	}
	found := false
	for _, n := range out.Notes {
		if strings.Contains(n, "relative delay difference") {
			found = true
		}
	}
	if !found {
		t.Errorf("missing validation note: %v", out.Notes)
	}
}

// TestFig8MoreMetadataNoWorse: at tiny scale, unlimited metadata should
// not do worse than zero metadata (the Fig. 8 trend).
func TestFig8MoreMetadataNoWorse(t *testing.T) {
	out := regen("fig8", TinyScale())
	if len(out.Figure.Series) == 0 {
		t.Fatal("no series")
	}
	s := out.Figure.Series[0]
	if len(s.Y) < 2 {
		t.Fatalf("series too short: %v", s)
	}
	zero := s.Y[0]               // x=0: no metadata
	unlimited := s.Y[len(s.Y)-1] // x=0.4: unlimited
	if unlimited > zero*1.15 {
		t.Errorf("unlimited metadata (%.1f min) much worse than none (%.1f min)", unlimited, zero)
	}
}

// TestFig13OptimalIsLowerBound: the offline oracle must not lose to any
// online arm on the Fig. 13 objective. The second input has two runs
// per day, so an oracle averaged over fewer instances than the arms
// would show.
func TestFig13OptimalIsLowerBound(t *testing.T) {
	twoRuns := TinyScale()
	twoRuns.Runs = 2
	for _, sc := range []Scale{TinyScale(), twoRuns} {
		out := regen("fig13", sc)
		var opt []float64
		arms := 0
		for _, s := range out.Figure.Series {
			if s.Label == "Optimal" {
				opt = s.Y
			}
		}
		for _, s := range out.Figure.Series {
			if s.Label == "Optimal" {
				continue
			}
			arms++
			if len(s.Y) != len(opt) {
				t.Fatalf("runs=%d %s: %d points, Optimal has %d", sc.Runs, s.Label, len(s.Y), len(opt))
			}
			for i := range opt {
				if opt[i] > s.Y[i]+1e-9 {
					t.Errorf("runs=%d: optimal %v worse than %s %v at point %d", sc.Runs, opt[i], s.Label, s.Y[i], i)
				}
			}
		}
		if len(opt) == 0 || arms == 0 {
			t.Fatalf("runs=%d: missing series", sc.Runs)
		}
	}
}

// TestFig15FairnessBounds: Jain indices are in (0, 1].
func TestFig15FairnessBounds(t *testing.T) {
	out := regen("fig15", TinyScale())
	for _, s := range out.Figure.Series {
		for i, x := range s.X {
			if x <= 0 || x > 1.0001 {
				t.Errorf("%s: fairness index %v out of range", s.Label, x)
			}
			if s.Y[i] < 0 || s.Y[i] > 1.0001 {
				t.Errorf("%s: CDF %v out of range", s.Label, s.Y[i])
			}
		}
	}
}

// TestAllExperimentsSmoke runs every registered experiment at tiny
// scale and checks each yields data. Skipped in -short mode (it costs
// about a minute of CPU).
func TestAllExperimentsSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("smoke test skipped in short mode")
	}
	sc := TinyScale()
	for _, e := range All() {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			out := e.Run(NewEngine(0, 0), sc)
			if out.Figure == nil && out.Table == nil {
				t.Fatalf("%s produced no artifact", e.ID)
			}
			if out.Figure != nil {
				if len(out.Figure.Series) == 0 {
					t.Fatalf("%s: empty figure", e.ID)
				}
				for _, s := range out.Figure.Series {
					if len(s.X) != len(s.Y) {
						t.Fatalf("%s/%s: x/y length mismatch", e.ID, s.Label)
					}
					if len(s.X) == 0 {
						t.Fatalf("%s/%s: empty series", e.ID, s.Label)
					}
				}
			}
		})
	}
}

// TestProtocolArmsResolve ensures every protocol the figures submit
// materializes, on exp's trace scenario, to a factory that builds a
// named router.
func TestProtocolArmsResolve(t *testing.T) {
	for _, p := range []scenario.Proto{
		scenario.ProtoRapid, scenario.ProtoRapidLocal, scenario.ProtoRapidGlobal,
		scenario.ProtoMaxProp, scenario.ProtoSprayWait, scenario.ProtoProphet,
		scenario.ProtoRandom, scenario.ProtoRandomAcks,
	} {
		rs := pointGrid(traceFamily, TinyScale(), 4, p, core.AvgDelay, scenario.Overrides{})[0].Materialize()
		if rs.Factory == nil {
			t.Errorf("%s: nil factory", p)
			continue
		}
		if r := rs.Factory(0); r == nil || r.Name() == "" {
			t.Errorf("%s: nil or unnamed router", p)
		}
	}
}

// TestUnknownProtoPanics: a trace scenario naming an unregistered
// protocol must fail loudly at materialization.
func TestUnknownProtoPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("unknown proto must panic")
		}
	}()
	pointGrid(traceFamily, TinyScale(), 4, scenario.Proto("bogus"), core.AvgDelay, scenario.Overrides{})[0].Materialize()
}

// TestScalesWellFormed validates the three presets.
func TestScalesWellFormed(t *testing.T) {
	for _, sc := range []Scale{TinyScale(), DefaultScale(), FullScale()} {
		if sc.Days <= 0 || sc.Runs <= 0 || len(sc.TraceLoads) == 0 ||
			len(sc.SynthLoads) == 0 || len(sc.Buffers) == 0 ||
			len(sc.OptimalLoads) == 0 || sc.Name == "" {
			t.Errorf("scale %q malformed: %+v", sc.Name, sc)
		}
	}
}

// TestFigureGridsMatchFamilies: the AvgDelay comparison figures run
// exactly the registry families' grids, element by element, so a
// figure and `experiments -family` at the same scale share every run
// and every cache entry.
func TestFigureGridsMatchFamilies(t *testing.T) {
	for _, c := range []struct {
		sc         Scale
		wantCounts [3]int
	}{
		{TinyScale(), [3]int{8, 8, 8}},
		{DefaultScale(), [3]int{192, 40, 40}},
	} {
		for i, g := range []struct {
			fig, family string
			axis        axis
		}{
			{"fig4", "trace-comparison", traceLoads},
			{"fig16", "synth-powerlaw", synthLoads},
			{"fig22", "synth-exponential", synthLoads},
		} {
			var got []scenario.Scenario
			for _, p := range (grid{g.family, comparison, g.axis, core.AvgDelay, avgDelaySec}).points(c.sc) {
				got = append(got, p.scs...)
			}
			want, err := scenario.Expand(g.family, FamilyParams(g.family, c.sc))
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != c.wantCounts[i] || len(want) != len(got) {
				t.Fatalf("%s/%s at %s: figure grid %d scenarios, family %d, want %d",
					g.fig, g.family, c.sc.Name, len(got), len(want), c.wantCounts[i])
			}
			for j := range got {
				if got[j] != want[j] {
					t.Fatalf("%s/%s at %s: scenario %d differs:\n figure %+v\n family %+v",
						g.fig, g.family, c.sc.Name, j, got[j], want[j])
				}
			}
		}
	}
}

// TestFamiliesValidateAtEveryScale: every registered family, expanded
// the way cmd/experiments and the service expand it, passes the
// validation a raw simd scenario must pass.
func TestFamiliesValidateAtEveryScale(t *testing.T) {
	for _, sc := range []Scale{TinyScale(), DefaultScale(), FullScale()} {
		for _, f := range scenario.Families() {
			scs, err := scenario.Expand(f.Name, FamilyParams(f.Name, sc))
			if err != nil {
				t.Fatal(err)
			}
			if len(scs) == 0 {
				t.Errorf("%s at %s: no scenarios", f.Name, sc.Name)
			}
			for _, s := range scs {
				if err := s.Validate(); err != nil {
					t.Errorf("%s at %s: %v", f.Name, sc.Name, err)
					break
				}
			}
		}
	}
}
