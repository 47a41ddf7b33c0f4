package scenario

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"

	"rapid/internal/core"
	"rapid/internal/packet"
	"rapid/internal/routing"
	"rapid/internal/trace"
)

// smallSynth keeps scenario runs in tests well under a second.
func smallSynth(src Source) Scenario {
	return Scenario{
		Family: "test", Tag: "test",
		Schedule: ScheduleSpec{
			Source: src, Nodes: 8, Duration: 120,
			MeanMeeting: 30, TransferBytes: 40 << 10,
			Alpha: 1, RankSeed: 42,
		},
		Workload: WorkloadSpec{
			Shape: ShapePoisson, Load: 10, Window: 50,
			PacketBytes: 1 << 10, Deadline: 20,
			NodeCount: 8, PerPair: true,
		},
		Protocol: ProtoRapid, Metric: core.AvgDelay,
	}
}

// scheduleBytes serializes a schedule through the text codec so
// determinism is asserted byte-for-byte.
func scheduleBytes(t *testing.T, s *trace.Schedule) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := trace.Write(&buf, s); err != nil {
		t.Fatalf("write schedule: %v", err)
	}
	return buf.Bytes()
}

// workloadBytes dumps every packet field for byte-level comparison.
func workloadBytes(w packet.Workload) []byte {
	var buf bytes.Buffer
	for _, p := range w {
		fmt.Fprintf(&buf, "%d %d %d %d %.9f %.9f %d\n",
			p.ID, p.Src, p.Dst, p.Size, p.Created, p.Deadline, p.Cohort)
	}
	return buf.Bytes()
}

// TestScheduleDeterminism: the same spec and seed produce byte-identical
// schedules across builds for every source.
func TestScheduleDeterminism(t *testing.T) {
	specs := map[string]ScheduleSpec{
		"dieselnet": {
			Source: SourceDieselNet, Diesel: trace.DefaultDieselNet(),
			Day: 3, DayHours: 2,
		},
		"exponential": {
			Source: SourceExponential, Nodes: 10, Duration: 200,
			MeanMeeting: 40, TransferBytes: 50 << 10,
		},
		"powerlaw": {
			Source: SourcePowerLaw, Nodes: 10, Duration: 200,
			MeanMeeting: 40, TransferBytes: 50 << 10, Alpha: 1, RankSeed: 42,
		},
		"constellation": {
			Source: SourceConstellation, Planes: 3, SatsPerPlane: 4,
			Ground: 2, OrbitPeriod: 120, Duration: 240,
			ISLBytes: 64 << 10, GroundBytes: 128 << 10,
		},
	}
	for name, spec := range specs {
		t.Run(name, func(t *testing.T) {
			a := scheduleBytes(t, spec.Build(7))
			b := scheduleBytes(t, spec.Build(7))
			if !bytes.Equal(a, b) {
				t.Fatal("same seed produced different schedules")
			}
			c := scheduleBytes(t, spec.Build(8))
			switch spec.Source {
			case SourceDieselNet, SourceConstellation:
				// Deterministic in the spec alone: a different seed must
				// still build the byte-identical schedule.
				if !bytes.Equal(a, c) {
					t.Fatal("spec-deterministic schedule depends on the seed")
				}
			default:
				if bytes.Equal(a, c) {
					t.Fatal("different seed produced identical synthetic schedule")
				}
			}
		})
	}
}

// TestWorkloadDeterminism: the same scenario produces byte-identical
// workloads; a different run index draws different traffic.
func TestWorkloadDeterminism(t *testing.T) {
	for _, shape := range []Shape{ShapePoisson, ShapeOnOff, ShapeCohorts} {
		t.Run(shape.String(), func(t *testing.T) {
			s := smallSynth(SourceExponential)
			s.Workload.Shape = shape
			s.Workload.OnMean, s.Workload.OffMean = 20, 40
			s.Workload.Cohorts, s.Workload.Parallel, s.Workload.BgLoad = 4, 10, 5
			schedSeed, wSeed, _ := s.Seeds()
			sched := s.Schedule.Build(schedSeed)
			a := workloadBytes(s.Workload.Build(sched, wSeed))
			b := workloadBytes(s.Workload.Build(sched, wSeed))
			if len(a) == 0 {
				t.Fatal("empty workload")
			}
			if !bytes.Equal(a, b) {
				t.Fatal("same seed produced different workloads")
			}
			s2 := s
			s2.Run = 1
			_, wSeed2, _ := s2.Seeds()
			c := workloadBytes(s2.Workload.Build(sched, wSeed2))
			if bytes.Equal(a, c) {
				t.Fatal("different run produced identical workload")
			}
		})
	}
}

// TestSeedDerivation pins the derivation rules the figures rely on for
// cross-figure cache sharing (see Seeds' doc comment).
func TestSeedDerivation(t *testing.T) {
	tr := Scenario{Schedule: ScheduleSpec{Source: SourceDieselNet, Day: 3}, Run: 2}
	_, w, sim := tr.Seeds()
	if sim != 3002 || w != 3002^0x5ca1ab1e {
		t.Errorf("trace seeds = (%d, %d)", w, sim)
	}
	sy := Scenario{Schedule: ScheduleSpec{Source: SourceExponential}, Run: 1}
	sched, w, sim := sy.Seeds()
	if sched != 62 || w != 154 || sim != 2 {
		t.Errorf("synth seeds = (%d, %d, %d)", sched, w, sim)
	}
}

// TestScenarioComparable: a Scenario is a pure value usable as a map
// key — the property the engine's cache is built on.
func TestScenarioComparable(t *testing.T) {
	a := smallSynth(SourcePowerLaw)
	b := smallSynth(SourcePowerLaw)
	if a != b {
		t.Fatal("identical scenario literals are not equal")
	}
	m := map[Scenario]int{a: 1}
	if m[b] != 1 {
		t.Fatal("scenario map lookup failed")
	}
	b.Config = Overrides{MetaFraction: 0.1, MetaFractionSet: true}
	if a == b {
		t.Fatal("override change did not change identity")
	}
	c := smallSynth(SourcePowerLaw)
	c.Config = Overrides{Hetero: HeteroBuffers{Enabled: true, SmallBytes: 1, LargeBytes: 2, SmallEvery: 2}}
	if a == c {
		t.Fatal("hetero-buffer change did not change identity")
	}
}

// TestSummaryDeterminism: end-to-end, the same scenario summarizes
// identically (full simulation, not just inputs).
func TestSummaryDeterminism(t *testing.T) {
	s := smallSynth(SourceExponential)
	if !reflect.DeepEqual(s.Summary(), s.Summary()) {
		t.Fatal("same scenario produced different summaries")
	}
}

// TestOverridesApply checks the declarative config modifiers.
func TestOverridesApply(t *testing.T) {
	cfg := routing.Config{MetaFraction: -1, Hops: 3}
	Overrides{MetaFraction: 0.2, MetaFractionSet: true,
		BufferBytes: 123, BufferBytesSet: true, Hops: 2}.Apply(&cfg)
	if cfg.MetaFraction != 0.2 || cfg.BufferBytes != 123 || cfg.Hops != 2 {
		t.Fatalf("overrides not applied: %+v", cfg)
	}
	if cfg.BufferBytesFor != nil {
		t.Fatal("uniform overrides must not install a per-node buffer fn")
	}
	Overrides{Hetero: HeteroBuffers{
		Enabled: true, SmallBytes: 10, LargeBytes: 100, SmallEvery: 3,
	}}.Apply(&cfg)
	if cfg.BufferBytesFor == nil {
		t.Fatal("hetero buffers not installed")
	}
	if got := cfg.BufferBytesFor(0); got != 10 {
		t.Errorf("node 0 capacity = %d, want 10", got)
	}
	if got := cfg.BufferBytesFor(1); got != 100 {
		t.Errorf("node 1 capacity = %d, want 100", got)
	}
	if got := cfg.BufferBytesFor(3); got != 10 {
		t.Errorf("node 3 capacity = %d, want 10", got)
	}
}

// TestHeteroBuffersMaterialize: the per-node capacities reach the
// runtime network.
func TestHeteroBuffersMaterialize(t *testing.T) {
	s := smallSynth(SourcePowerLaw)
	s.Config = Overrides{Hetero: HeteroBuffers{
		Enabled: true, SmallBytes: 10 << 10, LargeBytes: 100 << 10, SmallEvery: 2,
	}}
	rs := s.Materialize()
	engineIDs := rs.Schedule.Nodes()
	net := routing.NewNetwork(nil, engineIDs, rs.Factory, rs.Cfg)
	for _, id := range engineIDs {
		want := int64(100 << 10)
		if int(id)%2 == 0 {
			want = 10 << 10
		}
		if got := net.Node(id).Store.Capacity(); got != want {
			t.Errorf("node %d capacity = %d, want %d", id, got, want)
		}
	}
}

// TestRegistryFamilies: the registry's names are unique and sorted, and
// every family has a generator and expands to a non-empty,
// duplicate-free scenario set carrying its own name.
func TestRegistryFamilies(t *testing.T) {
	fams := Families()
	if len(fams) < 6 {
		t.Fatalf("registry has %d families, want >= 6", len(fams))
	}
	for i, f := range fams {
		if f.Name == "" || f.Gen == nil {
			t.Errorf("family %d (%q) lacks a name or a generator", i, f.Name)
		}
		if i > 0 && fams[i-1].Name >= f.Name {
			t.Errorf("families %q and %q are duplicated or out of name order", fams[i-1].Name, f.Name)
		}
	}
	p := DefaultParams()
	p.Loads = []float64{4}
	p.Days, p.Runs, p.Nodes, p.Duration = 1, 1, 8, 60
	for _, f := range fams {
		t.Run(f.Name, func(t *testing.T) {
			scs := f.Gen(p)
			if len(scs) == 0 {
				t.Fatal("family expanded to nothing")
			}
			seen := map[Scenario]bool{}
			for _, sc := range scs {
				if seen[sc] {
					t.Fatalf("duplicate scenario in family: %+v", sc)
				}
				seen[sc] = true
				if sc.Family != f.Name {
					t.Errorf("scenario family %q, want %q", sc.Family, f.Name)
				}
			}
		})
	}
	if _, ok := Lookup("hetero-buffers"); !ok {
		t.Error("hetero-buffers family missing")
	}
	if _, err := Expand("no-such-family", p); err == nil {
		t.Error("Expand of unknown family must error")
	}
}

// TestNewFamiliesRun executes one scenario from each of the two new
// families end to end.
func TestNewFamiliesRun(t *testing.T) {
	p := DefaultParams()
	p.Loads = []float64{10}
	p.Runs, p.Nodes, p.Duration = 1, 8, 120
	p.Protocols = []Proto{ProtoRapid}
	for _, name := range []string{
		"hetero-buffers", "bursty-onoff",
		"constellation-ground", "constellation-ring",
		"constellation-passes", "asym-uplink",
	} {
		t.Run(name, func(t *testing.T) {
			scs, err := Expand(name, p)
			if err != nil {
				t.Fatal(err)
			}
			s := scs[0].Summary()
			if s.Generated == 0 {
				t.Fatal("no packets generated")
			}
			if s.Delivered == 0 {
				t.Fatal("nothing delivered")
			}
		})
	}
}

// TestPassesFamilyIsWindowed: the duration-aware families materialize
// schedules made of windowed contacts, not point meetings, and the
// asym-uplink variant runs its access links far below its ISLs.
func TestPassesFamilyIsWindowed(t *testing.T) {
	p := DefaultParams()
	p.Loads = []float64{2}
	p.Runs = 1
	p.Protocols = []Proto{ProtoRapid}
	for _, name := range []string{"constellation-passes", "asym-uplink"} {
		scs, err := Expand(name, p)
		if err != nil {
			t.Fatal(err)
		}
		sched := scs[0].Materialize().Plan.Expand()
		if len(sched.Contacts) == 0 || len(sched.Meetings) != 0 {
			t.Fatalf("%s: %d contacts / %d meetings, want all-windowed",
				name, len(sched.Contacts), len(sched.Meetings))
		}
		if err := sched.Validate(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for _, c := range sched.Contacts {
			if !c.Windowed() {
				t.Fatalf("%s: point contact %+v in a windowed family", name, c)
			}
		}
	}
	passes, _ := Expand("constellation-passes", p)
	asym, _ := Expand("asym-uplink", p)
	if pr, ar := passes[0].Schedule.GroundRateBps, asym[0].Schedule.GroundRateBps; ar >= pr {
		t.Errorf("asym-uplink ground rate %v not below passes rate %v", ar, pr)
	}
}

// TestConstellationFamilySchedulesIdentical: the constellation families
// are driven by deterministic contact plans — every run index of a grid
// point materializes the byte-identical schedule (mirroring the
// spec-level determinism tests above at the family level).
func TestConstellationFamilySchedulesIdentical(t *testing.T) {
	p := DefaultParams()
	p.Loads = []float64{2}
	p.Runs = 3
	p.Protocols = []Proto{ProtoRapid}
	for _, name := range []string{"constellation-ground", "constellation-ring"} {
		t.Run(name, func(t *testing.T) {
			scs, err := Expand(name, p)
			if err != nil {
				t.Fatal(err)
			}
			if len(scs) != 3 {
				t.Fatalf("expanded to %d scenarios, want 3 runs", len(scs))
			}
			var ref []byte
			for i, sc := range scs {
				seed, _, _ := sc.Seeds()
				b := scheduleBytes(t, sc.Schedule.Build(seed))
				if i == 0 {
					ref = b
					continue
				}
				if !bytes.Equal(ref, b) {
					t.Fatalf("run %d built a different schedule than run 0", sc.Run)
				}
			}
		})
	}
}

// TestOnOffLoadCompensated: WorkloadSpec.Load is the long-run offered
// load for every shape — Build scales the instantaneous ON rate by the
// duty cycle, so an on-off workload offers roughly the same traffic as
// the always-on Poisson workload at the same Load.
func TestOnOffLoadCompensated(t *testing.T) {
	s := smallSynth(SourceExponential)
	s.Schedule.Duration = 1200
	schedSeed, wSeed, _ := s.Seeds()
	sched := s.Schedule.Build(schedSeed)
	poisson := s.Workload.Build(sched, wSeed)
	s.Workload.Shape = ShapeOnOff
	s.Workload.OnMean, s.Workload.OffMean = 30, 120
	bursty := s.Workload.Build(sched, wSeed)
	if len(bursty) == 0 {
		t.Fatal("bursty workload empty")
	}
	ratio := float64(len(bursty)) / float64(len(poisson))
	if ratio < 0.5 || ratio > 2 {
		t.Errorf("bursty %d packets vs poisson %d (ratio %.2f); duty-cycle compensation broken",
			len(bursty), len(poisson), ratio)
	}
}

// TestArmPanicsOnUnknownProto guards the registry boundary.
func TestArmPanicsOnUnknownProto(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("unknown proto must panic")
		}
	}()
	Arm(Proto("bogus"), core.AvgDelay, routing.Config{})
}

// TestCohortWorkloadIDsDisjoint: the fairness workload's cohort packets
// must not collide with the background's IDs.
func TestCohortWorkloadIDsDisjoint(t *testing.T) {
	ws := WorkloadSpec{
		Shape: ShapeCohorts, Window: 50, PacketBytes: 1 << 10,
		Cohorts: 4, Parallel: 10, BgLoad: 5,
	}
	sched := ScheduleSpec{
		Source: SourceExponential, Nodes: 8, Duration: 300,
		MeanMeeting: 30, TransferBytes: 40 << 10,
	}.Build(1)
	w := ws.Build(sched, 12)
	seen := map[packet.ID]bool{}
	cohorts := 0
	for _, p := range w {
		if seen[p.ID] {
			t.Fatalf("duplicate packet ID %d", p.ID)
		}
		seen[p.ID] = true
		if p.Cohort > 0 {
			cohorts++
		}
	}
	if cohorts != 40 {
		t.Errorf("cohort packets = %d, want 40", cohorts)
	}
}

// TestByNameMobility sanity-checks the spec constructor the schedule
// specs resolve through.
func TestByNameMobility(t *testing.T) {
	if _, err := Expand("synth-powerlaw", DefaultParams()); err != nil {
		t.Fatal(err)
	}
	spec := ScheduleSpec{
		Source: SourcePowerLaw, Nodes: 6, Duration: 100,
		MeanMeeting: 20, TransferBytes: 10 << 10, Alpha: 1, RankSeed: 1,
	}
	if got := spec.Build(3); len(got.Meetings) == 0 {
		t.Fatal("power-law spec built an empty schedule")
	}
}
