package scenario_test

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"rapid/internal/meet"
	"rapid/internal/scenario"
)

// runFingerprint reduces a run to a string capturing everything figure
// generation can observe: the full summary and every per-packet record
// (delivery bit, bit-exact delivery time, hop count) in generation
// order. Two runs with equal fingerprints produce byte-identical
// figures.
func runFingerprint(s scenario.Scenario) string {
	col, horizon := s.Execute()
	var b strings.Builder
	fmt.Fprintf(&b, "summary %+v\n", col.Summarize(horizon))
	for _, r := range col.Records() {
		fmt.Fprintf(&b, "pkt %d %v %x %d\n",
			r.P.ID, r.Delivered, math.Float64bits(r.DeliveredAt), r.Hops)
	}
	return b.String()
}

// TestParallelWorkersEquivalence pins the parallel engine's defining
// property across every registered family at tiny scale: the same
// scenario run at Workers ∈ {1, 2, 8} is byte-identical — identical
// summaries and identical per-packet records — whether the run actually
// parallelizes (RAPID/epidemic point contacts, churned runs) or falls
// back to the serial loop (CGR's shared planner, Bernoulli loss,
// windowed contacts between barriers). Disruption-enabled families
// (lossy-constellation, churn-powerlaw) are part of the registry and
// therefore of this sweep.
func TestParallelWorkersEquivalence(t *testing.T) {
	p := metamorphicParams()
	p.Tag = "parallel-equiv"
	p.Protocols = []scenario.Proto{scenario.ProtoRapid, scenario.ProtoEpidemic}
	for _, fam := range scenario.Families() {
		scs, err := scenario.Expand(fam.Name, p)
		if err != nil {
			t.Fatalf("%s: %v", fam.Name, err)
		}
		if len(scs) == 0 {
			t.Errorf("%s: expanded to no scenarios", fam.Name)
			continue
		}
		// The registry's grids repeat structure across points; three
		// scenarios per family keep the sweep inside the test budget
		// while still covering each family's schedule and workload kind.
		if len(scs) > 3 {
			scs = scs[:3]
		}
		for _, s := range scs {
			s := s
			t.Run(fmt.Sprintf("%s/%s", fam.Name, s.Protocol), func(t *testing.T) {
				t.Parallel()
				serial := s
				serial.Config.Workers = 1
				want := runFingerprint(serial)
				for _, workers := range []int{2, 8} {
					par := s
					par.Config.Workers = workers
					if got := runFingerprint(par); got != want {
						t.Fatalf("workers=%d diverged from serial:\n%s",
							workers, firstDiff(want, got))
					}
				}
			})
		}
	}
}

// firstDiff renders the first differing fingerprint line for a readable
// failure.
func firstDiff(want, got string) string {
	w, g := strings.Split(want, "\n"), strings.Split(got, "\n")
	for i := 0; i < len(w) && i < len(g); i++ {
		if w[i] != g[i] {
			return fmt.Sprintf("line %d:\n  serial:   %s\n  parallel: %s", i, w[i], g[i])
		}
	}
	return fmt.Sprintf("lengths differ: serial %d lines, parallel %d", len(w), len(g))
}

// TestWorkersOverride pins the Overrides plumbing: a Workers override
// lands in the materialized config, and nothing else sets a count (the
// engine's run-worker default is applied by internal/exp).
func TestWorkersOverride(t *testing.T) {
	p := metamorphicParams()
	scs, err := scenario.Expand("synth-exponential", p)
	if err != nil {
		t.Fatal(err)
	}
	s := scs[0]
	if rs := s.Materialize(); rs.Cfg.Workers != 0 {
		t.Fatalf("default Workers = %d, want 0", rs.Cfg.Workers)
	}
	s.Config.Workers = 4
	if rs := s.Materialize(); rs.Cfg.Workers != 4 {
		t.Fatalf("override Workers = %d, want 4", rs.Cfg.Workers)
	}
}

// TestParallelBatchCounters: the collector's copy of the engine's batch
// counters repeats exactly across runs at 2 workers, is zero for a
// serial run, and keeps every batch's critical path within its width.
func TestParallelBatchCounters(t *testing.T) {
	p := metamorphicParams()
	p.Tag = "batch-counters"
	p.Protocols = []scenario.Proto{scenario.ProtoRapid}
	scs, err := scenario.Expand("constellation-ground", p)
	if err != nil || len(scs) == 0 {
		t.Fatalf("expand: %v (%d scenarios)", err, len(scs))
	}
	counters := func(workers int) [3]uint64 {
		s := scs[0]
		s.Config.Workers = workers
		col, _ := s.Execute()
		return [3]uint64{col.Batches, col.BatchedEvents, col.CriticalPath}
	}
	if got := counters(1); got != [3]uint64{} {
		t.Fatalf("serial run: batches/events/critical path %v, want zero", got)
	}
	a, b := counters(2), counters(2)
	if a != b {
		t.Fatalf("counters differ across runs: %v then %v", a, b)
	}
	if batches, events, crit := a[0], a[1], a[2]; batches == 0 || crit < batches || crit > events {
		t.Fatalf("want 0 < batches ≤ critical path ≤ events, got %v", a)
	}
}

// TestMeetCountersWorkerInvariant: the summed meeting-estimator work
// counters are the same at every worker count, and a RAPID run does
// each kind of work.
func TestMeetCountersWorkerInvariant(t *testing.T) {
	p := metamorphicParams()
	p.Tag = "meet-counters"
	p.Protocols = []scenario.Proto{scenario.ProtoRapid}
	scs, err := scenario.Expand("constellation-ground", p)
	if err != nil || len(scs) == 0 {
		t.Fatalf("expand: %v (%d scenarios)", err, len(scs))
	}
	counters := func(workers int) meet.Stats {
		s := scs[0]
		s.Config.Workers = workers
		col, _ := s.Execute()
		return col.Meet
	}
	serial := counters(1)
	if serial.RowsMerged == 0 || serial.PairsPatched == 0 || serial.RowsPublished == 0 || serial.ShortestPaths == 0 {
		t.Fatalf("serial run: meet counters %+v, want every one positive", serial)
	}
	for _, w := range []int{2, 8} {
		if got := counters(w); got != serial {
			t.Errorf("workers %d: meet counters %+v, want the serial %+v", w, got, serial)
		}
	}
}
