package scenario_test

import (
	"crypto/sha256"
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
//
// The serial fingerprint of each run is also checked against
// sweepPins, so the sweep holds every family to the behaviour of the
// commit that recorded the pins, not only to itself. A family whose
// RAPID and Epidemic runs pin the same hash could not catch a change to
// RAPID, so every such pair must differ.
//
// Some families expand to a scenario another family already produced
// (cgr-constellation's Rapid and Epidemic points are
// constellation-ground's, cgr-policies' are lossy-constellation's): such
// a scenario differs only in its informational Family name, so it runs
// once, under the family that comes first.
func TestParallelWorkersEquivalence(t *testing.T) {
	p := metamorphicParams()
	p.Tag = "parallel-equiv"
	p.Protocols = []scenario.Proto{scenario.ProtoRapid, scenario.ProtoEpidemic}
	ran := map[scenario.Scenario]bool{}
	swept := map[string]bool{}
	for _, fam := range scenario.Families() {
		rapid, rok := sweepPins[fam.Name+"/Rapid"]
		epidemic, eok := sweepPins[fam.Name+"/Epidemic"]
		if rok && eok && rapid == epidemic {
			t.Errorf("%s: Rapid and Epidemic pin the same fingerprint hash %s", fam.Name, rapid)
		}
		fp := p
		if load, ok := sweepLoads[fam.Name]; ok {
			fp.Loads = []float64{load}
		}
		scs, err := scenario.Expand(fam.Name, fp)
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
			key := s
			key.Family = ""
			if ran[key] {
				continue
			}
			ran[key] = true
			name := fmt.Sprintf("%s/%s", fam.Name, s.Protocol)
			swept[name] = true
			t.Run(name, func(t *testing.T) {
				t.Parallel()
				serial := s
				serial.Config.Workers = 1
				want := runFingerprint(serial)
				if pin, ok := sweepPins[name]; !ok {
					t.Errorf("no pinned serial fingerprint hash")
				} else if got := fmt.Sprintf("%x", sha256.Sum256([]byte(want))); got != pin {
					t.Errorf("serial fingerprint hash %s, pinned %s", got, pin)
				}
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
	for name := range sweepPins {
		if !swept[name] {
			t.Errorf("%s: pinned, but the sweep runs no such scenario", name)
		}
	}
}

// sweepLoads raises the offered load of the families whose miniature
// constellation carries every packet of metamorphicParams' load with
// room to spare: there every arm delivers the same packets at the same
// instants, so the fingerprint would not depend on the protocol. At
// these loads the contacts run out of bytes and RAPID's replication
// order decides what is delivered.
var sweepLoads = map[string]float64{
	"cgr-constellation":    100,
	"constellation-ground": 100,
	"constellation-ring":   100,
	"mega-constellation":   100,
}

// sweepPins holds the SHA-256 of each serial runFingerprint in
// TestParallelWorkersEquivalence, keyed by family and protocol.
// Recorded at commit 2946f92, apart from the four sweepLoads families,
// recorded at 6d4df8f under their raised loads; a change that moves one
// changes what some family's run does, and must say why.
var sweepPins = map[string]string{
	"asym-uplink/Rapid":             "14128c85b2b4a214d07c7c1ca058874a74d40233c08107ee47d29024dc562344",
	"asym-uplink/Epidemic":          "fcb70cb30a770fc91aad07bb91be0f8292182300cfb17af40372585635f57d23",
	"bursty-onoff/Rapid":            "a97cd140e288d0afb5c74e7b72b7852d997d6a3f878cee0e87de7cd4133db55f",
	"bursty-onoff/Epidemic":         "d52f1324d51c12b67b927d0393e17f93974d4ef57e38310287f2914c7bf7c3c4",
	"cgr-constellation/Rapid":       "c93e5135878faa9ee81285ad4c99c9f29b236736a20eeedeb807908e192c84ec",
	"cgr-constellation/Epidemic":    "6c2a4877a0e8fdbf0467bd2b1ea20d10a6b39b40484934f602fbcf0989b1db07",
	"cgr-policies/Rapid":            "803bc46d8c9b792f770c53d2b37886dc7aea8314f98b1ba5472afad6d141e001",
	"cgr-policies/Epidemic":         "3bdf0b9c9576f8b23496483b30ee2d1af986133cc41949bc7070bfb67124f745",
	"churn-powerlaw/Rapid":          "75963d2bb20729276c5a1dec8b0699fcc52189031b63563388b1831e0ef669a5",
	"churn-powerlaw/Epidemic":       "a29fb4d9c035ce781ae1191ff1cb8a4f84b19feb15de4f57b468cfd814de0bae",
	"constellation-passes/Rapid":    "f976b651fdec9569d46db90b605a7a9095cbb0c30c1f7d27005e3a2c3e9d853e",
	"constellation-passes/Epidemic": "e07ce2a71b546e02e3fdfd15d311600d6c9e01be488f7542f15f47b38e837359",
	"constellation-ring/Rapid":      "d9d777e4f94fe9ae81e96a79dcb0969c9372687d6913a5120b2948d48803e4fb",
	"constellation-ring/Epidemic":   "3ce56e7da9ab92b291cdab63c0453d8fcdca0c2e0a87a9d8bab31ef664a7f2e5",
	"deployment/Rapid":              "83d500da29e4767e1b37ef08218ab47433a043aa5800c6e7102b2626f850898f",
	"hetero-buffers/Rapid":          "37fc725f3e1c3426a286c813d5c6e43a268cace4b0f084a3f17d0664fe14ff52",
	"hetero-buffers/Epidemic":       "288037c75f00d3bba5e91f509de90c08201eb057397e553a3524c35d6e98ea26",
	"mega-constellation/Rapid":      "3636d5b5dfab3dee9b800a7b3d7be7376b4a5713c7ee5e39a56de98e78d97bd0",
	"mega-constellation/Epidemic":   "40dcf91ca39ef6cd582b9569155d525cae407ecd7c3ffa2f2a5f9bcd5ed03541",
	"synth-exponential/Rapid":       "c4893cfca31e4d4cd51d8f6a9777da0261811dec5e40d2612caabeb1a9b81698",
	"synth-exponential/Epidemic":    "d55969332fbefdb06477798441826847db664ec430d072b8349ed32b56fa18b7",
	"synth-powerlaw/Rapid":          "cd03e9987627cceaaf1160df7d652f14e54b86f8becfb63af0299f587fc23d65",
	"synth-powerlaw/Epidemic":       "a325d03193f821719ae2bdcf184cf13e6acf375e79266ea824ebfc33b8ea2c86",
	"trace-comparison/Rapid":        "cc2c6293071b7a4f303386a8d362bd75634398f6c16d51b75af492e9e2795617",
	"trace-comparison/Epidemic":     "a3990e4c7939c25bf20514b851154232c7277add2c578ff51bbdb5662fd4a785",
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

// TestGlobalChannelMergesTwoRowsAMeeting: on the instant global
// channel each meeting merges at most its two endpoints' rows, into the
// one shared matrix, not into every node's estimator.
func TestGlobalChannelMergesTwoRowsAMeeting(t *testing.T) {
	p := metamorphicParams()
	p.Tag = "global-merges"
	p.Protocols = []scenario.Proto{scenario.ProtoRapidGlobal}
	scs, err := scenario.Expand("constellation-ground", p)
	if err != nil || len(scs) == 0 {
		t.Fatalf("expand: %v (%d scenarios)", err, len(scs))
	}
	col, _ := scs[0].Execute()
	if col.Meetings == 0 || col.Meet.RowsMerged == 0 {
		t.Fatalf("%d meetings, %d rows merged: want both positive", col.Meetings, col.Meet.RowsMerged)
	}
	if col.Meet.RowsMerged > 2*uint64(col.Meetings) {
		t.Errorf("%d rows merged over %d meetings, want at most 2 a meeting", col.Meet.RowsMerged, col.Meetings)
	}
}

// TestMeetCountersWorkerInvariant: the summed meeting-estimator work
// counters, and the reverse arcs the estimators hold at the end, are
// the same at every worker count, and a RAPID run does each kind of
// work and holds some reverse arcs.
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
	if serial.RowsMerged == 0 || serial.PairsMoved == 0 || serial.RowsPublished == 0 || serial.ShortestPaths == 0 || serial.ReverseArcs == 0 {
		t.Fatalf("serial run: meet counters %+v, want every one positive", serial)
	}
	for _, w := range []int{2, 8} {
		if got := counters(w); got != serial {
			t.Errorf("workers %d: meet counters %+v, want the serial %+v", w, got, serial)
		}
	}
}
