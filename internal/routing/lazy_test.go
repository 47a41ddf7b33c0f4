package routing_test

import (
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"testing"
	"unsafe"

	"rapid/internal/core"
	"rapid/internal/disrupt"
	"rapid/internal/packet"
	"rapid/internal/routing"
	"rapid/internal/routing/epidemic"
	"rapid/internal/trace"
)

func testRapidFactory() routing.RouterFactory    { return core.New(core.AvgDelay) }
func testEpidemicFactory() routing.RouterFactory { return epidemic.New() }

// lazyPlan builds a small mixed contact plan: periodic point meetings,
// windowed passes (one clipped by the horizon), phase collisions across
// pairs — every same-instant ordering case the banded scheduler has to
// get right.
func lazyPlan() *trace.ContactPlan {
	cp := &trace.ContactPlan{Duration: 600}
	cp.Add(0, 1, 10, 60, 64<<10)
	cp.Add(1, 2, 10, 60, 64<<10) // collides with the pair above
	cp.Add(2, 3, 25, 45, 64<<10)
	cp.Add(0, 3, 95, 0, 64<<10) // one-shot
	cp.AddWindow(1, 3, 40, 120, 30, 4<<10)
	cp.AddWindow(0, 2, 550, 120, 100, 4<<10) // clipped at the horizon
	return cp
}

// lazyWorkload offers Poisson traffic among the plan's nodes.
func lazyWorkload(t *testing.T, duration float64) packet.Workload {
	t.Helper()
	w := packet.Generate(packet.GenConfig{
		Nodes:                 []packet.NodeID{0, 1, 2, 3},
		PacketsPerHourPerDest: 4,
		LoadWindow:            50,
		Duration:              duration,
		PacketSize:            1 << 10,
		Deadline:              200,
		FirstID:               1,
	}, rand.New(rand.NewSource(9)))
	if len(w) == 0 {
		t.Fatal("workload generator produced no packets")
	}
	return w
}

// summarize runs the scenario and reduces it to the comparable summary.
func summarize(sc routing.Scenario, horizon float64) any {
	return routing.Run(sc).Summarize(horizon)
}

// TestLazyPlanMatchesMaterialized is the layout-equivalence pin of the
// streaming plan path: the same plan driven through the compressed
// cursor produces the byte-identical summary as its fully materialized
// expansion, for every protocol arm that does not force the fallback.
func TestLazyPlanMatchesMaterialized(t *testing.T) {
	cp := lazyPlan()
	w := lazyWorkload(t, cp.Duration)
	for _, mk := range []struct {
		name    string
		factory routing.RouterFactory
	}{
		{"rapid", testRapidFactory()},
		{"epidemic", testEpidemicFactory()},
	} {
		t.Run(mk.name, func(t *testing.T) {
			cfg := routing.Config{
				Mode: routing.ControlInBand, MetaFraction: -1, Hops: 3,
				BufferBytes: 64 << 10, DefaultTransferBytes: 64 << 10,
			}
			mat := routing.Scenario{
				Schedule: cp.Expand(), Workload: w,
				Factory: mk.factory, Cfg: cfg, Seed: 5,
			}
			lazy := routing.Scenario{
				Plan: cp, Workload: w,
				Factory: mk.factory, Cfg: cfg, Seed: 5,
			}
			got, want := summarize(lazy, cp.Duration), summarize(mat, cp.Duration)
			if got != want {
				t.Errorf("lazy plan diverged from materialized schedule:\n  materialized: %+v\n  lazy:         %+v", want, got)
			}
		})
	}
}

// TestStreamingSourceMatchesWorkload: feeding the identical packet
// sequence through the on-demand source pump instead of upfront
// scheduling leaves the run byte-identical.
func TestStreamingSourceMatchesWorkload(t *testing.T) {
	cp := lazyPlan()
	w := lazyWorkload(t, cp.Duration)
	cfg := routing.Config{
		Mode: routing.ControlInBand, MetaFraction: -1, Hops: 3,
		BufferBytes: 64 << 10, DefaultTransferBytes: 64 << 10,
	}
	sched := cp.Expand()
	mat := routing.Scenario{
		Schedule: sched, Workload: w,
		Factory: testRapidFactory(), Cfg: cfg, Seed: 5,
	}
	streamed := routing.Scenario{
		Schedule: sched, Source: packet.NewSliceSource(w),
		Factory: testRapidFactory(), Cfg: cfg, Seed: 5,
	}
	got, want := summarize(streamed, cp.Duration), summarize(mat, cp.Duration)
	if got != want {
		t.Errorf("streamed workload diverged from materialized workload:\n  materialized: %+v\n  streamed:     %+v", want, got)
	}
}

// TestLazyStreamingEndToEnd combines both streaming layers — plan
// cursor and source pump — against the doubly materialized run.
func TestLazyStreamingEndToEnd(t *testing.T) {
	cp := lazyPlan()
	w := lazyWorkload(t, cp.Duration)
	cfg := routing.Config{
		Mode: routing.ControlInBand, MetaFraction: -1, Hops: 3,
		BufferBytes: 64 << 10, DefaultTransferBytes: 64 << 10,
	}
	mat := routing.Scenario{
		Schedule: cp.Expand(), Workload: w,
		Factory: testRapidFactory(), Cfg: cfg, Seed: 5,
	}
	both := routing.Scenario{
		Plan: cp, Source: packet.NewSliceSource(w),
		Factory: testRapidFactory(), Cfg: cfg, Seed: 5,
	}
	got, want := summarize(both, cp.Duration), summarize(mat, cp.Duration)
	if got != want {
		t.Errorf("fully streamed run diverged from fully materialized run:\n  materialized: %+v\n  streamed:     %+v", want, got)
	}
}

// realizeReference writes out the disruption step over a schedule's
// lists: the k-th nominal occurrence, counting meetings first and then
// contacts in list order, drops when it fails and otherwise moves to
// its jittered instant, dropping too if that leaves [0, horizon). The
// survivors keep list order, so the copy is unsorted and a pristine
// run time-sorts it.
func realizeReference(s *trace.Schedule, spec disrupt.Spec, seed uint64) *trace.Schedule {
	m := disrupt.New(spec, seed)
	out := &trace.Schedule{Duration: s.Duration}
	realize := func(k int, t float64) (float64, bool) {
		if m.ContactFails(k) {
			return 0, false
		}
		t += m.Jitter(k)
		return t, t >= 0 && t < s.Duration
	}
	for k, mt := range s.Meetings {
		if t, ok := realize(k, mt.Time); ok {
			mt.Time = t
			out.Meetings = append(out.Meetings, mt)
		}
	}
	for k, c := range s.Contacts {
		if t, ok := realize(len(s.Meetings)+k, c.Start); ok {
			c.Start = t
			out.Contacts = append(out.Contacts, c)
		}
	}
	return out
}

// TestDisruptionKeysArePositions: a run under contact failure and
// jitter replays like the pristine run of its hand-realized copy, so
// each occurrence's disruption draws are keyed by its nominal list
// position (meetings first). A plan keys by its expansion's positions;
// a shuffled expansion, an unsorted schedule, keys by its own.
func TestDisruptionKeysArePositions(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	changed := 0 // trials whose disruption changed the outcome
	for trial := range 40 {
		data := make([]byte, 64)
		r.Read(data)
		c := decodeModeCase(data)
		c.spec = disrupt.Spec{Enabled: true, PContactFail: 0.25, JitterSec: 3}
		c.seed = uint64(trial)
		pristine := c
		pristine.spec = disrupt.Spec{}
		expanded := c.plan.Expand()
		shuffled := permuted(expanded, c.perm)
		nominal, _ := pristine.run(t, nil, 1, false, false)
		if disrupted, _ := c.run(t, nil, 1, false, false); disrupted != nominal {
			changed++
		}
		for _, form := range []struct {
			name    string
			run     *trace.Schedule // nil runs the plan
			nominal *trace.Schedule
		}{{"plan", nil, expanded}, {"expand", expanded, expanded}, {"shuffled", shuffled, shuffled}} {
			ref := realizeReference(form.nominal, c.spec, c.seed)
			want, wantLog := pristine.run(t, ref, 1, true, false)
			got, log := c.run(t, form.run, 1, true, false)
			if got != want {
				t.Fatalf("trial %d %s: disrupted run diverged from its realized copy:\n got %s\nwant %s", trial, form.name, got, want)
			}
			// Windows closing at one instant close in pump order: nominal
			// order here, realized order in the copy. Only the order of
			// their hook calls can tell, so the logs compare as multisets.
			if sortedLines(log) != sortedLines(wantLog) {
				t.Fatalf("trial %d %s: hook log diverged from its realized copy:\n got %s\nwant %s", trial, form.name, log, wantLog)
			}
		}
	}
	if changed < 20 {
		t.Fatalf("disruption changed the outcome of only %d of 40 trials", changed)
	}
}

// sortedLines returns s with its lines sorted.
func sortedLines(s string) string {
	lines := strings.Split(s, "\n")
	slices.Sort(lines)
	return strings.Join(lines, "\n")
}

// TestDisruptedPlanRunStreams: a disrupted, unprimed plan run streams
// its cursor instead of expanding the plan. The plan below expands to
// 10⁶ meetings, at least 32 MB; every occurrence fails, so the run
// allocates little beyond its network. The bound is 1 MB; a run that
// expanded the plan would exceed it.
func TestDisruptedPlanRunStreams(t *testing.T) {
	plan := &trace.ContactPlan{Duration: 1e6}
	plan.Add(0, 1, 0, 1, 1<<10)
	if err := plan.Validate(); err != nil {
		t.Fatal(err)
	}
	sc := routing.Scenario{
		Plan: plan, Factory: testEpidemicFactory(), Seed: 1,
		Cfg: routing.Config{
			Mode: routing.ControlInBand, MetaFraction: -1, Hops: 3,
			BufferBytes: 64 << 10, DefaultTransferBytes: 64 << 10,
		},
		Disrupt: disrupt.Spec{Enabled: true, PContactFail: 1}, DisruptSeed: 1,
	}
	const bound = 1 << 20
	points, _ := plan.Occurrences()
	expansion := uint64(points) * uint64(unsafe.Sizeof(trace.Meeting{}))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	col := routing.Run(sc)
	runtime.ReadMemStats(&after)
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc > bound {
		t.Errorf("disrupted plan run allocated %d bytes, over the %d bound (the expansion alone is %d)",
			alloc, bound, expansion)
	}
	if col.EventsExecuted != 0 {
		t.Errorf("run executed %d events; every occurrence should have failed", col.EventsExecuted)
	}
}
