package exp

import (
	"reflect"
	"testing"

	"rapid/internal/metrics"
	"rapid/internal/scenario"
)

// engineGrid expands a small registry family: 2 loads × 2 protocols ×
// 2 runs = 8 scenarios, each well under 100 ms.
func engineGrid(tag string) []scenario.Scenario {
	p := scenario.Params{
		Tag: tag, Runs: 2, Loads: []float64{10, 40},
		Protocols: []scenario.Proto{scenario.ProtoRapid, scenario.ProtoRandom},
		Nodes:     8, Duration: 120,
	}
	scs, err := scenario.Expand("synth-exponential", p)
	if err != nil {
		panic(err)
	}
	return scs
}

// TestParallelMatchesSerial: a registry-family sweep on a parallel
// engine produces summaries identical to the serial path — both a
// 1-worker engine and direct scenario execution.
func TestParallelMatchesSerial(t *testing.T) {
	grid := engineGrid("par-vs-serial")
	par := NewEngine(8, 0).Summaries(grid)
	ser := NewEngine(1, 0).Summaries(grid)
	if !reflect.DeepEqual(par, ser) {
		t.Fatal("parallel engine and 1-worker engine disagree")
	}
	for i, sc := range grid {
		if direct := sc.Summary(); !reflect.DeepEqual(par[i], direct) {
			t.Fatalf("scenario %d: engine %+v != direct %+v", i, par[i], direct)
		}
	}
}

// TestSummariesOrderPreserved: results line up with the input order
// regardless of completion order.
func TestSummariesOrderPreserved(t *testing.T) {
	grid := engineGrid("order")
	e := NewEngine(4, 0)
	got := e.Summaries(grid)
	if len(got) != len(grid) {
		t.Fatalf("got %d summaries for %d scenarios", len(got), len(grid))
	}
	for i, sc := range grid {
		if cached, ok := e.lookup(sc); !ok || !reflect.DeepEqual(cached, got[i]) {
			t.Fatalf("position %d does not hold its scenario's summary", i)
		}
	}
}

// TestCacheHitAndDedup: a repeated scenario is computed once per engine
// and served from cache afterwards.
func TestCacheHitAndDedup(t *testing.T) {
	sc := engineGrid("dedup")[0]
	e := NewEngine(4, 0)
	out := e.Summaries([]scenario.Scenario{sc, sc, sc, sc})
	for i := 1; i < len(out); i++ {
		if !reflect.DeepEqual(out[0], out[i]) {
			t.Fatal("duplicate scenarios returned different summaries")
		}
	}
	if n := e.CacheLen(); n != 1 {
		t.Fatalf("cache holds %d entries for one unique scenario", n)
	}
	again := e.Summaries([]scenario.Scenario{sc})
	if !reflect.DeepEqual(again[0], out[0]) {
		t.Fatal("cache served a different summary")
	}
	if n := e.CacheLen(); n != 1 {
		t.Fatalf("cache grew to %d on a pure hit", n)
	}
}

// TestCacheBounded: the cache evicts oldest entries at its limit
// instead of growing without bound (the old global sync.Map never
// evicted).
func TestCacheBounded(t *testing.T) {
	grid := engineGrid("bounded")
	e := NewEngine(2, 3)
	e.Summaries(grid)
	if n := e.CacheLen(); n > 3 {
		t.Fatalf("cache holds %d entries, limit 3", n)
	}
	// The newest entry must still be resident.
	if _, ok := e.lookup(grid[len(grid)-1]); !ok {
		t.Fatal("newest entry evicted")
	}
}

// TestRunWorkersDefault: the engine's intra-run worker default lands
// on scenarios that pinned no count, a pinned Config.Workers beats it,
// and with no default the scenario runs as given.
func TestRunWorkersDefault(t *testing.T) {
	s := engineGrid("run-workers")[0]
	e := NewEngine(1, 0)
	if got := e.applyRunWorkers(s); got != s {
		t.Fatalf("zero default changed the scenario: Workers = %d", got.Config.Workers)
	}
	e.SetRunWorkers(-1)
	if got := e.applyRunWorkers(s).Config.Workers; got != -1 {
		t.Fatalf("engine default Workers = %d, want -1", got)
	}
	s.Config.Workers = 4
	if got := e.applyRunWorkers(s).Config.Workers; got != 4 {
		t.Fatalf("pinned Workers = %d, want 4 (a pin beats the engine default)", got)
	}
	if got := e.applyRunWorkers(s).Materialize().Cfg.Workers; got != 4 {
		t.Fatalf("materialized Workers = %d, want 4", got)
	}
}

// TestRunsParallelCollectors: full-collector runs preserve order and
// horizons.
func TestRunsParallelCollectors(t *testing.T) {
	grid := engineGrid("runs")[:2]
	outs := NewEngine(4, 0).Runs(grid)
	if len(outs) != 2 {
		t.Fatalf("got %d outputs", len(outs))
	}
	for i, o := range outs {
		if o.Col == nil {
			t.Fatalf("run %d: nil collector", i)
		}
		if o.Horizon != grid[i].Schedule.Duration {
			t.Fatalf("run %d: horizon %v, want %v", i, o.Horizon, grid[i].Schedule.Duration)
		}
		if !reflect.DeepEqual(o.Col.Summarize(o.Horizon), grid[i].Summary()) {
			t.Fatalf("run %d: collector disagrees with direct execution", i)
		}
	}
}

// TestFigureParallelMatchesSerial: a whole figure regenerated on a
// parallel engine equals the 1-worker regeneration (the registry-level
// guarantee the figures depend on).
func TestFigureParallelMatchesSerial(t *testing.T) {
	sc := TinyScale()
	sc.Name = "tiny-parallel-check"
	saved := defaultEngine
	defer func() { defaultEngine = saved }()

	defaultEngine = NewEngine(1, 0)
	serial := Fig5(sc)
	defaultEngine = NewEngine(8, 0)
	parallel := Fig5(sc)
	if !reflect.DeepEqual(serial, parallel) {
		t.Fatal("Fig5 differs between serial and parallel engines")
	}
}

// TestSweepSeriesOrder: series appear in first-point insertion order
// and carry one point per x.
func TestSweepSeriesOrder(t *testing.T) {
	grid := engineGrid("sweep")
	sw := newSweep("id", "t", "x", "y")
	sw.point("b", 1, deliveryRate, grid[:1])
	sw.point("a", 1, deliveryRate, grid[1:2])
	sw.point("b", 2, deliveryRate, grid[2:3])
	fig := sw.run(NewEngine(2, 0))
	if len(fig.Series) != 2 || fig.Series[0].Label != "b" || fig.Series[1].Label != "a" {
		t.Fatalf("series order wrong: %+v", fig.Series)
	}
	if len(fig.Series[0].X) != 2 || len(fig.Series[1].X) != 1 {
		t.Fatalf("series lengths wrong: %+v", fig.Series)
	}
}

// TestCacheSustainedEviction: under sustained eviction the fifo ring
// keeps the cache at its bound, evicts strictly oldest-first, and
// compacts its backing array instead of pinning every evicted key
// behind a growing hidden prefix (the old fifo[1:] reslice leak).
func TestCacheSustainedEviction(t *testing.T) {
	e := NewEngine(1, 4)
	mk := func(i int) scenario.Scenario {
		sc := engineGrid("evict")[0]
		sc.Run = i // distinct cache identity per i
		return sc
	}
	const waves = 40
	for i := 0; i < waves; i++ {
		e.store(mk(i), metrics.Summary{Generated: i})
		if n := e.CacheLen(); n > 4 {
			t.Fatalf("wave %d: cache holds %d entries, limit 4", i, n)
		}
	}
	// Only the four newest survive.
	for i := 0; i < waves; i++ {
		s, ok := e.lookup(mk(i))
		if want := i >= waves-4; ok != want {
			t.Fatalf("entry %d resident=%v want %v", i, ok, want)
		}
		if ok && s.Generated != i {
			t.Fatalf("entry %d returned summary %d", i, s.Generated)
		}
	}
	// The backing array must stay near the limit, not near `waves`.
	if cap(e.fifo) > 16 {
		t.Errorf("fifo backing array grew to %d for a limit-4 cache", cap(e.fifo))
	}
}

// TestFigureSharesFamilyCache: a figure runs its family's own
// scenarios, so after Fig. 4 the trace-comparison family at the same
// scale is served from the engine's cache without a single run.
func TestFigureSharesFamilyCache(t *testing.T) {
	sc := TinyScale()
	Fig4(sc)
	hits, misses := defaultEngine.CacheStats()
	scs, err := scenario.Expand("trace-comparison", FamilyParams("trace-comparison", sc))
	if err != nil {
		t.Fatal(err)
	}
	defaultEngine.Summaries(scs)
	h, m := defaultEngine.CacheStats()
	if m != misses || h-hits != uint64(len(scs)) {
		t.Fatalf("family after Fig. 4: %d hits, %d misses over %d scenarios; want all hits", h-hits, m-misses, len(scs))
	}
}
