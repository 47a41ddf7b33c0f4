package exp

import (
	"context"
	"math"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"rapid/internal/metrics"
	"rapid/internal/report"
	"rapid/internal/scenario"
	"rapid/internal/stat"
)

// Engine executes scenario runs across a bounded worker pool with a
// typed, bounded summary cache. The cache key is the scenario value
// itself — a comparable struct — so two distinct scenarios can never
// collide (the old string-joined memo keys could, via caller-supplied
// free text). Runs are independent and fully seeded by the scenario,
// so results are deterministic regardless of worker count or execution
// order.
type Engine struct {
	workers int

	// runWorkers, when non-zero, is the intra-run event-engine worker
	// count applied at execution time to scenarios that did not pin
	// their own (Overrides.Workers == 0) — the only default a run's
	// worker count has. It is not part of the cache key: output is
	// byte-identical at any worker setting, so summaries are shared
	// across settings.
	runWorkers atomic.Int64

	// hits and misses count cache lookups, for the service's
	// cache-hit-rate metric. A duplicate scenario within one Summaries
	// call counts one miss (it is computed once).
	hits, misses atomic.Uint64

	mu    sync.Mutex
	cache map[scenario.Scenario]metrics.Summary
	// fifo records insertion order for eviction once limit is reached.
	// Entries are consumed from head rather than by reslicing fifo[1:],
	// which would pin the ever-growing backing array (every evicted key
	// stays reachable from the slice's hidden prefix); the live region
	// is copied down once head crosses half the backing array.
	fifo  []scenario.Scenario
	head  int
	limit int
}

// defaultCacheLimit bounds the summary cache. An entry (Scenario key +
// Summary) is well under 1 KB, so the default caps memory near tens of
// MB while retaining more than a full-scale comparison grid (12 loads ×
// 4 protocols × 58 days × 10 runs ≈ 28k scenarios) — the population
// Figs. 4–7 and 10–12 share arms from. Eviction only bites beyond
// that.
const defaultCacheLimit = 1 << 16

// NewEngine returns an engine with the given pool size and cache bound.
// workers <= 0 selects GOMAXPROCS; cacheLimit <= 0 selects the default.
func NewEngine(workers, cacheLimit int) *Engine {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if cacheLimit <= 0 {
		cacheLimit = defaultCacheLimit
	}
	return &Engine{
		workers: workers,
		cache:   make(map[scenario.Scenario]metrics.Summary),
		limit:   cacheLimit,
	}
}

// SetRunWorkers sets this engine's intra-run worker default, applied at
// execution time to scenarios that did not pin Overrides.Workers (the
// cmd/experiments -run-workers flag and the service's RunWorkers). 0 or
// 1 is the serial engine; negative means one worker per CPU. Safe to
// call concurrently with running sweeps (runs that already started keep
// their setting). Output is byte-identical at any setting.
func (e *Engine) SetRunWorkers(n int) { e.runWorkers.Store(int64(n)) }

// RunWorkers reports the engine's intra-run worker default.
func (e *Engine) RunWorkers() int { return int(e.runWorkers.Load()) }

// applyRunWorkers pins the engine's intra-run worker default onto a
// scenario about to execute, leaving scenarios with their own pin — and
// the caller's cache key — untouched.
func (e *Engine) applyRunWorkers(sc scenario.Scenario) scenario.Scenario {
	if rw := e.RunWorkers(); rw != 0 && sc.Config.Workers == 0 {
		sc.Config.Workers = rw
	}
	return sc
}

// CacheStats reports cumulative cache lookup hits and misses.
func (e *Engine) CacheStats() (hits, misses uint64) {
	return e.hits.Load(), e.misses.Load()
}

// Workers reports the pool size.
func (e *Engine) Workers() int { return e.workers }

func (e *Engine) lookup(sc scenario.Scenario) (metrics.Summary, bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	s, ok := e.cache[sc]
	if ok {
		e.hits.Add(1)
	}
	return s, ok
}

func (e *Engine) store(sc scenario.Scenario, s metrics.Summary) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if _, ok := e.cache[sc]; ok {
		return
	}
	for len(e.cache) >= e.limit && e.head < len(e.fifo) {
		oldest := e.fifo[e.head]
		e.fifo[e.head] = scenario.Scenario{} // release the evicted key
		e.head++
		delete(e.cache, oldest)
	}
	if e.head > 0 && e.head*2 >= len(e.fifo) {
		n := copy(e.fifo, e.fifo[e.head:])
		clear(e.fifo[n:])
		e.fifo = e.fifo[:n]
		e.head = 0
	}
	e.cache[sc] = s
	e.fifo = append(e.fifo, sc)
}

// CacheLen reports the number of cached summaries (for tests and the
// cmd status line).
func (e *Engine) CacheLen() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return len(e.cache)
}

// parallel fans f over n indices across the worker pool and waits.
func (e *Engine) parallel(n int, f func(i int)) {
	e.parallelCtx(context.Background(), n, func(i int) bool { f(i); return true })
}

// parallelCtx fans f over n indices, stopping claims once ctx is done
// or f returns false; in-flight calls complete. It returns the number
// of indices claimed (every i < claimed had f(i) called).
func (e *Engine) parallelCtx(ctx context.Context, n int, f func(i int) bool) int {
	if n <= 0 {
		return 0
	}
	workers := min(e.workers, n)
	if workers <= 1 {
		for i := 0; i < n; i++ {
			if ctx.Err() != nil || !f(i) {
				return i
			}
		}
		return n
	}
	var next atomic.Int64
	var stopped atomic.Bool
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				if stopped.Load() || ctx.Err() != nil {
					return
				}
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				if !f(i) {
					stopped.Store(true)
					return
				}
			}
		}()
	}
	wg.Wait()
	claimed := int(next.Load())
	if claimed > n {
		claimed = n
	}
	return claimed
}

// Summaries returns one summary per scenario, in input order. Cached
// results are reused; misses run concurrently on the worker pool.
// Duplicate scenarios within one call are computed once.
func (e *Engine) Summaries(scs []scenario.Scenario) []metrics.Summary {
	out, _ := e.SummariesCtx(context.Background(), scs)
	return out
}

// SummariesCtx is Summaries with cooperative cancellation: once ctx is
// done no further cache misses start; in-flight runs complete and their
// results are cached. When the sweep was cut short the error is
// ctx.Err() and output slots whose runs never started hold zero
// summaries — callers must treat the slice as partial. Cancellation
// granularity is one scenario run: a single enormous run is not
// interrupted mid-flight.
func (e *Engine) SummariesCtx(ctx context.Context, scs []scenario.Scenario) ([]metrics.Summary, error) {
	out := make([]metrics.Summary, len(scs))
	need := make(map[scenario.Scenario][]int)
	var misses []scenario.Scenario
	for i, sc := range scs {
		if s, ok := e.lookup(sc); ok {
			out[i] = s
			continue
		}
		if _, seen := need[sc]; !seen {
			misses = append(misses, sc)
			e.misses.Add(1)
		}
		need[sc] = append(need[sc], i)
	}
	results := make([]metrics.Summary, len(misses))
	ran := make([]atomic.Bool, len(misses))
	e.parallelCtx(ctx, len(misses), func(i int) bool {
		results[i] = e.applyRunWorkers(misses[i]).Summary()
		ran[i].Store(true)
		return true
	})
	for i, sc := range misses {
		if !ran[i].Load() {
			continue
		}
		e.store(sc, results[i])
		for _, j := range need[sc] {
			out[j] = results[i]
		}
	}
	return out, ctx.Err()
}

// RunOutput is one uncached full run: the collector (per-packet
// records, cohort fairness) plus the run horizon.
type RunOutput struct {
	Col     *metrics.Collector
	Horizon float64
}

// Runs executes the scenarios concurrently and returns their full
// collectors in input order. Collectors carry per-packet state and are
// not cached.
func (e *Engine) Runs(scs []scenario.Scenario) []RunOutput {
	out := make([]RunOutput, len(scs))
	e.parallel(len(scs), func(i int) {
		col, horizon := e.applyRunWorkers(scs[i]).Execute()
		out[i] = RunOutput{Col: col, Horizon: horizon}
	})
	return out
}

// ---------------------------------------------------------------------
// The sweep reducer. Every figure point is a (series, x, batch) triple.
// A figure submits the batches of all its points to the engine as one
// flat job list, so it parallelizes across series, axis points, days
// and seeds at once, and reduces each batch to the Welford mean of its
// values, with the 95% half-width when the figure carries error bars.

// point is one figure point: the batch of runs behind it and the value
// each run contributes. A NaN value declines its run, which then leaves
// the point's pool. obs holds observations that come from no summary
// (Fig. 13's offline oracle); they are pooled ahead of the batch's.
type point struct {
	series string
	x      float64
	scs    []scenario.Scenario
	value  func(metrics.Summary) float64
	obs    []float64
}

// reduce runs the batches of all points on the engine and returns each
// point's mean and 95% half-width, in point order.
func (e *Engine) reduce(pts []point) []stat.CI {
	var all []scenario.Scenario
	for _, p := range pts {
		all = append(all, p.scs...)
	}
	sums := e.Summaries(all)
	cis := make([]stat.CI, len(pts))
	for i, p := range pts {
		var w stat.Welford
		for _, v := range p.obs {
			w.Add(v)
		}
		for _, s := range sums[:len(p.scs)] {
			if v := p.value(s); !math.IsNaN(v) {
				w.Add(v)
			}
		}
		sums = sums[len(p.scs):]
		cis[i] = w.CI(ciConfidence)
	}
	return cis
}

// plot lays the reduced points out as fig's series: series in
// first-point order, each sorted by x, with each point's half-width as
// YErr when errs is set.
func plot(fig *report.Figure, pts []point, cis []stat.CI, errs bool) *report.Figure {
	idx := make(map[string]int)
	for i, p := range pts {
		si, ok := idx[p.series]
		if !ok {
			si = len(fig.Series)
			idx[p.series] = si
			fig.Series = append(fig.Series, report.Series{Label: p.series})
		}
		s := &fig.Series[si]
		s.X = append(s.X, p.x)
		s.Y = append(s.Y, cis[i].Mean)
		if errs {
			s.YErr = append(s.YErr, cis[i].Half)
		}
	}
	for i := range fig.Series {
		sortSeries(&fig.Series[i])
	}
	return fig
}

// sortSeries orders a series by X, keeping Y and any YErr aligned.
func sortSeries(s *report.Series) {
	idx := make([]int, len(s.X))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return s.X[idx[a]] < s.X[idx[b]] })
	permute := func(v []float64) []float64 {
		if v == nil {
			return nil
		}
		out := make([]float64, len(idx))
		for i, j := range idx {
			out[i] = v[j]
		}
		return out
	}
	s.X, s.Y, s.YErr = permute(s.X), permute(s.Y), permute(s.YErr)
}
