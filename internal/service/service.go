// Package service is the long-lived simulation service behind cmd/simd:
// an HTTP/JSON northbound API over the scenario registry and the
// experiment engine. Submissions become jobs on a bounded queue; a
// fixed pool of runners executes them on a per-service exp.Engine
// (never the package-global default, whose setters are batch-CLI
// startup knobs), streams per-event telemetry to subscribers, and
// exposes Prometheus text-format metrics. Results are byte-identical
// to cmd/experiments for the same scenarios: both front ends share the
// scenario expansion, the engine, and the summary-table renderer.
//
// DESIGN.md §14 documents the architecture: job controller, telemetry
// fan-out, metrics taxonomy and shutdown semantics.
package service

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"time"

	"rapid/internal/exp"
	"rapid/internal/metrics"
	"rapid/internal/packet"
	"rapid/internal/routing"
	"rapid/internal/scenario"
)

// Config sizes the service. The zero value is usable: every field has
// a sensible default applied by New.
type Config struct {
	// EngineWorkers sizes the experiment engine's scenario pool
	// (0 = GOMAXPROCS).
	EngineWorkers int
	// CacheLimit bounds the engine's summary cache (0 = default).
	CacheLimit int
	// RunWorkers is the service-wide intra-run worker default, applied
	// instance-scoped through the engine (0 = serial). Per-job
	// run_workers and per-scenario pins take precedence.
	RunWorkers int
	// MaxConcurrentJobs bounds jobs executing at once (default 2).
	MaxConcurrentJobs int
	// QueueDepth bounds jobs waiting to run; submissions beyond it are
	// rejected with 429 (default 64).
	QueueDepth int
}

// Server is one service instance. Construct with New; Handler serves
// the API; Drain stops it.
type Server struct {
	cfg     Config
	engine  *exp.Engine
	metrics *serviceMetrics
	mux     *http.ServeMux

	baseCtx    context.Context
	baseCancel context.CancelFunc

	mu       sync.Mutex
	jobs     map[string]*Job
	order    []string // submission order, for deterministic listings
	nextID   int
	queued   int
	running  int
	draining bool

	queue chan *Job
	wg    sync.WaitGroup
}

// New builds a service and starts its runner pool.
func New(cfg Config) *Server {
	if cfg.MaxConcurrentJobs <= 0 {
		cfg.MaxConcurrentJobs = 2
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 64
	}
	s := &Server{
		cfg:     cfg,
		engine:  exp.NewEngine(cfg.EngineWorkers, cfg.CacheLimit),
		metrics: newServiceMetrics(),
		jobs:    make(map[string]*Job),
		queue:   make(chan *Job, cfg.QueueDepth),
	}
	s.engine.SetRunWorkers(cfg.RunWorkers)
	s.baseCtx, s.baseCancel = context.WithCancel(context.Background())
	for i := 0; i < cfg.MaxConcurrentJobs; i++ {
		s.wg.Add(1)
		go s.runner()
	}
	s.mux = http.NewServeMux()
	s.routes()
	return s
}

// Handler returns the root HTTP handler.
func (s *Server) Handler() http.Handler { return s.mux }

// Drain stops intake, cancels queued jobs, waits for running jobs to
// finish (or ctx to expire), then releases the runner pool. Safe to
// call once; returns the number of jobs that completed during the
// drain plus an error when ctx expired first.
func (s *Server) Drain(ctx context.Context) error {
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		return nil
	}
	s.draining = true
	s.mu.Unlock()
	close(s.queue) // runners cancel whatever is still queued and exit

	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		// Force-cancel in-flight jobs and give them a moment to unwind.
		s.baseCancel()
		select {
		case <-done:
			return nil
		case <-time.After(2 * time.Second): //rapidlint:allow nondeterminism — shutdown grace timer; never feeds simulation state
			return fmt.Errorf("service: drain timed out with jobs still running")
		}
	}
}

// runner consumes the queue until Drain closes it. Jobs cancelled (or
// arriving after drain began) are skipped; everything else runs on the
// shared engine.
func (s *Server) runner() {
	defer s.wg.Done()
	for j := range s.queue {
		s.mu.Lock()
		s.queued--
		draining := s.draining
		s.mu.Unlock()
		if draining || !j.setRunning() {
			j.markCancelled()
			s.metrics.jobFinished(stateCancelled, 0)
			continue
		}
		s.mu.Lock()
		s.running++
		s.mu.Unlock()
		s.runJob(j)
		s.mu.Lock()
		s.running--
		s.mu.Unlock()
	}
}

// runJob executes one job to a terminal state. Panics inside a run
// (invalid scenario geometry, protocol contract violations) fail the
// job instead of the process.
func (s *Server) runJob(j *Job) {
	ctx, cancel := context.WithCancel(s.baseCtx)
	j.mu.Lock()
	j.cancel = cancel
	requested := j.cancelRequested
	j.mu.Unlock()
	if requested {
		// A DELETE raced the runner between setRunning and the install
		// above; honor it before any scenario executes.
		cancel()
	}
	defer cancel()

	var (
		sums []metrics.Summary
		err  error
	)
	func() {
		defer func() {
			if r := recover(); r != nil {
				err = fmt.Errorf("run panicked: %v", r)
			}
		}()
		if j.Spec.Telemetry {
			sums, err = s.runTelemetry(ctx, j)
		} else {
			sums, err = s.runCached(ctx, j)
		}
	}()

	switch {
	case err != nil && (ctx.Err() != nil || err == context.Canceled):
		j.finish(stateCancelled, "", nil, "")
	case err != nil:
		j.finish(stateFailed, err.Error(), nil, "")
	default:
		j.finish(stateDone, "", sums, exp.RenderFamilySummaryTable(j.scs, sums))
	}
	st := j.status()
	s.metrics.jobFinished(st.State, j.runSeconds())
}

// runCached executes through the engine's summary cache — the default
// path, sharing results with every previous job of identical
// scenarios.
func (s *Server) runCached(ctx context.Context, j *Job) ([]metrics.Summary, error) {
	sums, err := s.engine.SummariesCtx(ctx, j.scs)
	if err != nil {
		return nil, err
	}
	for i, sum := range sums {
		sum := sum
		j.markScenarioDone(i, &sum)
		s.metrics.scenarioDone(0)
	}
	return sums, nil
}

// markScenarioDone advances the progress counter and emits the
// scenario_done event.
func (j *Job) markScenarioDone(i int, sum *metrics.Summary) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.completed++
	j.appendLocked(Event{
		Type: "scenario_done", Scenario: ptr(i),
		Protocol: string(j.scs[i].Protocol), Load: ptr(j.scs[i].Workload.Load), Run: ptr(j.scs[i].Run),
		Summary: sum,
	})
}

// runTelemetry executes each scenario directly with routing.Hooks
// attached, streaming per-packet events. Hooks force the serial
// intra-run engine, and the direct path bypasses the summary cache;
// summaries are byte-identical to the cached path, so mixed
// telemetry/cached jobs over the same family agree exactly.
func (s *Server) runTelemetry(ctx context.Context, j *Job) ([]metrics.Summary, error) {
	sums := make([]metrics.Summary, len(j.scs))
	for i, sc := range j.scs {
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
		j.append(Event{
			Type: "scenario_start", Scenario: ptr(i),
			Protocol: string(sc.Protocol), Load: ptr(sc.Workload.Load), Run: ptr(sc.Run),
		})
		col, horizon := runHooked(sc, j, i)
		sums[i] = col.Summarize(horizon)
		j.markScenarioDone(i, &sums[i])
		s.metrics.scenarioDone(col.EventsExecuted)
	}
	return sums, nil
}

// runHooked is scenario.Execute with telemetry hooks spliced into the
// materialized run.
func runHooked(sc scenario.Scenario, j *Job, idx int) (*metrics.Collector, float64) {
	rs := sc.Materialize()
	rs.Hooks = &routing.Hooks{
		OnGenerated: func(p *packet.Packet, now float64) {
			j.append(Event{Type: "generated", Scenario: ptr(idx), T: ptr(now),
				Packet: ptr(int64(p.ID)), Src: ptr(int(p.Src)), Dst: ptr(int(p.Dst))})
		},
		OnDelivered: func(id packet.ID, dst packet.NodeID, now float64) {
			j.append(Event{Type: "delivered", Scenario: ptr(idx), T: ptr(now),
				Packet: ptr(int64(id)), Dst: ptr(int(dst))})
		},
		OnLost: func(id packet.ID, from, to packet.NodeID, now float64) {
			j.append(Event{Type: "lost", Scenario: ptr(idx), T: ptr(now),
				Packet: ptr(int64(id)), Src: ptr(int(from)), Dst: ptr(int(to))})
		},
		OnOpportunityDone: func(a, b packet.NodeID, capacity, spent int64, windowed bool, now float64) {
			j.append(Event{Type: "opportunity", Scenario: ptr(idx), T: ptr(now),
				Src: ptr(int(a)), Dst: ptr(int(b)), Capacity: ptr(capacity), Spent: ptr(spent)})
		},
	}
	return routing.Run(rs), rs.Horizon()
}

// ---------------------------------------------------------------------
// HTTP layer

func (s *Server) routes() {
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.mux.HandleFunc("GET /v1/families", s.handleFamilies)
	s.mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	s.mux.HandleFunc("GET /v1/jobs", s.handleList)
	s.mux.HandleFunc("GET /v1/jobs/{id}", s.handleStatus)
	s.mux.HandleFunc("GET /v1/jobs/{id}/table", s.handleTable)
	s.mux.HandleFunc("GET /v1/jobs/{id}/events", s.handleEvents)
	s.mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleCancel)
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	_ = enc.Encode(v)
}

func writeError(w http.ResponseWriter, code int, format string, args ...any) {
	writeJSON(w, code, map[string]string{"error": fmt.Sprintf(format, args...)})
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	draining := s.draining
	s.mu.Unlock()
	if draining {
		writeJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "draining"})
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	hits, misses := s.engine.CacheStats()
	s.mu.Lock()
	g := gaugeSnapshot{
		jobsRunning: s.running, jobsQueued: s.queued,
		cacheHits: hits, cacheMisses: misses, cacheLen: s.engine.CacheLen(),
	}
	s.mu.Unlock()
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	fmt.Fprint(w, s.metrics.render(g))
}

func (s *Server) handleFamilies(w http.ResponseWriter, r *http.Request) {
	type fam struct {
		Name string `json:"name"`
		Doc  string `json:"doc"`
	}
	var out []fam
	for _, f := range scenario.Families() {
		out = append(out, fam{Name: f.Name, Doc: f.Doc})
	}
	writeJSON(w, http.StatusOK, out)
}

// decodeSpec decodes a POST /v1/jobs body into a JobSpec, rejecting
// unknown fields.
func decodeSpec(body io.Reader) (JobSpec, error) {
	var spec JobSpec
	dec := json.NewDecoder(body)
	dec.DisallowUnknownFields()
	err := dec.Decode(&spec)
	return spec, err
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	spec, err := decodeSpec(r.Body)
	if err != nil {
		s.metrics.rejected()
		writeError(w, http.StatusBadRequest, "bad job spec: %v", err)
		return
	}
	scs, err := expandSpec(spec)
	if err != nil {
		s.metrics.rejected()
		writeError(w, http.StatusBadRequest, "bad job spec: %v", err)
		return
	}

	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		s.metrics.rejected()
		writeError(w, http.StatusServiceUnavailable, "service is draining")
		return
	}
	s.nextID++
	id := fmt.Sprintf("job-%06d", s.nextID)
	j := newJob(id, spec, scs)
	select {
	case s.queue <- j:
	default:
		s.mu.Unlock()
		s.metrics.rejected()
		writeError(w, http.StatusTooManyRequests, "job queue full (%d pending)", s.cfg.QueueDepth)
		return
	}
	s.queued++
	s.jobs[id] = j
	s.order = append(s.order, id)
	s.mu.Unlock()
	s.metrics.submitted()
	writeJSON(w, http.StatusAccepted, j.status())
}

func (s *Server) job(r *http.Request) (*Job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[r.PathValue("id")]
	return j, ok
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	ids := append([]string(nil), s.order...)
	jobs := make([]*Job, 0, len(ids))
	for _, id := range ids {
		jobs = append(jobs, s.jobs[id])
	}
	s.mu.Unlock()
	out := make([]JobStatus, 0, len(jobs))
	for _, j := range jobs {
		st := j.status()
		st.Summaries, st.Table = nil, "" // listing stays light
		out = append(out, st)
	}
	writeJSON(w, http.StatusOK, out)
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	j, ok := s.job(r)
	if !ok {
		writeError(w, http.StatusNotFound, "unknown job %q", r.PathValue("id"))
		return
	}
	writeJSON(w, http.StatusOK, j.status())
}

// handleTable serves the finished job's summary table as plain text —
// the byte-identity oracle the CI smoke job diffs against
// cmd/experiments output without JSON unwrapping.
func (s *Server) handleTable(w http.ResponseWriter, r *http.Request) {
	j, ok := s.job(r)
	if !ok {
		writeError(w, http.StatusNotFound, "unknown job %q", r.PathValue("id"))
		return
	}
	st := j.status()
	if st.State != stateDone {
		writeError(w, http.StatusConflict, "job %s is %s, not done", j.ID, st.State)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprint(w, st.Table)
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	j, ok := s.job(r)
	if !ok {
		writeError(w, http.StatusNotFound, "unknown job %q", r.PathValue("id"))
		return
	}
	j.markCancelled() // queued → cancelled immediately
	j.mu.Lock()
	cancel := j.cancel
	j.mu.Unlock()
	if cancel != nil {
		cancel() // running → runner finishes it as cancelled
	}
	writeJSON(w, http.StatusOK, j.status())
}

// handleEvents streams the job's telemetry log from the beginning:
// NDJSON by default, Server-Sent Events when the client asks for
// text/event-stream. The stream follows appends until the job is
// terminal, then closes.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	j, ok := s.job(r)
	if !ok {
		writeError(w, http.StatusNotFound, "unknown job %q", r.PathValue("id"))
		return
	}
	sse := strings.Contains(r.Header.Get("Accept"), "text/event-stream")
	if sse {
		w.Header().Set("Content-Type", "text/event-stream")
		w.Header().Set("Cache-Control", "no-store")
	} else {
		w.Header().Set("Content-Type", "application/x-ndjson")
	}
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)

	// A dead client must not park this handler on the condition
	// variable forever: wake the waiters when the request context ends.
	stop := context.AfterFunc(r.Context(), j.wake)
	defer stop()

	next := 0
	for {
		evs, done := j.snapshotEvents(next)
		next += len(evs)
		for _, ev := range evs {
			line, err := json.Marshal(ev)
			if err != nil {
				return
			}
			if sse {
				fmt.Fprintf(w, "data: %s\n\n", line)
			} else {
				fmt.Fprintf(w, "%s\n", line)
			}
		}
		if flusher != nil {
			flusher.Flush()
		}
		if done && len(evs) == 0 {
			return
		}
		if r.Context().Err() != nil {
			return
		}
		if done {
			// Drain any events appended between snapshot and now, then
			// exit on the next empty read.
			continue
		}
	}
}
