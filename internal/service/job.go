package service

import (
	"cmp"
	"context"
	"fmt"
	"sync"
	"time"

	"rapid/internal/exp"
	"rapid/internal/metrics"
	"rapid/internal/scenario"
)

// Job states. A job is terminal in exactly one of done/failed/cancelled.
const (
	stateQueued    = "queued"
	stateRunning   = "running"
	stateDone      = "done"
	stateFailed    = "failed"
	stateCancelled = "cancelled"
)

// JobSpec is the POST /v1/jobs payload: either a registered scenario
// family expanded at a named scale, or a single raw scenario.Scenario.
type JobSpec struct {
	// Family names a registered scenario family (GET /v1/families).
	Family string `json:"family,omitempty"`
	// Scale selects the grid size: tiny (default), default, or full.
	Scale string `json:"scale,omitempty"`
	// Reps overrides the scale's replications per grid point.
	Reps int `json:"reps,omitempty"`
	// Protocols restricts the family's protocol arms.
	Protocols []string `json:"protocols,omitempty"`
	// RunWorkers pins the intra-run event-engine worker count for every
	// scenario of this job that did not pin its own — instance-scoped;
	// output is byte-identical at any setting.
	RunWorkers int `json:"run_workers,omitempty"`
	// Telemetry streams per-packet events (generated, delivered, lost,
	// opportunities) on GET /v1/jobs/{id}/events. Telemetry runs attach
	// routing.Hooks, which forces the serial intra-run engine and
	// bypasses the summary cache; summaries are byte-identical either
	// way.
	Telemetry bool `json:"telemetry,omitempty"`
	// Scenario, when non-nil, submits a single scenario instead of a
	// family.
	Scenario *scenario.Scenario `json:"scenario,omitempty"`
}

// Event is one line of a job's telemetry stream, serialized as NDJSON
// (or an SSE data payload). Fields are omitted when irrelevant to the
// event type — presence is encoded by the pointer, not the value,
// because scenario index 0, run 0, node 0, packet 0 and t=0 are all
// semantically valid and must still reach the wire.
type Event struct {
	// Type is one of: job_queued, job_started, scenario_start,
	// generated, delivered, lost, opportunity, scenario_done, truncated,
	// job_done.
	Type string `json:"type"`
	// Scenario is the index of the scenario within the job.
	Scenario *int `json:"scenario,omitempty"`
	// Protocol/Load/Run identify the grid point for scenario_* events.
	Protocol string   `json:"protocol,omitempty"`
	Load     *float64 `json:"load,omitempty"`
	Run      *int     `json:"run,omitempty"`
	// T is simulation time (seconds) for per-packet events.
	T *float64 `json:"t,omitempty"`
	// Packet/Src/Dst describe the packet for generated/delivered/lost.
	Packet *int64 `json:"packet,omitempty"`
	Src    *int   `json:"src,omitempty"`
	Dst    *int   `json:"dst,omitempty"`
	// Capacity/Spent are opportunity byte budgets.
	Capacity *int64 `json:"capacity,omitempty"`
	Spent    *int64 `json:"spent,omitempty"`
	// Summary carries the reduced metrics for scenario_done.
	Summary *metrics.Summary `json:"summary,omitempty"`
	// State/Error report the terminal state for job_done.
	State string `json:"state,omitempty"`
	Error string `json:"error,omitempty"`
	// Dropped counts events discarded after the per-job cap, reported
	// on the truncated event.
	Dropped int `json:"dropped,omitempty"`
}

// ptr boxes a value for Event's presence-by-pointer fields.
func ptr[T any](v T) *T { return &v }

// Job is one submission: its expanded scenarios, its state machine and
// its telemetry log. Subscribers replay the log from the start and
// follow appends via the condition variable until the job is terminal.
type Job struct {
	ID   string
	Spec JobSpec

	scs []scenario.Scenario

	mu     sync.Mutex
	cancel context.CancelFunc
	// cancelRequested records a DELETE that landed before runJob
	// installed the cancel func — the window between the runner's
	// setRunning and the context construction. runJob checks it under
	// the same lock that installs cancel, so the request is never lost.
	cancelRequested bool
	cond            *sync.Cond
	state           string
	err             string
	completed       int
	sums            []metrics.Summary
	table           string
	events          []Event
	dropped         int
	submitted       time.Time
	started         time.Time
	finished        time.Time
}

func newJob(id string, spec JobSpec, scs []scenario.Scenario) *Job {
	j := &Job{ID: id, Spec: spec, scs: scs, state: stateQueued,
		submitted: time.Now()} //rapidlint:allow nondeterminism — wall-clock job timestamp for operators; never feeds simulation state
	j.cond = sync.NewCond(&j.mu)
	j.append(Event{Type: "job_queued"})
	return j
}

// append adds one event to the log (bounded by maxEventsPerJob) and
// wakes streamers. Terminal job_done events always append.
func (j *Job) append(ev Event) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.appendLocked(ev)
}

func (j *Job) appendLocked(ev Event) {
	if len(j.events) >= maxEventsPerJob && ev.Type != "job_done" {
		if j.dropped == 0 {
			j.events = append(j.events, Event{Type: "truncated"})
		}
		j.dropped++
		return
	}
	if ev.Type == "job_done" && j.dropped > 0 {
		// Patch the truncation marker with the final count before the
		// terminal event, so consumers see how much they missed.
		for i := range j.events {
			if j.events[i].Type == "truncated" {
				j.events[i].Dropped = j.dropped
				break
			}
		}
	}
	j.events = append(j.events, ev)
	j.cond.Broadcast()
}

// maxEventsPerJob bounds a job's telemetry log; beyond it events are
// counted, not stored. Tiny families emit a few thousand events; the
// cap protects the server from a full-scale telemetry job.
const maxEventsPerJob = 200_000

// terminal reports whether the job reached a final state.
func terminal(state string) bool {
	return state == stateDone || state == stateFailed || state == stateCancelled
}

// setRunning transitions queued→running; it returns false when the job
// was cancelled while queued.
func (j *Job) setRunning() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state != stateQueued {
		return false
	}
	j.state = stateRunning
	j.started = time.Now() //rapidlint:allow nondeterminism — wall-clock job timestamp for operators; never feeds simulation state
	j.appendLocked(Event{Type: "job_started"})
	return true
}

// finish records the terminal state, results and the job_done event.
func (j *Job) finish(state, errMsg string, sums []metrics.Summary, table string) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if terminal(j.state) {
		return
	}
	j.state = state
	j.err = errMsg
	j.sums = sums
	j.table = table
	j.finished = time.Now() //rapidlint:allow nondeterminism — wall-clock job timestamp for operators; never feeds simulation state
	j.appendLocked(Event{Type: "job_done", State: state, Error: errMsg})
}

// markCancelled flips a queued job straight to cancelled (the runner
// skips it); running jobs are cancelled via their context and finish
// through the runner. The cancel request is always recorded first, so
// a DELETE landing after setRunning but before runJob installs the
// cancel func still takes effect instead of silently returning 200.
func (j *Job) markCancelled() {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.cancelRequested = true
	if terminal(j.state) || j.state == stateRunning {
		return
	}
	j.state = stateCancelled
	j.finished = time.Now() //rapidlint:allow nondeterminism — wall-clock job timestamp for operators; never feeds simulation state
	j.appendLocked(Event{Type: "job_done", State: stateCancelled})
}

// runSeconds is the job's wall-clock run duration for the histogram.
func (j *Job) runSeconds() float64 {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.started.IsZero() || j.finished.IsZero() {
		return 0
	}
	return j.finished.Sub(j.started).Seconds()
}

// JobStatus is the GET /v1/jobs/{id} body.
type JobStatus struct {
	ID        string  `json:"id"`
	State     string  `json:"state"`
	Error     string  `json:"error,omitempty"`
	Family    string  `json:"family,omitempty"`
	Scale     string  `json:"scale,omitempty"`
	Telemetry bool    `json:"telemetry,omitempty"`
	Scenarios int     `json:"scenarios"`
	Completed int     `json:"completed"`
	Events    int     `json:"events"`
	Dropped   int     `json:"dropped,omitempty"`
	Submitted string  `json:"submitted,omitempty"`
	RunSecs   float64 `json:"run_seconds,omitempty"`
	// Summaries holds one reduced summary per scenario once done.
	Summaries []metrics.Summary `json:"summaries,omitempty"`
	// Table is the rendered family summary table — byte-identical to
	// the cmd/experiments -family output for the same scenarios.
	Table string `json:"table,omitempty"`
}

func (j *Job) status() JobStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	st := JobStatus{
		ID: j.ID, State: j.state, Error: j.err,
		Family: j.Spec.Family, Scale: j.Spec.Scale, Telemetry: j.Spec.Telemetry,
		Scenarios: len(j.scs), Completed: j.completed,
		Events: len(j.events), Dropped: j.dropped,
		Submitted: j.submitted.UTC().Format(time.RFC3339Nano),
	}
	if !j.started.IsZero() && !j.finished.IsZero() {
		st.RunSecs = j.finished.Sub(j.started).Seconds()
	}
	if j.state == stateDone {
		st.Summaries = j.sums
		st.Table = j.table
	}
	return st
}

// snapshotEvents returns events[from:] under the lock plus whether the
// job is terminal; streamers loop on it via the condition variable.
func (j *Job) snapshotEvents(from int) ([]Event, bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	for from >= len(j.events) && !terminal(j.state) {
		j.cond.Wait()
	}
	evs := make([]Event, len(j.events)-from)
	copy(evs, j.events[from:])
	return evs, terminal(j.state)
}

// wake kicks every streamer so it can re-check terminal state (used
// when a stream's client context dies, via time.AfterFunc polling is
// avoided by broadcasting on every state change — finish/markCancelled
// already broadcast through appendLocked).
func (j *Job) wake() {
	j.mu.Lock()
	j.cond.Broadcast()
	j.mu.Unlock()
}

// expandSpec validates a spec and expands it into its scenario list.
func expandSpec(spec JobSpec) ([]scenario.Scenario, error) {
	if (spec.Family == "") == (spec.Scenario == nil) {
		return nil, fmt.Errorf("exactly one of family or scenario must be set")
	}
	if spec.Scenario != nil {
		sc := *spec.Scenario
		if spec.RunWorkers != 0 && sc.Config.Workers == 0 {
			sc.Config.Workers = spec.RunWorkers
		}
		if err := validateProto(sc.Protocol); err != nil {
			return nil, err
		}
		// Materialize and routing.Run panic on specs outside their
		// domain; reject them here, where they are still a bad request.
		if err := sc.Validate(); err != nil {
			return nil, err
		}
		return []scenario.Scenario{sc}, nil
	}
	if spec.Reps < 0 {
		return nil, fmt.Errorf("reps %d is negative", spec.Reps)
	}
	// A service opts in to heavy grids explicitly: no scale is tiny.
	sc, err := exp.ScaleByName(cmp.Or(spec.Scale, "tiny"))
	if err != nil {
		return nil, err
	}
	params := exp.FamilyParams(spec.Family, sc)
	if spec.Reps > 0 {
		params.Runs = spec.Reps
	}
	if len(spec.Protocols) > 0 {
		params.Protocols = params.Protocols[:0]
		for _, p := range spec.Protocols {
			proto := scenario.Proto(p)
			if perr := validateProto(proto); perr != nil {
				return nil, perr
			}
			params.Protocols = append(params.Protocols, proto)
		}
	}
	if err = checkJobSize(spec.Family, params); err != nil {
		return nil, err
	}
	scs, err := scenario.Expand(spec.Family, params)
	if err != nil {
		return nil, err
	}
	if len(scs) == 0 {
		return nil, fmt.Errorf("family %q expanded to zero scenarios", spec.Family)
	}
	if spec.RunWorkers != 0 {
		for i := range scs {
			if scs[i].Config.Workers == 0 {
				scs[i].Config.Workers = spec.RunWorkers
			}
		}
	}
	return scs, nil
}

// maxScenariosPerJob caps the scenarios one family job may expand to.
// The largest job a registered family asks for, trace-comparison at
// full scale with its own runs, expands to 27,840.
const maxScenariosPerJob = 30_000

// checkJobSize rejects a family job that would expand past
// maxScenariosPerJob, before the full grid allocates. Every family's
// grid is a cross product with one factor per protocol arm and one per
// run, so expanding a single arm at a single run and scaling by the rest
// sizes the job exactly; deployment, which ignores both, is overcounted,
// so the check errs on the side of rejecting.
func checkJobSize(family string, p scenario.Params) error {
	probe, arms := p, 1
	probe.Runs = 1
	if len(p.Protocols) > 0 {
		probe.Protocols, arms = p.Protocols[:1], len(p.Protocols)
	}
	base, err := scenario.Expand(family, probe)
	if err != nil {
		return err
	}
	if per := len(base) * arms; per > 0 && p.Runs > maxScenariosPerJob/per {
		return fmt.Errorf("family %q at %d runs expands to more than %d scenarios", family, p.Runs, maxScenariosPerJob)
	}
	return nil
}

// validateProto rejects protocol names without a registered arm before
// they can panic inside a run.
func validateProto(p scenario.Proto) error {
	if p == "" {
		return fmt.Errorf("missing protocol")
	}
	for _, known := range scenario.AllProtos() {
		if p == known {
			return nil
		}
	}
	return fmt.Errorf("unknown protocol %q", p)
}
