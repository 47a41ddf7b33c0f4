package service

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"rapid/internal/disrupt"
	"rapid/internal/exp"
	"rapid/internal/scenario"
	"rapid/internal/trace"
)

// testServer boots a service plus an HTTP front end, both torn down
// with the test.
func testServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s := New(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
		defer cancel()
		if err := s.Drain(ctx); err != nil {
			t.Errorf("drain: %v", err)
		}
	})
	return s, ts
}

func submit(t *testing.T, ts *httptest.Server, spec string) JobStatus {
	t.Helper()
	st, code := submitCode(t, ts, spec)
	if code != http.StatusAccepted {
		t.Fatalf("submit %s: status %d", spec, code)
	}
	return st
}

func submitCode(t *testing.T, ts *httptest.Server, spec string) (JobStatus, int) {
	t.Helper()
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(spec))
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	defer resp.Body.Close()
	var st JobStatus
	if resp.StatusCode == http.StatusAccepted {
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			t.Fatalf("decode submit response: %v", err)
		}
	}
	return st, resp.StatusCode
}

func getStatus(t *testing.T, ts *httptest.Server, id string) JobStatus {
	t.Helper()
	resp, err := http.Get(ts.URL + "/v1/jobs/" + id)
	if err != nil {
		t.Fatalf("status: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %s: %d", id, resp.StatusCode)
	}
	var st JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatalf("decode status: %v", err)
	}
	return st
}

// waitTerminal polls until the job reaches a final state.
func waitTerminal(t *testing.T, ts *httptest.Server, id string) JobStatus {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		st := getStatus(t, ts, id)
		if terminal(st.State) {
			return st
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("job %s never reached a terminal state", id)
	return JobStatus{}
}

// smokeSpec is the fast single-arm family most tests submit: two
// scenarios, a few hundred milliseconds of work.
const smokeSpec = `{"family":"synth-exponential","scale":"tiny","protocols":["Random"]}`

func TestFamilyJobMatchesEngineOracle(t *testing.T) {
	_, ts := testServer(t, Config{})
	st := waitTerminal(t, ts, submit(t, ts, smokeSpec).ID)
	if st.State != stateDone {
		t.Fatalf("job state = %s (error %q), want done", st.State, st.Error)
	}
	if st.Completed != st.Scenarios || st.Scenarios == 0 {
		t.Fatalf("completed %d of %d scenarios", st.Completed, st.Scenarios)
	}

	// Oracle: the same expansion run on an independent engine must match
	// the job byte for byte — the service adds no execution semantics.
	var spec JobSpec
	if err := json.Unmarshal([]byte(smokeSpec), &spec); err != nil {
		t.Fatal(err)
	}
	scs, err := expandSpec(spec)
	if err != nil {
		t.Fatal(err)
	}
	oracle := exp.NewEngine(0, 0)
	sums := oracle.Summaries(scs)
	if !reflect.DeepEqual(st.Summaries, sums) {
		t.Errorf("job summaries diverge from direct engine run:\n got %+v\nwant %+v", st.Summaries, sums)
	}
	if want := exp.RenderFamilySummaryTable(scs, sums); st.Table != want {
		t.Errorf("job table diverges from direct render:\n got %q\nwant %q", st.Table, want)
	}

	// The plain-text table endpoint serves the same bytes.
	resp, err := http.Get(ts.URL + "/v1/jobs/" + st.ID + "/table")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if string(body) != st.Table {
		t.Errorf("table endpoint bytes differ from status table")
	}
}

func TestSingleScenarioJob(t *testing.T) {
	_, ts := testServer(t, Config{})
	spec := `{"scenario":{"Protocol":"Random","Run":0}}`
	// A raw scenario needs real geometry; reuse a family expansion
	// instead so the scenario is well formed end to end.
	var js JobSpec
	if err := json.Unmarshal([]byte(smokeSpec), &js); err != nil {
		t.Fatal(err)
	}
	scs, err := expandSpec(js)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := json.Marshal(JobSpec{Scenario: &scs[0]})
	if err != nil {
		t.Fatal(err)
	}
	spec = string(raw)
	st := waitTerminal(t, ts, submit(t, ts, spec).ID)
	if st.State != stateDone {
		t.Fatalf("state = %s (error %q)", st.State, st.Error)
	}
	if len(st.Summaries) != 1 {
		t.Fatalf("got %d summaries, want 1", len(st.Summaries))
	}
	if want := scs[0].Summary(); !reflect.DeepEqual(st.Summaries[0], want) {
		t.Errorf("single-scenario summary diverges:\n got %+v\nwant %+v", st.Summaries[0], want)
	}
}

// TestTelemetryStreamMatchesSummaries streams a telemetry job and
// checks the event log is coherent: ordered lifecycle markers, one
// scenario_done per scenario, per-packet generated counts agreeing
// exactly with the summaries, and summaries byte-identical to the
// cached (hook-free) path.
func TestTelemetryStreamMatchesSummaries(t *testing.T) {
	_, ts := testServer(t, Config{})
	spec := `{"family":"synth-exponential","scale":"tiny","protocols":["Random"],"telemetry":true}`
	id := submit(t, ts, spec).ID

	resp, err := http.Get(ts.URL + "/v1/jobs/" + id + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("events content-type = %q", ct)
	}
	var events []Event
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	for sc.Scan() {
		var ev Event
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
		}
		events = append(events, ev)
	}
	if err := sc.Err(); err != nil {
		t.Fatalf("stream read: %v", err)
	}
	if len(events) < 4 {
		t.Fatalf("only %d events", len(events))
	}
	if events[0].Type != "job_queued" {
		t.Errorf("first event %q, want job_queued", events[0].Type)
	}
	last := events[len(events)-1]
	if last.Type != "job_done" || last.State != stateDone {
		t.Fatalf("last event %+v, want job_done/done", last)
	}

	st := waitTerminal(t, ts, id)
	generated := map[int]int{}
	var scenarioDone int
	for _, ev := range events {
		switch ev.Type {
		case "generated":
			if ev.Scenario == nil {
				t.Fatalf("generated event without scenario index: %+v", ev)
			}
			generated[*ev.Scenario]++
		case "scenario_done":
			if ev.Summary == nil {
				t.Errorf("scenario_done %v without summary", ev.Scenario)
			}
			scenarioDone++
		}
	}
	if scenarioDone != st.Scenarios {
		t.Errorf("%d scenario_done events for %d scenarios", scenarioDone, st.Scenarios)
	}
	for i, sum := range st.Summaries {
		if generated[i] != sum.Generated {
			t.Errorf("scenario %d: %d generated events, summary says %d", i, generated[i], sum.Generated)
		}
	}

	// Hooks force the serial engine and bypass the summary cache; the
	// results must still be byte-identical to the cached path.
	plain := waitTerminal(t, ts, submit(t, ts, smokeSpec).ID)
	if plain.State != stateDone {
		t.Fatalf("plain job state %s", plain.State)
	}
	if st.Table != plain.Table {
		t.Errorf("telemetry and cached tables diverge:\n got %q\nwant %q", st.Table, plain.Table)
	}
}

func TestSSEFraming(t *testing.T) {
	_, ts := testServer(t, Config{})
	id := submit(t, ts, smokeSpec).ID
	req, _ := http.NewRequest("GET", ts.URL+"/v1/jobs/"+id+"/events", nil)
	req.Header.Set("Accept", "text/event-stream")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Errorf("content-type = %q", ct)
	}
	body, _ := io.ReadAll(resp.Body)
	for _, line := range bytes.Split(bytes.TrimSpace(body), []byte("\n\n")) {
		if !bytes.HasPrefix(line, []byte("data: ")) {
			t.Fatalf("SSE frame %q lacks data: prefix", line)
		}
	}
	if !bytes.Contains(body, []byte(`"job_done"`)) {
		t.Errorf("SSE stream ended without job_done")
	}
}

// TestConcurrentJobsDifferentRunWorkers exercises the instance-scoped
// worker plumbing under the race detector: concurrent submissions with
// different intra-run worker counts must produce identical tables.
func TestConcurrentJobsDifferentRunWorkers(t *testing.T) {
	_, ts := testServer(t, Config{MaxConcurrentJobs: 3})
	workers := []int{1, 2, 8}
	ids := make([]string, len(workers))
	var wg sync.WaitGroup
	for i, w := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			spec := fmt.Sprintf(`{"family":"synth-exponential","scale":"tiny","protocols":["Random"],"run_workers":%d}`, w)
			ids[i] = submit(t, ts, spec).ID
		}()
	}
	wg.Wait()
	tables := make([]string, len(ids))
	for i, id := range ids {
		st := waitTerminal(t, ts, id)
		if st.State != stateDone {
			t.Fatalf("job %s (run_workers=%d) state %s: %s", id, workers[i], st.State, st.Error)
		}
		tables[i] = st.Table
	}
	for i := 1; i < len(tables); i++ {
		if tables[i] != tables[0] {
			t.Errorf("run_workers=%d table differs from run_workers=%d", workers[i], workers[0])
		}
	}
}

func TestCancelQueuedJob(t *testing.T) {
	_, ts := testServer(t, Config{MaxConcurrentJobs: 1})
	// Occupy the single runner long enough to cancel the job behind it.
	blocker := submit(t, ts, `{"family":"synth-exponential","scale":"tiny"}`)
	victim := submit(t, ts, smokeSpec)

	req, _ := http.NewRequest("DELETE", ts.URL+"/v1/jobs/"+victim.ID, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	st := waitTerminal(t, ts, victim.ID)
	if st.State != stateCancelled {
		t.Fatalf("victim state %s, want cancelled", st.State)
	}
	if bs := waitTerminal(t, ts, blocker.ID); bs.State != stateDone {
		t.Fatalf("blocker state %s, want done", bs.State)
	}
}

func TestCancelRunningJob(t *testing.T) {
	_, ts := testServer(t, Config{MaxConcurrentJobs: 1})
	// Plenty of scenarios: cancellation granularity is one scenario run,
	// so the job must outlive the DELETE round-trip.
	id := submit(t, ts, `{"family":"synth-exponential","scale":"tiny","protocols":["Random"],"reps":100}`).ID
	deadline := time.Now().Add(30 * time.Second)
	for getStatus(t, ts, id).State == stateQueued {
		if time.Now().After(deadline) {
			t.Fatal("job never started")
		}
		time.Sleep(5 * time.Millisecond)
	}
	req, _ := http.NewRequest("DELETE", ts.URL+"/v1/jobs/"+id, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	st := waitTerminal(t, ts, id)
	if st.State != stateCancelled {
		t.Fatalf("state %s, want cancelled (completed %d/%d)", st.State, st.Completed, st.Scenarios)
	}
	if st.Completed >= st.Scenarios {
		t.Errorf("cancelled job completed all %d scenarios", st.Scenarios)
	}
}

// TestEventZeroValuesSerialize pins the telemetry wire format: a
// generated event for packet 0, created at t=0 by node 0, inside
// scenario 0 must carry every one of those zero-valued fields on the
// NDJSON line. With value fields under omitempty (the old encoding)
// they all vanished.
func TestEventZeroValuesSerialize(t *testing.T) {
	ev := Event{Type: "generated", Scenario: ptr(0), T: ptr(0.0),
		Packet: ptr(int64(0)), Src: ptr(0), Dst: ptr(3)}
	line, err := json.Marshal(ev)
	if err != nil {
		t.Fatal(err)
	}
	var decoded map[string]any
	if err := json.Unmarshal(line, &decoded); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"scenario", "t", "packet", "src", "dst"} {
		if _, present := decoded[key]; !present {
			t.Errorf("key %q missing from %s", key, line)
		}
	}
	for key, want := range map[string]float64{"scenario": 0, "t": 0, "packet": 0, "src": 0, "dst": 3} {
		if got, ok := decoded[key].(float64); !ok || got != want {
			t.Errorf("%s = %v, want %v", key, decoded[key], want)
		}
	}
	// Fields irrelevant to the event type stay off the wire.
	for _, key := range []string{"load", "run", "capacity", "spent"} {
		if _, present := decoded[key]; present {
			t.Errorf("irrelevant key %q serialized in %s", key, line)
		}
	}
}

// TestCancelInSetRunningWindow reproduces the lost-cancel race: the
// DELETE lands after the runner's setRunning but before runJob installs
// the cancel func. The request must be recorded (not dropped), and
// runJob must finish the job as cancelled without executing it.
func TestCancelInSetRunningWindow(t *testing.T) {
	s := New(Config{})
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := s.Drain(ctx); err != nil {
			t.Errorf("drain: %v", err)
		}
	}()
	var spec JobSpec
	if err := json.Unmarshal([]byte(smokeSpec), &spec); err != nil {
		t.Fatal(err)
	}
	scs, err := expandSpec(spec)
	if err != nil {
		t.Fatal(err)
	}
	// Drive the runner's steps by hand around a concurrent DELETE: the
	// job never enters the queue, so only this test touches it.
	j := newJob("job-race", spec, scs)
	if !j.setRunning() {
		t.Fatal("setRunning failed on a queued job")
	}
	deleted := make(chan struct{})
	go func() {
		defer close(deleted)
		// handleCancel's core, in the vulnerable window.
		j.markCancelled()
		j.mu.Lock()
		cancel := j.cancel
		j.mu.Unlock()
		if cancel != nil {
			cancel()
		}
	}()
	<-deleted
	s.runJob(j)
	if st := j.status(); st.State != stateCancelled {
		t.Fatalf("state %s after cancel-before-install, want cancelled (completed %d)", st.State, st.Completed)
	}
}

func TestQueueFullRejects(t *testing.T) {
	_, ts := testServer(t, Config{MaxConcurrentJobs: 1, QueueDepth: 1})
	running := submit(t, ts, `{"family":"synth-exponential","scale":"tiny","protocols":["Random"],"reps":50}`)
	deadline := time.Now().Add(30 * time.Second)
	for getStatus(t, ts, running.ID).State == stateQueued {
		if time.Now().After(deadline) {
			t.Fatal("blocker never started")
		}
		time.Sleep(5 * time.Millisecond)
	}
	queued := submit(t, ts, smokeSpec) // fills the depth-1 queue
	if _, code := submitCode(t, ts, smokeSpec); code != http.StatusTooManyRequests {
		t.Errorf("overflow submit status %d, want 429", code)
	}
	// Unblock teardown quickly.
	for _, id := range []string{running.ID, queued.ID} {
		req, _ := http.NewRequest("DELETE", ts.URL+"/v1/jobs/"+id, nil)
		if resp, err := http.DefaultClient.Do(req); err == nil {
			resp.Body.Close()
		}
	}
}

// TestBadDisruptionRejected: a raw scenario whose disruption spec the
// model rejects is a bad request at submit, not a job that panics when
// it runs.
func TestBadDisruptionRejected(t *testing.T) {
	_, ts := testServer(t, Config{})
	for _, d := range []disrupt.Spec{
		{Enabled: true, PLoss: 2},
		{Enabled: true, ChurnDownMean: 10},
	} {
		sc := smokeScenario(t)
		sc.Disruption = d
		if code := submitScenarioCode(t, ts, sc); code != http.StatusBadRequest {
			t.Errorf("disruption %+v: status %d, want 400", d, code)
		}
	}
}

// smokeScenario is the first scenario of smokeSpec's expansion: a
// valid synthetic-exponential run for the rejection tests to break.
func smokeScenario(t *testing.T) scenario.Scenario {
	t.Helper()
	var js JobSpec
	if err := json.Unmarshal([]byte(smokeSpec), &js); err != nil {
		t.Fatal(err)
	}
	scs, err := expandSpec(js)
	if err != nil {
		t.Fatal(err)
	}
	return scs[0]
}

// submitScenarioCode submits sc as a raw-scenario job and returns the
// HTTP status.
func submitScenarioCode(t *testing.T, ts *httptest.Server, sc scenario.Scenario) int {
	t.Helper()
	raw, err := json.Marshal(JobSpec{Scenario: &sc})
	if err != nil {
		t.Fatal(err)
	}
	_, code := submitCode(t, ts, string(raw))
	return code
}

// TestBadSyntheticScheduleRejected: a synthetic schedule outside the
// mobility models' domain is a bad request at submit, one subtest per
// field. A zero mean inter-meeting time would otherwise draw meetings
// without bound instead of failing.
func TestBadSyntheticScheduleRejected(t *testing.T) {
	_, ts := testServer(t, Config{})
	for _, c := range []struct {
		name   string
		mutate func(*scenario.ScheduleSpec)
	}{
		{"one-node", func(ss *scenario.ScheduleSpec) { ss.Nodes = 1 }},
		{"zero-duration", func(ss *scenario.ScheduleSpec) { ss.Duration = 0 }},
		{"zero-mean-meeting", func(ss *scenario.ScheduleSpec) { ss.MeanMeeting = 0 }},
		{"zero-transfer-bytes", func(ss *scenario.ScheduleSpec) { ss.TransferBytes = 0 }},
	} {
		t.Run(c.name, func(t *testing.T) {
			sc := smokeScenario(t)
			c.mutate(&sc.Schedule)
			if code := submitScenarioCode(t, ts, sc); code != http.StatusBadRequest {
				t.Errorf("status %d, want 400", code)
			}
		})
	}
}

// TestBadRawScenarioRejected: a raw scenario that Materialize panics on
// is a bad request at submit, one subtest per kind of bad geometry or
// workload.
func TestBadRawScenarioRejected(t *testing.T) {
	_, ts := testServer(t, Config{})
	diesel := func(fleet, active int) func(*scenario.Scenario) {
		return func(sc *scenario.Scenario) {
			sc.Schedule.Source = scenario.SourceDieselNet
			sc.Schedule.Diesel = trace.DefaultDieselNet()
			sc.Schedule.Diesel.Fleet, sc.Schedule.Diesel.ActivePerDay = fleet, active
		}
	}
	windowed := func(islWindow, islRate, groundRate float64) func(*scenario.Scenario) {
		return func(sc *scenario.Scenario) {
			sc.Schedule = scenario.ScheduleSpec{
				Source: scenario.SourceConstellation, Planes: 2, SatsPerPlane: 4, Ground: 1,
				OrbitPeriod: 300, Duration: 300, PassWindow: 30,
				ISLWindow: islWindow, ISLRateBps: islRate, GroundRateBps: groundRate,
			}
		}
	}
	streaming := func(shape scenario.Shape, nodes int) func(*scenario.Scenario) {
		return func(sc *scenario.Scenario) {
			sc.Workload.Streaming, sc.Workload.Shape, sc.Workload.NodeCount = true, shape, nodes
		}
	}
	for _, c := range []struct {
		name   string
		mutate func(*scenario.Scenario)
	}{
		{"diesel-fleet-of-one", diesel(1, 1)},
		{"diesel-active-below-two", diesel(10, 1)},
		{"diesel-active-above-fleet", diesel(10, 11)},
		{"windowed-without-isl-window", windowed(0, 1e6, 1e6)},
		{"windowed-without-isl-rate", windowed(10, 0, 1e6)},
		{"windowed-without-ground-rate", windowed(10, 1e6, 0)},
		{"streaming-on-off", streaming(scenario.ShapeOnOff, 4)},
		{"streaming-without-node-count", streaming(scenario.ShapePoisson, 0)},
	} {
		t.Run(c.name, func(t *testing.T) {
			sc := smokeScenario(t)
			c.mutate(&sc)
			if !panics(func() { sc.Materialize() }) {
				t.Fatal("Materialize does not panic on this scenario; the case tests nothing")
			}
			if code := submitScenarioCode(t, ts, sc); code != http.StatusBadRequest {
				t.Errorf("status %d, want 400", code)
			}
		})
	}
}

func panics(f func()) (did bool) {
	defer func() { did = recover() != nil }()
	f()
	return false
}

func TestBadSpecsRejected(t *testing.T) {
	_, ts := testServer(t, Config{})
	for _, spec := range []string{
		`{`,
		`{}`,
		`{"family":"no-such-family"}`,
		`{"family":"synth-exponential","scale":"huge"}`,
		`{"family":"synth-exponential","protocols":["NotAProtocol"]}`,
		`{"family":"synth-exponential","bogus_field":1}`,
		`{"family":"synth-exponential","scenario":{}}`,
	} {
		if _, code := submitCode(t, ts, spec); code != http.StatusBadRequest {
			t.Errorf("spec %s: status %d, want 400", spec, code)
		}
	}
}

func TestNegativeRepsRejected(t *testing.T) {
	_, ts := testServer(t, Config{})
	if _, code := submitCode(t, ts, `{"family":"synth-exponential","reps":-1}`); code != http.StatusBadRequest {
		t.Errorf("negative reps: status %d, want 400", code)
	}
}

// TestOversizedJobRejected: a job that would expand past
// maxScenariosPerJob — by reps or by a repeated protocol list — is
// refused before its grid is built.
func TestOversizedJobRejected(t *testing.T) {
	_, ts := testServer(t, Config{})
	arms := strings.Repeat(`"Random",`, 50_000) + `"Random"`
	for _, spec := range []string{
		`{"family":"trace-comparison","reps":100000}`,
		`{"family":"trace-comparison","reps":2000000}`,
		`{"family":"trace-comparison","scale":"full","reps":11}`,
		`{"family":"synth-exponential","reps":9223372036854775807}`,
		`{"family":"synth-exponential","protocols":[` + arms + `]}`,
	} {
		if _, code := submitCode(t, ts, spec); code != http.StatusBadRequest {
			t.Errorf("spec %.80s: status %d, want 400", spec, code)
		}
	}
}

// TestEveryFamilyUnderJobCap: every registered family, at every scale
// with that scale's own runs, is accepted and stays under
// maxScenariosPerJob.
func TestEveryFamilyUnderJobCap(t *testing.T) {
	largest := 0
	for _, f := range scenario.Families() {
		for _, scale := range []string{"tiny", "default", "full"} {
			scs, err := expandSpec(JobSpec{Family: f.Name, Scale: scale})
			if err != nil {
				t.Errorf("%s at %s: %v", f.Name, scale, err)
				continue
			}
			if len(scs) > maxScenariosPerJob {
				t.Errorf("%s at %s: %d scenarios, cap %d", f.Name, scale, len(scs), maxScenariosPerJob)
			}
			largest = max(largest, len(scs))
		}
	}
	t.Logf("largest family job: %d scenarios (cap %d)", largest, maxScenariosPerJob)
}

func TestFamiliesHealthzAndList(t *testing.T) {
	_, ts := testServer(t, Config{})
	resp, err := http.Get(ts.URL + "/v1/families")
	if err != nil {
		t.Fatal(err)
	}
	var fams []struct{ Name, Doc string }
	if err := json.NewDecoder(resp.Body).Decode(&fams); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	found := false
	for _, f := range fams {
		if f.Name == "synth-exponential" {
			found = true
		}
	}
	if !found {
		t.Errorf("families listing missing synth-exponential (%d entries)", len(fams))
	}

	resp, err = http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("healthz = %d", resp.StatusCode)
	}

	id := submit(t, ts, smokeSpec).ID
	waitTerminal(t, ts, id)
	resp, err = http.Get(ts.URL + "/v1/jobs")
	if err != nil {
		t.Fatal(err)
	}
	var list []JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&list); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(list) != 1 || list[0].ID != id {
		t.Errorf("listing = %+v, want one entry %s", list, id)
	}
	if list[0].Table != "" || list[0].Summaries != nil {
		t.Errorf("listing carries heavy results")
	}
}

func TestDrainRejectsAndHealthzFlips(t *testing.T) {
	s := New(Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	if err := s.Drain(ctx); err != nil {
		t.Fatalf("second drain: %v", err)
	}
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("healthz after drain = %d, want 503", resp.StatusCode)
	}
	if _, code := submitCode(t, ts, smokeSpec); code != http.StatusServiceUnavailable {
		t.Errorf("submit after drain = %d, want 503", code)
	}
}

// TestMetricsExposition scrapes /metrics after real work and checks the
// hand-rolled Prometheus text format: typed headers, counted jobs,
// cache traffic and a coherent histogram.
func TestMetricsExposition(t *testing.T) {
	_, ts := testServer(t, Config{})
	waitTerminal(t, ts, submit(t, ts, smokeSpec).ID)
	waitTerminal(t, ts, submit(t, ts, smokeSpec).ID) // second run: pure cache hits

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("metrics content-type = %q", ct)
	}
	body, _ := io.ReadAll(resp.Body)
	text := string(body)

	for _, series := range []string{
		"simd_jobs_total", "simd_jobs_submitted_total", "simd_jobs_rejected_total",
		"simd_jobs_running", "simd_jobs_queued", "simd_scenarios_run_total",
		"simd_events_executed_total", "simd_engine_cache_hits_total",
		"simd_engine_cache_misses_total", "simd_engine_cache_entries",
		"simd_run_duration_seconds",
	} {
		if !strings.Contains(text, "# TYPE "+series+" ") {
			t.Errorf("missing # TYPE for %s", series)
		}
	}

	value := func(name string) float64 {
		for _, line := range strings.Split(text, "\n") {
			if strings.HasPrefix(line, name+" ") {
				v, err := strconv.ParseFloat(strings.TrimPrefix(line, name+" "), 64)
				if err != nil {
					t.Fatalf("bad value line %q: %v", line, err)
				}
				return v
			}
		}
		t.Fatalf("series %s not found", name)
		return 0
	}
	if v := value("simd_jobs_submitted_total"); v != 2 {
		t.Errorf("jobs_submitted = %v, want 2", v)
	}
	if v := value(`simd_jobs_total{state="done"}`); v != 2 {
		t.Errorf("jobs_total{done} = %v, want 2", v)
	}
	if v := value("simd_jobs_running") + value("simd_jobs_queued"); v != 0 {
		t.Errorf("running+queued = %v after quiesce", v)
	}
	if hits := value("simd_engine_cache_hits_total"); hits < 2 {
		t.Errorf("cache hits = %v, want >= 2 (second job re-used the first)", hits)
	}
	if misses := value("simd_engine_cache_misses_total"); misses < 2 {
		t.Errorf("cache misses = %v, want >= 2", misses)
	}
	if v := value("simd_run_duration_seconds_count"); v != 2 {
		t.Errorf("histogram count = %v, want 2", v)
	}

	// Histogram buckets must be cumulative and capped by +Inf == count.
	prev := -1.0
	for _, line := range strings.Split(text, "\n") {
		if !strings.HasPrefix(line, "simd_run_duration_seconds_bucket") {
			continue
		}
		f := strings.Fields(line)
		v, err := strconv.ParseFloat(f[len(f)-1], 64)
		if err != nil {
			t.Fatalf("bad bucket line %q", line)
		}
		if v < prev {
			t.Fatalf("non-monotonic histogram at %q", line)
		}
		prev = v
	}
	if prev != value("simd_run_duration_seconds_count") {
		t.Errorf("+Inf bucket %v != count", prev)
	}
}

// TestJobScaleNames: a family job naming no scale runs at tiny, and an
// unknown scale is rejected.
func TestJobScaleNames(t *testing.T) {
	implicit, err := expandSpec(JobSpec{Family: "synth-exponential"})
	if err != nil {
		t.Fatal(err)
	}
	tiny, err := expandSpec(JobSpec{Family: "synth-exponential", Scale: "tiny"})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(implicit, tiny) {
		t.Error("a job with no scale does not run the tiny grid")
	}
	if _, err := expandSpec(JobSpec{Family: "synth-exponential", Scale: "huge"}); err == nil {
		t.Error("unknown scale accepted")
	}
}
