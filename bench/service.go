package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	rmetrics "rapid/internal/metrics"
	"rapid/internal/scenario"
	"rapid/internal/service"
)

// The simd-mixed workload drives an in-process simulation service over
// loopback HTTP as one user would: a single client goroutine on one
// keep-alive connection sends jobs on an open-loop schedule — due times
// are fixed in advance, so a stalled service makes later jobs wait
// longer rather than arrive later — and polls their status. Latency is
// timed from each job's due time.

const (
	// jobRate is the open loop's send rate in jobs per second. It keeps
	// the single runner roughly a third busy on the reference machine.
	jobRate = 8
	// pollEvery is the status polling interval.
	pollEvery = 5 * time.Millisecond
	// jobPattern is the job mix of every block of ten: M a fresh
	// scenario (cache miss), H a repeat of the completed warm-up
	// scenario (cache hit), T a telemetry run of the warm-up scenario
	// with run_workers 2, whose event log is fetched once it is done.
	jobPattern = "MHMTMHMTMH"
	// seedStride spaces the Run indices of different seeds.
	seedStride = 100000
	// serviceSetups is how many times the service is started.
	serviceSetups = 5
)

// serviceScenario is the tiny single-scenario job of the service
// workload: a 44-node constellation over one 300 s orbit.
func serviceScenario(run int) scenario.Scenario {
	p := scenario.Params{Loads: []float64{8}, Planes: 5, SatsPerPlane: 8, Ground: 4,
		OrbitPeriod: 300, Duration: 300, Protocols: []scenario.Proto{scenario.ProtoRapid}}
	return atRun(expandOne("constellation-ground", p), run)
}

// simd is one running service with its loopback client.
type simd struct {
	srv    *service.Server
	ts     *httptest.Server
	client *http.Client
}

func startSimd() *simd {
	srv := service.New(service.Config{MaxConcurrentJobs: 1, EngineWorkers: 1})
	ts := httptest.NewServer(srv.Handler())
	client := &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}}
	return &simd{srv: srv, ts: ts, client: client}
}

func (s *simd) stop() {
	s.client.CloseIdleConnections()
	s.ts.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_ = s.srv.Drain(ctx) // a drain timeout leaves only this process's goroutines behind
}

// do sends one request and reads the whole body, so the connection is
// reused.
func (s *simd) do(method, path string, body []byte) (int, []byte, error) {
	req, err := http.NewRequest(method, s.ts.URL+path, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	resp, err := s.client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, err
}

// jobStatus is the part of GET /v1/jobs/{id} the workload reads.
type jobStatus struct {
	ID        string          `json:"id"`
	State     string          `json:"state"`
	Error     string          `json:"error"`
	RunSecs   float64         `json:"run_seconds"`
	Summaries json.RawMessage `json:"summaries"`
}

func (s *simd) submit(spec service.JobSpec) (jobStatus, error) {
	body, err := json.Marshal(spec)
	if err != nil {
		return jobStatus{}, err
	}
	code, b, err := s.do(http.MethodPost, "/v1/jobs", body)
	if err != nil {
		return jobStatus{}, err
	}
	if code != http.StatusAccepted {
		return jobStatus{}, fmt.Errorf("submit: HTTP %d: %s", code, bytes.TrimSpace(b))
	}
	var st jobStatus
	return st, json.Unmarshal(b, &st)
}

func (s *simd) status(id string) (jobStatus, error) {
	code, b, err := s.do(http.MethodGet, "/v1/jobs/"+id, nil)
	if err != nil {
		return jobStatus{}, err
	}
	if code != http.StatusOK {
		return jobStatus{}, fmt.Errorf("status %s: HTTP %d", id, code)
	}
	var st jobStatus
	return st, json.Unmarshal(b, &st)
}

// terminal reports whether a job state is final.
func terminal(state string) bool {
	return state == "done" || state == "failed" || state == "cancelled"
}

// wait polls a job every millisecond until it is terminal, so the
// set-up it closes is timed finely.
func (s *simd) wait(id string) (jobStatus, error) {
	for {
		st, err := s.status(id)
		if err != nil || terminal(st.State) {
			return st, err
		}
		time.Sleep(time.Millisecond) //rapidlint:allow nondeterminism — benchmark polling interval; never feeds simulation state
	}
}

// checkEvents fetches a finished telemetry job's NDJSON log and checks
// it: one generated event per generated packet, ending in job_done.
func (s *simd) checkEvents(id string, generated int) error {
	code, b, err := s.do(http.MethodGet, "/v1/jobs/"+id+"/events", nil)
	if err != nil {
		return err
	}
	if code != http.StatusOK {
		return fmt.Errorf("events %s: HTTP %d", id, code)
	}
	var last struct {
		Type  string `json:"type"`
		State string `json:"state"`
	}
	gen := 0
	sc := bufio.NewScanner(bytes.NewReader(b))
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		if err := json.Unmarshal(sc.Bytes(), &last); err != nil {
			return fmt.Errorf("events %s: %w", id, err)
		}
		if last.Type == "generated" {
			gen++
		}
	}
	if last.Type != "job_done" || last.State != "done" {
		return fmt.Errorf("events %s: log ends with %s/%s, not job_done/done", id, last.Type, last.State)
	}
	if gen != generated {
		return fmt.Errorf("events %s: %d generated events for %d generated packets", id, gen, generated)
	}
	return nil
}

// loopJob is one open-loop job.
type loopJob struct {
	kind byte
	due  time.Time
	id   string
	// observed is set once the job was seen terminal; latency and runS
	// are valid only then.
	observed bool
	latency  float64
	runS     float64
}

// runServicePass starts the service serviceSetups times (each start
// runs the warm-up scenario to completion, so later repeats hit the
// cache), then runs the open loop on the last one.
func runServicePass(ps passSpec) passResult {
	var res passResult
	warm := serviceScenario(ps.Seed * seedStride)
	var s *simd
	var ref json.RawMessage
	var before runtimeSample
	for i := 0; i < serviceSetups; i++ {
		if i == serviceSetups-1 {
			runtime.GC()
			before = readRuntime()
		}
		t0 := clock()
		s = startSimd()
		st, err := s.submit(service.JobSpec{Scenario: &warm})
		if err == nil {
			st, err = s.wait(st.ID)
		}
		res.SetupS = append(res.SetupS, seconds(t0))
		if err == nil && st.State != "done" {
			err = fmt.Errorf("warm-up job %s: %s %s", st.ID, st.State, st.Error)
		}
		if err == nil && ref != nil && !bytes.Equal(ref, st.Summaries) {
			err = fmt.Errorf("warm-up job %s: summaries differ between service starts", st.ID)
		}
		if err != nil {
			s.stop()
			res.Attempted, res.Failed = 1, 1
			res.Problems = append(res.Problems, err.Error())
			return res
		}
		ref = st.Summaries
		if i < serviceSetups-1 {
			s.stop()
		}
	}
	defer s.stop()
	var refSums []rmetrics.Summary
	if err := json.Unmarshal(ref, &refSums); err != nil || len(refSums) != 1 {
		res.Attempted, res.Failed = 1, 1
		res.Problems = append(res.Problems, fmt.Sprintf("warm-up summaries unreadable: %v", err))
		return res
	}

	loop := ps.Seconds
	if ps.Smoke {
		loop = 1
	}
	jobs := openLoop(s, ps.Seed, loop, warm, ref, refSums[0].Generated, &res)
	after := readRuntime()
	res.AllocBytes = after.allocs - before.allocs
	res.GCCycles = after.gcCycles - before.gcCycles
	res.GCCPUS = after.gcCPU - before.gcCPU
	serviceLayers(s, jobs, &res)
	return res
}

// openLoop sends jobRate·seconds jobs on their due times and polls them
// to completion, checking each result.
func openLoop(s *simd, seed int, loop float64, warm scenario.Scenario, ref json.RawMessage, generated int, res *passResult) []*loopJob {
	n := max(int(loop*jobRate+0.5), 1)
	start := clock().Add(10 * time.Millisecond)
	jobs := make([]*loopJob, n)
	for k := range jobs {
		jobs[k] = &loopJob{kind: jobPattern[k%len(jobPattern)],
			due: start.Add(time.Duration(float64(k) / jobRate * float64(time.Second)))}
	}
	res.Attempted = n
	fail := func(format string, args ...any) {
		res.Failed++
		res.Problems = append(res.Problems, fmt.Sprintf(format, args...))
	}
	// The loop gives up a minute after the last due time; whatever is
	// still outstanding then counts as failed.
	giveUp := jobs[n-1].due.Add(time.Minute)
	var submitS []float64
	var lag float64
	next, pending := 0, []*loopJob{}
	nextPoll := start
	for next < n || len(pending) > 0 {
		now := clock()
		if now.After(giveUp) {
			for _, j := range pending {
				fail("job %s not terminal after the loop ended", j.id)
			}
			break
		}
		if next < n && !now.Before(jobs[next].due) {
			j := jobs[next]
			next++
			lag = max(lag, now.Sub(j.due).Seconds())
			spec := service.JobSpec{Scenario: &warm}
			switch j.kind {
			case 'M':
				fresh := serviceScenario(seed*seedStride + next)
				spec.Scenario = &fresh
			case 'T':
				spec.Telemetry, spec.RunWorkers = true, 2
			}
			st, err := s.submit(spec)
			submitS = append(submitS, seconds(now))
			if err != nil {
				fail("job %d: %v", next-1, err)
				continue
			}
			j.id = st.ID
			pending = append(pending, j)
			continue
		}
		if len(pending) > 0 && !now.Before(nextPoll) {
			still := pending[:0]
			for _, j := range pending {
				st, err := s.status(j.id)
				switch {
				case err != nil:
					fail("job %s: %v", j.id, err)
				case !terminal(st.State):
					still = append(still, j)
				default:
					j.observed = true
					j.latency = clock().Sub(j.due).Seconds()
					j.runS = st.RunSecs
					if msg := checkJob(s, j, st, ref, generated); msg != "" {
						fail("job %s: %s", j.id, msg)
					}
				}
			}
			pending = still
			nextPoll = now.Add(pollEvery)
			continue
		}
		wake := nextPoll
		if next < n && (len(pending) == 0 || jobs[next].due.Before(wake)) {
			wake = jobs[next].due
		}
		time.Sleep(wake.Sub(now)) //rapidlint:allow nondeterminism — open-loop pacing of the benchmark client; never feeds simulation state
	}
	res.Layers = map[string]float64{
		"service.submit_s":  median(submitS),
		"service.gen_lag_s": lag,
	}
	return jobs
}

// checkJob checks one terminal job and returns what is wrong with it.
func checkJob(s *simd, j *loopJob, st jobStatus, ref json.RawMessage, generated int) string {
	if st.State != "done" {
		return fmt.Sprintf("ended %s %s", st.State, st.Error)
	}
	if j.kind == 'M' {
		var sums []rmetrics.Summary
		if err := json.Unmarshal(st.Summaries, &sums); err != nil || len(sums) != 1 {
			return fmt.Sprintf("summaries unreadable: %v", err)
		}
		if sums[0].Generated <= 0 || sums[0].Delivered > sums[0].Generated {
			return fmt.Sprintf("implausible summary: generated %d, delivered %d", sums[0].Generated, sums[0].Delivered)
		}
		return ""
	}
	// Cache hits and telemetry runs must reproduce the warm-up run.
	if !bytes.Equal(st.Summaries, ref) {
		return "summary differs from the first run of the same scenario"
	}
	if j.kind == 'T' {
		if err := s.checkEvents(j.id, generated); err != nil {
			return err.Error()
		}
	}
	return ""
}

// serviceLayers fills the end-to-end and per-layer numbers of the
// service workload from the finished jobs and a /metrics scrape.
func serviceLayers(s *simd, jobs []*loopJob, res *passResult) {
	var lat, runS, wait []float64
	for _, j := range jobs {
		if j.observed {
			lat = append(lat, j.latency)
			runS = append(runS, j.runS)
			wait = append(wait, j.latency-j.runS)
		}
	}
	res.WallS = median(lat)
	l := res.Layers
	l["service.job_p90_s"] = percentile(lat, 0.9)
	l["service.jobs"] = float64(len(lat))
	l["service.run_s"] = median(runS)
	l["service.queue_wait_s"] = median(wait)

	code, b, err := s.do(http.MethodGet, "/metrics", nil)
	if err != nil || code != http.StatusOK {
		res.Problems = append(res.Problems, fmt.Sprintf("scrape /metrics: HTTP %d %v", code, err))
		res.Failed++
		return
	}
	prom := parseProm(string(b))
	hits, misses := prom["simd_engine_cache_hits_total"], prom["simd_engine_cache_misses_total"]
	l["exp.cache_hits"] = hits
	l["exp.cache_misses"] = misses
	if hits+misses > 0 {
		l["exp.hit_ratio"] = hits / (hits + misses)
	}
	l["service.events"] = prom["simd_events_executed_total"]
	l["service.rejected"] = prom["simd_jobs_rejected_total"]
}

// parseProm reads the unlabeled samples of a Prometheus text exposition.
func parseProm(text string) map[string]float64 {
	out := make(map[string]float64)
	for _, line := range strings.Split(text, "\n") {
		if line == "" || line[0] == '#' || strings.ContainsRune(line, '{') {
			continue
		}
		name, val, ok := strings.Cut(line, " ")
		if !ok {
			continue
		}
		if v, err := strconv.ParseFloat(val, 64); err == nil {
			out[name] = v
		}
	}
	return out
}

// percentile is the nearest-rank p-quantile of xs.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(float64(len(s))*p)) - 1
	return s[min(max(i, 0), len(s)-1)]
}
