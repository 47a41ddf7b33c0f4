package main

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"reflect"
	"runtime"
	"runtime/metrics"
	"strings"
	"syscall"
	"time"

	rmetrics "rapid/internal/metrics"
	"rapid/internal/routing"
	"rapid/internal/scenario"
	"rapid/internal/trace"
)

// Every measured pass runs in a fresh child process — the benchmark's
// own binary, re-executed with passEnv holding the pass spec — so that
// set-up time, peak RSS and the heap start cold and comparable, and so
// that at most one simulation runs at a time.

// passEnv carries a pass spec to a child process.
const passEnv = "RAPIDBENCH_PASS"

// childProcs is the GOMAXPROCS of every child.
const childProcs = "2"

// passSpec tells a child what to run.
type passSpec struct {
	Workload string `json:"workload"`
	// Run is the scenario Run index (simulation workloads).
	Run     int  `json:"run"`
	Workers int  `json:"workers"`
	Traced  bool `json:"traced"`
	// Setups is how many times set-up is timed; the last one is run.
	Setups int  `json:"setups"`
	Smoke  bool `json:"smoke"`
	// Seed and Seconds size the service workload's open loop.
	Seed    int     `json:"seed"`
	Seconds float64 `json:"seconds"`
}

// passResult is what a child reports.
type passResult struct {
	SetupS []float64 `json:"setup_s"`
	// WallS is routing.Run plus Collector.Summarize; for the service
	// workload, the median job latency.
	WallS      float64 `json:"wall_s"`
	RunS       float64 `json:"run_s"`
	SummarizeS float64 `json:"summarize_s"`
	AllocBytes float64 `json:"alloc_bytes"`
	MaxRSS     float64 `json:"max_rss_bytes"`
	GCCycles   float64 `json:"gc_cycles"`
	GCCPUS     float64 `json:"gc_cpu_s"`
	// Calib is the factor spawn scaled every time in the result by, to
	// reference seconds (calib.go).
	Calib float64 `json:"calib_factor"`

	Events           uint64           `json:"events"`
	Replications     int              `json:"replications"`
	DirectDeliveries int              `json:"direct_deliveries"`
	Summary          rmetrics.Summary `json:"summary"`
	Fingerprint      string           `json:"fingerprint"`

	// Layers holds the traced pass's layer counters and span sums, or
	// the service workload's per-layer numbers.
	Layers map[string]float64 `json:"layers,omitempty"`

	Attempted int      `json:"attempted"`
	Failed    int      `json:"failed"`
	Problems  []string `json:"problems,omitempty"`
}

// spawn runs one pass in a child process and waits for it.
func spawn(ctx context.Context, spec passSpec) (passResult, error) {
	exe, err := os.Executable()
	if err != nil {
		return passResult{}, fmt.Errorf("locate benchmark binary: %w", err)
	}
	b, err := json.Marshal(spec)
	if err != nil {
		return passResult{}, fmt.Errorf("encode pass spec: %w", err)
	}
	cmd := exec.CommandContext(ctx, exe)
	cmd.Env = append(os.Environ(), passEnv+"="+string(b), "GOMAXPROCS="+childProcs)
	cmd.Stderr = os.Stderr
	// A child must not outlive the benchmark, even when it is killed.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stop := make(chan struct{})
	calib := make(chan float64, 1)
	go func() { calib <- probe(stop) }()
	out, err := cmd.Output()
	close(stop)
	f := <-calib
	if err != nil {
		return passResult{}, fmt.Errorf("pass %s run %d: %w", spec.Workload, spec.Run, err)
	}
	var res passResult
	if err := json.Unmarshal(out, &res); err != nil {
		return passResult{}, fmt.Errorf("pass %s run %d: decode result: %w", spec.Workload, spec.Run, err)
	}
	res.calibrate(f)
	return res, nil
}

// childMain runs the pass described by spec and writes its result to
// standard output.
func childMain(spec string) int {
	var ps passSpec
	if err := json.Unmarshal([]byte(spec), &ps); err != nil {
		fmt.Fprintf(os.Stderr, "bench child: bad pass spec: %v\n", err)
		return 2
	}
	w, ok := lookupWorkload(ps.Workload)
	if !ok {
		fmt.Fprintf(os.Stderr, "bench child: unknown workload %q\n", ps.Workload)
		return 2
	}
	var res passResult
	if w.simulated() {
		res = runSimPass(w, ps)
	} else {
		res = runServicePass(ps)
	}
	res.MaxRSS = maxRSSBytes()
	if err := json.NewEncoder(os.Stdout).Encode(res); err != nil {
		fmt.Fprintf(os.Stderr, "bench child: write result: %v\n", err)
		return 1
	}
	return 0
}

// runSimPass times set-up and one simulation run of a workload.
func runSimPass(w workload, ps passSpec) passResult {
	sc := w.build(ps.Run, ps.Smoke)
	sc.Config.Workers = ps.Workers
	var res passResult
	res.Layers = warmUp(sc, ps, &res.SetupS)
	runtime.GC()
	before := readRuntime()

	t0 := clock()
	rs := sc.Materialize()
	res.SetupS = append(res.SetupS, seconds(t0))
	var rt *routerTracer
	var src *tracedSource
	if ps.Traced {
		rt = &routerTracer{}
		rs.Factory = rt.wrapFactory(rs.Factory)
		if rs.Source != nil {
			src = &tracedSource{inner: rs.Source}
			rs.Source = src
		}
	}
	horizon := horizonOf(rs)

	t1 := clock()
	col := routing.Run(rs)
	t2 := clock()
	sum := col.Summarize(horizon)
	t3 := clock()
	after := readRuntime()

	res.RunS = t2.Sub(t1).Seconds()
	res.SummarizeS = t3.Sub(t2).Seconds()
	res.WallS = t3.Sub(t1).Seconds()
	res.AllocBytes = after.allocs - before.allocs
	res.GCCycles = after.gcCycles - before.gcCycles
	res.GCCPUS = after.gcCPU - before.gcCPU
	res.Events = col.EventsExecuted
	res.Replications = col.Replications
	res.DirectDeliveries = col.DirectDeliveries
	res.Summary = sum
	res.Fingerprint = fingerprint(sum)
	res.Attempted = 1
	if sum.Generated <= 0 {
		res.Problems = append(res.Problems, "no packets generated")
	}
	if sum.Delivered > sum.Generated {
		res.Problems = append(res.Problems, fmt.Sprintf("delivered %d > generated %d", sum.Delivered, sum.Generated))
	}
	if len(res.Problems) > 0 {
		res.Failed = 1
	}
	if ps.Traced {
		recordTrace(res.Layers, rt, src)
	}
	return res
}

// calibrate scales every time in the result by f.
func (res *passResult) calibrate(f float64) {
	res.Calib = f
	for i := range res.SetupS {
		res.SetupS[i] *= f
	}
	res.WallS *= f
	res.RunS *= f
	res.SummarizeS *= f
	res.GCCPUS *= f
	for k := range res.Layers {
		if strings.HasSuffix(k, "_s") {
			res.Layers[k] *= f
		}
	}
}

// warmUp times every set-up but the run's own and discards them. A
// traced pass also times the scenario builders; it returns their layer
// numbers.
func warmUp(sc scenario.Scenario, ps passSpec, setups *[]float64) map[string]float64 {
	var warm routing.Scenario
	for i := 1; i < ps.Setups; i++ {
		t0 := clock()
		warm = sc.Materialize()
		*setups = append(*setups, seconds(t0))
	}
	if !ps.Traced {
		return nil
	}
	return traceBuilds(sc, warm)
}

// horizonOf is the run horizon of a materialized scenario.
func horizonOf(rs routing.Scenario) float64 {
	if rs.Schedule != nil {
		return rs.Schedule.Duration
	}
	return rs.Plan.Duration
}

// traceBuilds times the scenario layer's public builders with the
// scenario's own seeds, and drains the contact-plan cursor of a lazy
// run, before the measured run starts. warm is an earlier set-up of the
// same scenario, which tells whether the run is lazy and streaming.
func traceBuilds(sc scenario.Scenario, warm routing.Scenario) map[string]float64 {
	l := make(map[string]float64)
	schedSeed, wSeed, _ := sc.Seeds()
	t0 := clock()
	var sched *trace.Schedule
	var plan *trace.ContactPlan
	if warm.Plan != nil {
		plan = sc.Schedule.BuildPlan()
	} else {
		sched = sc.Schedule.Build(schedSeed)
	}
	l["scenario.schedule_s"] = seconds(t0)

	t0 = clock()
	switch {
	case warm.Source != nil:
		sc.Workload.BuildSource(horizonOf(warm), wSeed)
	case sched != nil:
		sc.Workload.Build(sched, wSeed)
	}
	l["scenario.workload_s"] = seconds(t0)

	if plan != nil {
		t0 = clock()
		cur := plan.Cursor(warm.MergePlanWindows)
		n := 0
		for _, ok := cur.Next(); ok; _, ok = cur.Next() {
			n++
		}
		l["trace.cursor_s"] = seconds(t0)
		l["trace.occurrences"] = float64(n)
		l["scenario.contacts"] = float64(n)
	} else {
		l["scenario.contacts"] = float64(len(sched.Meetings) + len(sched.Contacts))
	}
	return l
}

// recordTrace folds the decorators' counters into the layer map. Span
// sums are busy time; spans_s is their total, from which the parent
// derives the routing runtime's self time.
func recordTrace(l map[string]float64, rt *routerTracer, src *tracedSource) {
	sum := rt.total()
	names := methodNames()
	var spans int64
	for m, s := range sum.spans {
		l[rt.layer+"."+names[m]+"_s"] = float64(s.ns) / 1e9
		l[rt.layer+"."+names[m]+"_calls"] = float64(s.calls)
		spans += s.ns
	}
	l[rt.layer+".inventory_items"] = float64(sum.inventoryItems)
	l[rt.layer+".plan_candidates"] = float64(sum.planCandidates)
	l[rt.layer+".accept_rejects"] = float64(sum.acceptRejects)
	if src != nil {
		l["packet.next_calls"] = float64(src.next.calls)
		l["packet.next_s"] = float64(src.next.ns) / 1e9
		spans += src.next.ns
	}
	l["spans_s"] = float64(spans) / 1e9
}

// runtimeSample is a reading of the Go runtime's cumulative counters.
type runtimeSample struct {
	allocs, gcCycles, gcCPU float64
}

func readRuntime() runtimeSample {
	s := []metrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/gc/cycles/total:gc-cycles"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
	}
	metrics.Read(s)
	return runtimeSample{
		allocs:   float64(s[0].Value.Uint64()),
		gcCycles: float64(s[1].Value.Uint64()),
		gcCPU:    s[2].Value.Float64(),
	}
}

// maxRSSBytes is this process's peak resident set size (Linux reports
// ru_maxrss in KiB).
func maxRSSBytes() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) * 1024
}

// seconds is the wall time elapsed since t0.
func seconds(t0 time.Time) float64 { return clock().Sub(t0).Seconds() }

// fingerprint is a SHA-256 over every Summary field in declaration
// order, integers as int64 and floats by their bits, so two runs agree
// only if their summaries are bit-identical.
func fingerprint(s rmetrics.Summary) string {
	h := sha256.New()
	v := reflect.ValueOf(s)
	var buf [8]byte
	for i := 0; i < v.NumField(); i++ {
		f := v.Field(i)
		switch f.Kind() {
		case reflect.Int, reflect.Int64:
			binary.LittleEndian.PutUint64(buf[:], uint64(f.Int()))
		case reflect.Float64:
			binary.LittleEndian.PutUint64(buf[:], math.Float64bits(f.Float()))
		default:
			panic("bench: fingerprint cannot hash Summary field " + v.Type().Field(i).Name)
		}
		h.Write(buf[:])
	}
	return hex.EncodeToString(h.Sum(nil))
}
