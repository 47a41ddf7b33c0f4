// Command bench is the repository benchmark: it runs named workloads
// through the public simulation and service APIs and prints end-to-end
// metrics (untraced) or per-layer metrics (-trace 1), checking that the
// outputs are correct. See README.md for the workloads and metrics.
//
//	go run . -workload paper-synth -seed 0 -seconds 15
//	go run . -workload all -trace 1 -out results/traced.json
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics (for several workloads, one
// such line per workload, the last one last).
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"
	"time"
)

func main() {
	if spec := os.Getenv(passEnv); spec != "" {
		os.Exit(childMain(spec))
	}
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// options are the settings of one invocation.
type options struct {
	seed    int
	seconds float64
	trace   bool
	smoke   bool
}

// workloadDeadline bounds one workload's measurement, children included.
const workloadDeadline = 170 * time.Second

// run parses args, measures the selected workloads and reports them. It
// returns 0 when every check passed, 1 when one failed and 2 on a usage
// error, for which it prints no result.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	names := fs.String("workload", "", "workload name, comma-separated names, or all")
	seed := fs.Int("seed", 0, "input seed: rep r runs at scenario Run index seed·16+r")
	secs := fs.Float64("seconds", 15, "measurement budget of one workload run in seconds")
	trace := fs.Int("trace", 0, "1 reports per-layer metrics from a traced run, 0 end-to-end metrics")
	out := fs.String("out", "", "also write the full report (raw samples, quartiles, machine) to this JSON file")
	commit := fs.String("commit", "", "commit recorded in the -out report")
	smoke := fs.Bool("smoke", false, "tiny sizes, for tests")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 || *names == "" || *seed < 0 || *secs <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "usage: bench -workload name[,name]|all [-seed N] [-seconds S] [-trace 0|1] [-out file]")
		return 2
	}
	var sel []workload
	if *names == "all" {
		sel = workloads()
	} else {
		for _, n := range strings.Split(*names, ",") {
			w, ok := lookupWorkload(n)
			if !ok {
				fmt.Fprintf(stderr, "bench: unknown workload %q\n", n)
				return 2
			}
			sel = append(sel, w)
		}
	}
	o := options{seed: *seed, seconds: *secs, trace: *trace == 1, smoke: *smoke}

	code := 0
	var reports []workloadReport
	for _, w := range sel {
		ctx, cancel := context.WithTimeout(context.Background(), workloadDeadline)
		r := measure(ctx, w, o)
		cancel()
		if !r.Correct {
			code = 1
		}
		r.print(stdout)
		reports = append(reports, r)
	}
	if *out != "" {
		if err := writeReport(*out, *commit, o, reports); err != nil {
			fmt.Fprintf(stderr, "bench: %v\n", err)
			return 1
		}
	}
	return code
}

// metricValue is one reported number.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// workloadReport is the measurement of one workload.
type workloadReport struct {
	Name      string   `json:"name"`
	Why       string   `json:"why"`
	Correct   bool     `json:"correct"`
	Attempted int      `json:"attempted"`
	Failed    int      `json:"failed"`
	Problems  []string `json:"problems,omitempty"`
	// Metrics holds every metric of the run's kind, in definition order
	// when printed.
	Metrics map[string]metricValue `json:"metrics"`
	// Samples are the per-rep values behind the end-to-end metrics.
	Samples      map[string][]float64  `json:"samples,omitempty"`
	Quartiles    map[string][3]float64 `json:"quartiles,omitempty"`
	Fingerprints []string              `json:"fingerprints,omitempty"`

	defs []metricDef
}

func newReport(w workload, o options) *workloadReport {
	defs := endToEnd()
	if o.trace {
		defs = perLayer()
	}
	return &workloadReport{Name: w.name, Why: w.why, Metrics: map[string]metricValue{},
		Samples: map[string][]float64{}, Quartiles: map[string][3]float64{}, defs: defs}
}

// pass runs one child pass and folds its checks into the report.
func (r *workloadReport) pass(ctx context.Context, spec passSpec) (passResult, bool) {
	res, err := spawn(ctx, spec)
	if err != nil {
		r.Attempted++
		r.Failed++
		r.Problems = append(r.Problems, err.Error())
		return res, false
	}
	r.Attempted += res.Attempted
	r.Failed += res.Failed
	r.Problems = append(r.Problems, res.Problems...)
	if res.Fingerprint != "" {
		r.Fingerprints = append(r.Fingerprints, res.Fingerprint)
	}
	return res, true
}

// sample records an end-to-end metric from its per-rep values.
func (r *workloadReport) sample(name string, value float64, samples []float64) {
	r.Metrics[name] = metricValue{Value: value}
	r.Samples[name] = samples
	r.Quartiles[name] = quartiles(samples)
}

// finish fills units, defaults absent metrics to 0 and settles
// correctness.
func (r *workloadReport) finish() workloadReport {
	for _, d := range r.defs {
		m := r.Metrics[d.Name]
		m.Unit = d.Unit
		r.Metrics[d.Name] = m
	}
	if r.Attempted == 0 {
		r.Attempted, r.Failed = 1, 1
		r.Problems = append(r.Problems, "nothing ran")
	}
	r.Correct = r.Failed == 0
	return *r
}

// print writes the human-readable report and the result line.
func (r workloadReport) print(w io.Writer) {
	verdict := "correct"
	if !r.Correct {
		verdict = "INCORRECT"
	}
	fmt.Fprintf(w, "== %s: %s (%d attempted, %d failed)\n", r.Name, verdict, r.Attempted, r.Failed)
	for _, p := range r.Problems {
		fmt.Fprintf(w, "   problem: %s\n", p)
	}
	for _, d := range r.defs {
		m := r.Metrics[d.Name]
		fmt.Fprintf(w, "   %-26s %14.6g %s\n", d.Name, m.Value, m.Unit)
	}
	line, _ := json.Marshal(struct {
		Correct   bool                   `json:"correct"`
		Attempted int                    `json:"attempted"`
		Failed    int                    `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, r.Metrics})
	fmt.Fprintf(w, "%s\n", line)
}

// setups is how many times a simulation pass times its set-up.
func setups(o options) int {
	if o.smoke {
		return 2
	}
	return 5
}

// measure runs one workload.
func measure(ctx context.Context, w workload, o options) workloadReport {
	r := newReport(w, o)
	switch {
	case !w.simulated():
		measureService(ctx, r, w, o)
	case o.trace:
		traceSim(ctx, r, w, o)
	default:
		measureSim(ctx, r, w, o)
	}
	return r.finish()
}

const mb = 1 << 20

// measureSim runs the untraced reps of a simulation workload, each on
// its own input, and reports their end-to-end metrics.
func measureSim(ctx context.Context, r *workloadReport, w workload, o options) {
	var wall, setup, rss, alloc, calib []float64
	for i := 0; i < repCount(w, o.seconds, o.smoke); i++ {
		res, ok := r.pass(ctx, passSpec{Workload: w.name, Run: o.seed*maxReps + i,
			Workers: w.workers, Setups: setups(o), Smoke: o.smoke})
		if !ok {
			continue
		}
		wall = append(wall, res.WallS)
		setup = append(setup, res.SetupS...)
		rss = append(rss, res.MaxRSS/mb)
		alloc = append(alloc, res.AllocBytes/mb)
		calib = append(calib, res.Calib)
	}
	r.sample("wall_s", mean(wall), wall)
	r.sample("setup_s", median(setup), setup)
	r.sample("peak_rss_mb", mean(rss), rss)
	r.sample("alloc_mb", mean(alloc), alloc)
	r.Samples["calib_factor"] = calib
}

// measureService runs the simd-mixed open loop once.
func measureService(ctx context.Context, r *workloadReport, w workload, o options) {
	res, ok := r.pass(ctx, passSpec{Workload: w.name, Seed: o.seed, Seconds: o.seconds, Smoke: o.smoke})
	if !ok {
		return
	}
	if o.trace {
		for _, d := range r.defs {
			if v, ok := res.Layers[d.Name]; ok {
				r.Metrics[d.Name] = metricValue{Value: v}
			}
		}
		return
	}
	r.sample("wall_s", res.WallS, []float64{res.WallS})
	r.sample("setup_s", median(res.SetupS), res.SetupS)
	r.sample("peak_rss_mb", res.MaxRSS/mb, []float64{res.MaxRSS / mb})
	r.sample("alloc_mb", res.AllocBytes/mb, []float64{res.AllocBytes / mb})
	r.Samples["calib_factor"] = []float64{res.Calib}
}

// traceSim runs a simulation workload's first input untraced and traced
// at its worker count, then the same pair at one worker. For a 1-worker
// workload that is a repeat, which steadies the overhead estimate; for
// a 2-worker workload it is the speedup's base and the serial pass
// whose wall time minus its traced spans is the routing runtime's self
// time (span sums of a parallel pass are busy time across workers).
// Every pass must produce the same Summary fingerprint.
func traceSim(ctx context.Context, r *workloadReport, w workload, o options) {
	spec := passSpec{Workload: w.name, Run: o.seed * maxReps, Workers: w.workers,
		Setups: setups(o), Smoke: o.smoke}
	traced := spec
	traced.Traced = true
	serial, serialTraced := spec, traced
	serial.Workers, serialTraced.Workers = 1, 1
	u, ok1 := r.pass(ctx, spec)
	t, ok2 := r.pass(ctx, traced)
	u1, ok3 := r.pass(ctx, serial)
	t1, ok4 := r.pass(ctx, serialTraced)
	for _, fp := range r.Fingerprints {
		if fp != r.Fingerprints[0] {
			r.Failed++
			r.Problems = append(r.Problems, "Summary fingerprints differ between traced, untraced, serial and parallel passes")
			break
		}
	}
	if !ok1 || !ok2 || !ok3 || !ok4 {
		return
	}
	untracedW, tracedW := []passResult{u}, []passResult{t}
	serialU, serialT := []passResult{u1}, []passResult{t1}
	if w.workers == 1 {
		untracedW, tracedW = []passResult{u, u1}, []passResult{t, t1}
		serialU, serialT = untracedW, tracedW
	}
	l := make(map[string]float64, len(t.Layers))
	for k, v := range t.Layers {
		l[k] = v
	}
	sum := u.Summary
	l["scenario.packets"] = float64(sum.Generated)
	l["sim.events"] = float64(u.Events)
	l["sim.events_per_s"] = float64(u.Events) / u.RunS
	l["shard.w1_wall_s"] = meanOf(serialU, wallOf)
	l["shard.speedup"] = l["shard.w1_wall_s"] / meanOf(untracedW, wallOf)
	if c := l["core.plan_candidates"]; c > 0 {
		l["core.plan_yield"] = float64(u.Replications) / c
	}
	l["routing.other_s"] = meanOf(serialT, func(p passResult) float64 { return p.RunS - p.Layers["spans_s"] })
	l["routing.meetings"] = float64(sum.Meetings)
	l["routing.opportunity_mb"] = float64(sum.OpportunityBytes) / mb
	l["routing.data_mb"] = float64(sum.DataBytes) / mb
	l["routing.meta_mb"] = float64(sum.MetaBytes) / mb
	if moved := sum.DataBytes + sum.MetaBytes; moved > 0 {
		l["routing.meta_share"] = float64(sum.MetaBytes) / float64(moved)
	}
	l["routing.replications"] = float64(u.Replications)
	l["routing.direct_deliveries"] = float64(u.DirectDeliveries)
	l["disrupt.lost_transfers"] = float64(sum.LostTransfers)
	l["disrupt.failed_contacts"] = l["scenario.contacts"] - float64(sum.Meetings)
	l["metrics.summarize_s"] = meanOf(untracedW, func(p passResult) float64 { return p.SummarizeS })
	l["metrics.delivery_rate"] = sum.DeliveryRate
	l["metrics.delay_all_s"] = sum.AvgDelayAll
	l["runtime.gc_cycles"] = meanOf(untracedW, func(p passResult) float64 { return p.GCCycles })
	l["runtime.gc_cpu_s"] = meanOf(untracedW, func(p passResult) float64 { return p.GCCPUS })
	l["trace_overhead"] = meanOf(tracedW, wallOf)/meanOf(untracedW, wallOf) - 1
	for _, d := range r.defs {
		r.Metrics[d.Name] = metricValue{Value: l[d.Name]}
	}
}

func wallOf(p passResult) float64 { return p.WallS }

// meanOf is the mean of f over passes.
func meanOf(ps []passResult, f func(passResult) float64) float64 {
	xs := make([]float64, len(ps))
	for i, p := range ps {
		xs[i] = f(p)
	}
	return mean(xs)
}

// writeReport writes the full report with a machine descriptor.
func writeReport(path, commit string, o options, reports []workloadReport) error {
	doc := struct {
		Machine   map[string]any   `json:"machine"`
		Seed      int              `json:"seed"`
		Seconds   float64          `json:"seconds"`
		Trace     bool             `json:"trace"`
		Smoke     bool             `json:"smoke,omitempty"`
		Workloads []workloadReport `json:"workloads"`
	}{
		Machine: map[string]any{
			"nproc": runtime.NumCPU(), "cpu": cpuModel(), "go": runtime.Version(),
			"os": runtime.GOOS, "arch": runtime.GOARCH, "commit": commit,
		},
		Seed: o.seed, Seconds: o.seconds, Trace: o.trace, Smoke: o.smoke, Workloads: reports,
	}
	b, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return fmt.Errorf("encode report: %w", err)
	}
	if err := os.WriteFile(path, append(b, '\n'), 0o644); err != nil {
		return fmt.Errorf("write report: %w", err)
	}
	return nil
}

// cpuModel is the first CPU model name the kernel reports.
func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
