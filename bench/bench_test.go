package main

import (
	"bytes"
	"encoding/json"
	"os"
	"reflect"
	"regexp"
	"strings"
	"testing"

	"rapid/internal/core"
	"rapid/internal/routing"
	"rapid/internal/scenario"
)

// TestMain doubles as the child-process entry point: the smoke test's
// passes re-execute this test binary with passEnv set.
func TestMain(m *testing.M) {
	if spec := os.Getenv(passEnv); spec != "" {
		os.Exit(childMain(spec))
	}
	os.Exit(m.Run())
}

// The decorators must forward exactly the optional routing interfaces
// of the router they wrap, for RAPID and every CGR arm, and refuse a
// router they cannot mirror.
func TestDecoratorsForwardExactInterfaces(t *testing.T) {
	protos := []scenario.Proto{scenario.ProtoRapid, scenario.ProtoCGR,
		scenario.ProtoCGRK, scenario.ProtoCGRMulti, scenario.ProtoCGRAdmit}
	for _, p := range protos {
		f, _ := scenario.Arm(p, core.AvgDelay, routing.Config{})
		inner := f(0)
		wrapped, _, err := wrap(f(1), &nodeCounts{})
		if err != nil {
			t.Fatalf("%s: %v", p, err)
		}
		if got, want := optionalInterfaces(wrapped), optionalInterfaces(inner); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: decorated router has optional interfaces %v, want %v", p, got, want)
		}
	}
	f, _ := scenario.Arm(scenario.ProtoMaxProp, core.AvgDelay, routing.Config{})
	if _, _, err := wrap(f(0), &nodeCounts{}); err == nil {
		t.Error("wrap accepted MaxProp, whose optional interfaces no decorator mirrors")
	}
}

// A traced run must reproduce the untraced run bit for bit at one and
// two workers, and execute the same number of events — the parallel
// engine batches differently from the serial one, so a decorator that
// moved a run between the two would show here.
func TestTracedRunsMatchUntraced(t *testing.T) {
	for _, name := range []string{"constel-par", "mega-stream", "cgr-windowed-lossy"} {
		w, _ := lookupWorkload(name)
		var fps []string
		for _, workers := range []int{1, 2} {
			spec := passSpec{Workload: name, Workers: workers, Setups: 2, Smoke: true}
			plain := runSimPass(w, spec)
			spec.Traced = true
			traced := runSimPass(w, spec)
			if len(plain.Problems)+len(traced.Problems) > 0 {
				t.Fatalf("%s W%d: %v %v", name, workers, plain.Problems, traced.Problems)
			}
			if plain.Events != traced.Events {
				t.Errorf("%s W%d: traced run executed %d events, untraced %d", name, workers, traced.Events, plain.Events)
			}
			if traced.Layers["spans_s"] <= 0 {
				t.Errorf("%s W%d: traced run recorded no spans", name, workers)
			}
			fps = append(fps, plain.Fingerprint, traced.Fingerprint)
		}
		for _, fp := range fps[1:] {
			if fp != fps[0] {
				t.Errorf("%s: fingerprints differ across traced/untraced and W1/W2: %v", name, fps)
				break
			}
		}
	}
}

// benchmarkFile is the part of BENCHMARK.json the tests compare.
type benchmarkFile struct {
	Paths     []string `json:"paths"`
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(b, &bf); err != nil {
		t.Fatal(err)
	}
	return bf
}

// BENCHMARK.json must declare exactly the workloads and metrics this
// program runs and reports.
func TestBenchmarkFileMatchesProgram(t *testing.T) {
	bf := readBenchmarkFile(t)
	if !reflect.DeepEqual(bf.Paths, []string{"bench"}) {
		t.Errorf("paths = %v", bf.Paths)
	}
	ws := workloads()
	if len(bf.Workloads) != len(ws) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", len(bf.Workloads), len(ws))
	}
	for i, w := range ws {
		if bf.Workloads[i].Name != w.name || bf.Workloads[i].Why != w.why {
			t.Errorf("workload %d: file has %q (%q), program %q (%q)", i,
				bf.Workloads[i].Name, bf.Workloads[i].Why, w.name, w.why)
		}
	}
	if !reflect.DeepEqual(bf.EndToEnd, endToEnd()) {
		t.Errorf("end_to_end differs:\nfile    %v\nprogram %v", bf.EndToEnd, endToEnd())
	}
	if !reflect.DeepEqual(bf.PerLayer, perLayer()) {
		t.Errorf("per_layer differs:\nfile    %v\nprogram %v", bf.PerLayer, perLayer())
	}
}

// Every workload at smoke size, untraced and traced: each run must
// pass its checks and report every metric BENCHMARK.json names, with
// its unit; end-to-end metrics must never read 0.
func TestSmoke(t *testing.T) {
	bf := readBenchmarkFile(t)
	valid := regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)
	for _, trace := range []string{"0", "1"} {
		defs := bf.EndToEnd
		if trace == "1" {
			defs = bf.PerLayer
		}
		var out bytes.Buffer
		if code := run([]string{"-smoke", "-workload", "all", "-trace", trace}, &out, os.Stderr); code != 0 {
			t.Fatalf("trace %s: exit %d\n%s", trace, code, out.String())
		}
		var lines []string
		for _, l := range strings.Split(out.String(), "\n") {
			if strings.HasPrefix(l, "{") {
				lines = append(lines, l)
			}
		}
		if len(lines) != len(workloads()) {
			t.Fatalf("trace %s: %d result lines for %d workloads", trace, len(lines), len(workloads()))
		}
		for i, l := range lines {
			var res struct {
				Correct   bool                   `json:"correct"`
				Attempted int                    `json:"attempted"`
				Failed    int                    `json:"failed"`
				Metrics   map[string]metricValue `json:"metrics"`
			}
			if err := json.Unmarshal([]byte(l), &res); err != nil {
				t.Fatal(err)
			}
			name := workloads()[i].name
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("trace %s %s: correct=%v attempted=%d failed=%d", trace, name, res.Correct, res.Attempted, res.Failed)
			}
			if len(res.Metrics) != len(defs) {
				t.Errorf("trace %s %s: %d metrics, want %d", trace, name, len(res.Metrics), len(defs))
			}
			for _, d := range defs {
				m, ok := res.Metrics[d.Name]
				switch {
				case !valid.MatchString(d.Name):
					t.Errorf("metric name %q", d.Name)
				case !ok || m.Unit != d.Unit:
					t.Errorf("trace %s %s: metric %s = %+v, want unit %s", trace, name, d.Name, m, d.Unit)
				case trace == "0" && m.Value <= 0:
					t.Errorf("%s: end-to-end metric %s = %v", name, d.Name, m.Value)
				}
			}
		}
	}
}

func TestQuartilesMatchExclusiveMethod(t *testing.T) {
	// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
	xs := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	if got := quartiles(xs); got != [3]float64{2.75, 5.5, 8.25} {
		t.Errorf("quartiles = %v", got)
	}
}
