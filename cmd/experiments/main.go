// Command experiments regenerates the paper's tables and figures and
// runs registered scenario-family sweeps on the parallel experiment
// engine.
//
// Usage:
//
//	experiments -list
//	experiments -fig fig4 [-scale tiny|default|full] [-out results] [-workers 8]
//	experiments -fig all -scale default -out results
//	experiments -families
//	experiments -family hetero-buffers -scale tiny
//
// For each experiment it writes <out>/<id>.dat (gnuplot-style series)
// and <out>/<id>.txt (an ASCII rendering plus notes), and prints the
// ASCII form to stdout. EXPERIMENTS.md records the paper-vs-measured
// comparison produced from these outputs.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"rapid/internal/exp"
	"rapid/internal/scenario"
)

func main() {
	var (
		figID    = flag.String("fig", "", "experiment id (fig3..fig24, table3) or 'all'")
		scale    = flag.String("scale", "default", "tiny | default | full")
		outDir   = flag.String("out", "results", "output directory")
		list     = flag.Bool("list", false, "list experiments and exit")
		families = flag.Bool("families", false, "list registered scenario families and exit")
		family   = flag.String("family", "", "run a registered scenario family sweep")
		reps     = flag.Int("reps", 0, "replications per family grid point (overrides the scale's run count; R>=2 adds mean ± 95% CI figures)")
		workers  = flag.Int("workers", 0, "engine worker-pool size (0 = GOMAXPROCS)")
		runWork  = flag.Int("run-workers", 0, "intra-run event-engine workers (0/1 = serial, -1 = GOMAXPROCS); output is byte-identical at any setting")
		plotW    = flag.Int("plot-width", 72, "ASCII plot width")
		plotH    = flag.Int("plot-height", 20, "ASCII plot height")
		quiet    = flag.Bool("q", false, "suppress ASCII plots on stdout")
		cpuProf  = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memProf  = flag.String("memprofile", "", "write a heap profile to this file on exit")
	)
	flag.Parse()

	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		defer f.Close()
		defer pprof.StopCPUProfile()
	}
	if *memProf != "" {
		defer func() {
			f, err := os.Create(*memProf)
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				return
			}
			defer f.Close()
			runtime.GC() // settle live-heap accounting before the snapshot
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, err)
			}
		}()
	}

	if *list {
		for _, e := range exp.All() {
			fmt.Printf("%-8s %s\n", e.ID, e.Title)
		}
		return
	}
	if *families {
		for _, f := range scenario.Families() {
			fmt.Printf("%-18s %s\n", f.Name, f.Doc)
		}
		return
	}

	engine := exp.NewEngine(*workers, 0)
	engine.SetRunWorkers(*runWork)

	sc, err := exp.ScaleByName(*scale)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	if *family != "" {
		runFamily(engine, *family, sc, *reps, *outDir, *plotW, *plotH, *quiet)
		return
	}

	if *figID == "" {
		fmt.Fprintln(os.Stderr, "missing -fig; use -list to see experiments, -families for scenario sweeps")
		os.Exit(2)
	}

	var targets []exp.Experiment
	if *figID == "all" {
		targets = exp.All()
	} else {
		e, ok := exp.ByID(*figID)
		if !ok {
			fmt.Fprintf(os.Stderr, "unknown experiment %q\n", *figID)
			os.Exit(2)
		}
		targets = []exp.Experiment{e}
	}

	if err := os.MkdirAll(*outDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	for _, e := range targets {
		start := time.Now() //rapidlint:allow nondeterminism — wall-clock progress timing for the operator; never feeds simulation state
		out := e.Run(engine, sc)
		elapsed := time.Since(start).Round(time.Millisecond) //rapidlint:allow nondeterminism — wall-clock progress timing for the operator
		if err := writeOutput(out, e.ID, e.Title, *outDir, sc, elapsed, *plotW, *plotH, *quiet); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}
}

// writeOutput renders one experiment artifact: <outDir>/<id>.dat for
// the series, <outDir>/<id>.txt for the ASCII rendering plus notes, and
// the ASCII form on stdout unless quiet.
func writeOutput(out exp.Output, id, title, outDir string, sc exp.Scale, elapsed time.Duration, plotW, plotH int, quiet bool) error {
	var text strings.Builder
	fmt.Fprintf(&text, "%s — %s (scale %s, %v)\n\n", id, title, sc.Name, elapsed)
	if fig := out.Figure; fig != nil {
		datPath := filepath.Join(outDir, id+".dat")
		f, err := os.Create(datPath)
		if err != nil {
			return err
		}
		if err := fig.WriteDat(f); err != nil {
			f.Close()
			return err
		}
		f.Close()
		text.WriteString(fig.RenderASCII(plotW, plotH))
	}
	if out.Table != nil {
		text.WriteString(out.Table.Render())
	}
	for _, n := range out.Notes {
		fmt.Fprintf(&text, "\nnote: %s\n", n)
	}
	txtPath := filepath.Join(outDir, id+".txt")
	if err := os.WriteFile(txtPath, []byte(text.String()), 0o644); err != nil {
		return err
	}
	if !quiet {
		fmt.Println(text.String())
	} else {
		fmt.Printf("%s done in %v -> %s\n", id, elapsed, txtPath)
	}
	return nil
}

// runFamily expands a registered scenario family at the chosen scale
// and prints one summary row per scenario. With two or more
// replications per grid point it additionally reduces the family to
// mean ± 95% CI error-bar figures and writes them to outDir.
func runFamily(engine *exp.Engine, name string, sc exp.Scale, reps int, outDir string, plotW, plotH int, quiet bool) {
	params := exp.FamilyParams(name, sc)
	if reps > 0 {
		params.Runs = reps
	}
	scs, err := scenario.Expand(name, params)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	start := time.Now() //rapidlint:allow nondeterminism — wall-clock progress timing for the operator; never feeds simulation state
	sums := engine.Summaries(scs)
	elapsed := time.Since(start).Round(time.Millisecond) //rapidlint:allow nondeterminism — wall-clock progress timing for the operator

	fmt.Printf("family %s: %d scenarios on %d workers in %v\n\n", name, len(scs), engine.Workers(), elapsed)
	if !quiet {
		fmt.Print(exp.RenderFamilySummaryTable(scs, sums))
	}

	if params.Runs < 2 {
		return
	}
	// Replication statistics: every summary above is already cached, so
	// the CI reduction re-runs nothing.
	outs, err := engine.FamilyCI(name, sc, params.Runs)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	elapsed = time.Since(start).Round(time.Millisecond) //rapidlint:allow nondeterminism — wall-clock progress timing for the operator
	for _, out := range outs {
		if err := writeOutput(out, out.Figure.ID, out.Figure.Title, outDir, sc, elapsed, plotW, plotH, quiet); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}
}
