package exp_test

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"rapid/internal/exp"
)

var updateGolden = flag.Bool("update", false, "rewrite the golden figure texts")

const goldenDir = "testdata/golden_tiny"

// goldenText is an artifact's golden rendering: the .dat series
// (error columns included), then the table, then one "note:" line per
// note.
func goldenText(t *testing.T, id string, out exp.Output) string {
	var buf strings.Builder
	if out.Figure != nil {
		if err := out.Figure.WriteDat(&buf); err != nil {
			t.Fatalf("%s: WriteDat: %v", id, err)
		}
	}
	if out.Table != nil {
		buf.WriteString(out.Table.Render())
	}
	for _, n := range out.Notes {
		fmt.Fprintf(&buf, "note: %s\n", n)
	}
	return buf.String()
}

// firstDiff reports the first line where got and want differ.
func firstDiff(got, want string) string {
	g, w := strings.Split(got, "\n"), strings.Split(want, "\n")
	for i := 0; i < max(len(g), len(w)); i++ {
		var gl, wl string
		if i < len(g) {
			gl = g[i]
		}
		if i < len(w) {
			wl = w[i]
		}
		if gl != wl || i >= len(g) || i >= len(w) {
			return fmt.Sprintf("line %d:\n got  %q\n want %q", i+1, gl, wl)
		}
	}
	return "no difference"
}

// TestGoldenFigures regenerates every experiment at tiny scale and
// compares its rendering (.dat series, table, notes) against the
// checked-in text in testdata/golden_tiny/<id>.txt, so `git diff`
// shows which numbers a change moved. A legitimate figure change
// regenerates the goldens with
// `go test ./internal/exp -run TestGoldenFigures -update`.
func TestGoldenFigures(t *testing.T) {
	if testing.Short() {
		t.Skip("tiny-scale figure sweep is too heavy for -short")
	}
	sc, engine := exp.TinyScale(), exp.NewEngine(0, 0)
	got := map[string]string{}
	for _, e := range exp.All() {
		got[e.ID] = goldenText(t, e.ID, e.Run(engine, sc))
	}

	if *updateGolden {
		if err := os.RemoveAll(goldenDir); err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(goldenDir, 0o755); err != nil {
			t.Fatal(err)
		}
		for id, text := range got {
			if err := os.WriteFile(filepath.Join(goldenDir, id+".txt"), []byte(text), 0o644); err != nil {
				t.Fatal(err)
			}
		}
		t.Logf("rewrote %s with %d goldens", goldenDir, len(got))
		return
	}

	ids := make([]string, 0, len(got))
	for id := range got {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for _, id := range ids {
		want, err := os.ReadFile(filepath.Join(goldenDir, id+".txt"))
		if err != nil {
			t.Errorf("%s: no golden (%v) — run with -update after reviewing the new experiment", id, err)
			continue
		}
		if got[id] != string(want) {
			t.Errorf("%s: output changed at %s\nif intended, regenerate with -update", id, firstDiff(got[id], string(want)))
		}
	}
	files, err := filepath.Glob(filepath.Join(goldenDir, "*.txt"))
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range files {
		if _, ok := got[strings.TrimSuffix(filepath.Base(f), ".txt")]; !ok {
			t.Errorf("%s: golden exists but experiment is gone — regenerate with -update", f)
		}
	}
}
