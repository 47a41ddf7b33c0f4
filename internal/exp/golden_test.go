package exp_test

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"rapid/internal/exp"
)

var updateGolden = flag.Bool("update", false, "rewrite the golden figure checksums")

const goldenPath = "testdata/golden_tiny.json"

// TestGoldenFigures regenerates every experiment at tiny scale and
// compares SHA-256 checksums of the rendered artifacts (.dat series
// and table renderings) against the checked-in goldens — the automated
// replacement for the "figures byte-identical" claims earlier PRs
// asserted by hand. A legitimate figure change regenerates the goldens
// with `go test ./internal/exp -run TestGoldenFigures -update`.
func TestGoldenFigures(t *testing.T) {
	if testing.Short() {
		t.Skip("tiny-scale figure sweep is too heavy for -short")
	}
	sc := exp.TinyScale()
	got := map[string]string{}
	for _, e := range exp.All() {
		out := e.Run(sc)
		var buf strings.Builder
		if out.Figure != nil {
			// The checksums cover each series' label, X and Y; the
			// YErr columns are not part of them.
			fig := *out.Figure
			fig.Series = nil
			for _, s := range out.Figure.Series {
				s.YErr = nil
				fig.Series = append(fig.Series, s)
			}
			if err := fig.WriteDat(&buf); err != nil {
				t.Fatalf("%s: WriteDat: %v", e.ID, err)
			}
		}
		if out.Table != nil {
			buf.WriteString(out.Table.Render())
		}
		for _, n := range out.Notes {
			fmt.Fprintf(&buf, "note: %s\n", n)
		}
		sum := sha256.Sum256([]byte(buf.String()))
		got[e.ID] = hex.EncodeToString(sum[:])
	}

	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s with %d checksums", goldenPath, len(got))
		return
	}

	data, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("missing goldens (%v) — run with -update to create them", err)
	}
	want := map[string]string{}
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatalf("corrupt goldens: %v", err)
	}
	ids := make([]string, 0, len(got))
	for id := range got {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for _, id := range ids {
		w, ok := want[id]
		if !ok {
			t.Errorf("%s: no golden checksum — run with -update after reviewing the new experiment", id)
			continue
		}
		if got[id] != w {
			t.Errorf("%s: output changed (sha256 %s, golden %s) — if intended, regenerate with -update",
				id, got[id][:12], w[:12])
		}
	}
	for id := range want {
		if _, ok := got[id]; !ok {
			t.Errorf("%s: golden exists but experiment is gone — regenerate with -update", id)
		}
	}
}
