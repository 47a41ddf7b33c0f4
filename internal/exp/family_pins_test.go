package exp_test

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"hash"
	"os"
	"sort"
	"testing"

	"rapid/internal/exp"
	"rapid/internal/scenario"
)

var updatePins = flag.Bool("update-family-pins", false, "rewrite the family expansion pins")

const pinsPath = "testdata/family_pins.json"

// hashValue feeds v's Go-syntax rendering to h, one value a line.
func hashValue(h hash.Hash, v any) { fmt.Fprintf(h, "%#v\n", v) }

// pinExpansion is "<count> <sha256>" of a family's expanded grid.
func pinExpansion(t *testing.T, name string, p scenario.Params) string {
	t.Helper()
	scs, err := scenario.Expand(name, p)
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	for _, s := range scs {
		hashValue(h, s)
	}
	return fmt.Sprintf("%d %s", len(scs), hex.EncodeToString(h.Sum(nil)))
}

// TestFamilyExpansionPins pins every family's grid — scenario count and
// a SHA-256 of every scenario in order — at DefaultParams and at each
// scale's FamilyParams, together with a SHA-256 of those FamilyParams.
// A refactor of the registry or of the scale mapping must leave them
// all unchanged; an intended grid change regenerates them with
// `go test ./internal/exp -run TestFamilyExpansionPins -update-family-pins`.
func TestFamilyExpansionPins(t *testing.T) {
	got := map[string]string{}
	for _, f := range scenario.Families() {
		got[f.Name+" DefaultParams"] = pinExpansion(t, f.Name, scenario.DefaultParams())
		for _, sc := range []exp.Scale{exp.TinyScale(), exp.DefaultScale(), exp.FullScale()} {
			p := exp.FamilyParams(f.Name, sc)
			h := sha256.New()
			hashValue(h, p)
			got[f.Name+" "+sc.Name] = pinExpansion(t, f.Name, p) + " params " + hex.EncodeToString(h.Sum(nil))
		}
	}

	if *updatePins {
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(pinsPath, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s with %d pins", pinsPath, len(got))
		return
	}

	data, err := os.ReadFile(pinsPath)
	if err != nil {
		t.Fatalf("missing pins (%v) — run with -update-family-pins to create them", err)
	}
	want := map[string]string{}
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatalf("corrupt pins: %v", err)
	}
	keys := make([]string, 0, len(got))
	for k := range got {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		if w, ok := want[k]; !ok {
			t.Errorf("%s: no pin — run with -update-family-pins after reviewing the new family", k)
		} else if got[k] != w {
			t.Errorf("%s: expansion changed\n got  %s\n want %s", k, got[k], w)
		}
	}
	for k := range want {
		if _, ok := got[k]; !ok {
			t.Errorf("%s: pinned but no longer produced", k)
		}
	}
}
