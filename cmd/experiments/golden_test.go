package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/all.golden and testdata/all.csv.golden")

// goldenCounts are the -metrics-json counts of one `-all` run. They move
// only when a simulated number moves, so they pin the harness's work as
// well as its output.
var goldenCounts = map[string]int64{
	"builds":           14,
	"simulations":      224,
	"simulated_cycles": 51_276_476,
	"boosted_executed": 4_387_616,
	"squashed":         792_884,
}

// TestAllGolden pins the paper's output: one `-all -csv FILE
// -metrics-json` run must print exactly testdata/all.golden before the
// CSV notice, write exactly testdata/all.csv.golden, and report the
// golden counts. Regenerate both files with `make experiments-golden`
// (go test -run TestAllGolden -update ./cmd/experiments/).
func TestAllGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("full experiment run in -short mode")
	}
	csvPath := filepath.Join(t.TempDir(), "all.csv")
	var out, errw bytes.Buffer
	if code := run([]string{"-all", "-csv", csvPath, "-metrics-json"}, &out, &errw); code != 0 {
		t.Fatalf("run = %d (stderr: %s)", code, errw.String())
	}
	tables, metrics, ok := strings.Cut(out.String(), "wrote "+csvPath+"\n")
	if !ok {
		t.Fatalf("stdout lacks the CSV notice:\n%s", out.String())
	}
	csv, err := os.ReadFile(csvPath)
	if err != nil {
		t.Fatal(err)
	}
	for _, g := range []struct {
		name string
		got  []byte
	}{
		{"all.golden", []byte(tables)},
		{"all.csv.golden", csv},
	} {
		path := filepath.Join("testdata", g.name)
		if *updateGolden {
			if err := os.WriteFile(path, g.got, 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("missing golden file (run `make experiments-golden`): %v", err)
		}
		if !bytes.Equal(g.got, want) {
			t.Errorf("%s drifted from the golden output:\n--- got ---\n%s\n--- want ---\n%s", path, g.got, want)
		}
	}

	var counts map[string]any
	if err := json.Unmarshal([]byte(metrics), &counts); err != nil {
		t.Fatalf("metrics JSON: %v\n%s", err, metrics)
	}
	for key, want := range goldenCounts {
		got, ok := counts[key].(float64)
		if !ok || int64(got) != want {
			t.Errorf("metrics %s = %v, want %d", key, counts[key], want)
		}
	}
}
