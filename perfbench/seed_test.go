package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"testing"

	"boosting"
	"boosting/internal/prog"
	"boosting/internal/workloads"
)

func TestSameSeedSameInputs(t *testing.T) {
	for _, seed := range []int64{0, 1, 42} {
		a, b := newAsmPlan(seed), newAsmPlan(seed)
		for _, j := range []int{0, 1, asmPool - 1} {
			x, err := a.body(j, 3)
			if err != nil {
				t.Fatal(err)
			}
			y, _ := b.body(j, 3)
			if !bytes.Equal(x, y) {
				t.Fatalf("seed %d: request body %d differs between two plans", seed, j)
			}
		}
		if fmt.Sprint(a.hits) != fmt.Sprint(b.hits) {
			t.Fatalf("seed %d: repeated bodies differ", seed)
		}
		if fmt.Sprint(cellKeys(sweepCells(seed))) != fmt.Sprint(cellKeys(sweepCells(seed))) {
			t.Fatalf("seed %d: sweep cells differ", seed)
		}
		oa, ob := passOrder(seed, 7), passOrder(seed, 7)
		for pass := 0; pass < 3; pass++ {
			if fmt.Sprint(oa()) != fmt.Sprint(ob()) {
				t.Fatalf("seed %d: pass %d kernel order differs", seed, pass)
			}
		}
	}
}

func TestSeedDrivesInputs(t *testing.T) {
	x, _ := newAsmPlan(1).body(0, 0)
	y, _ := newAsmPlan(2).body(0, 0)
	if bytes.Equal(x, y) {
		t.Error("seeds 1 and 2 give the same first request body")
	}
	if fmt.Sprint(cellKeys(sweepCells(1))) == fmt.Sprint(cellKeys(sweepCells(2))) {
		t.Error("seeds 1 and 2 give the same sweep cells")
	}
	if got, want := len(sweepCells(1)), sweepKeep*len(workloads.All()); got != want {
		t.Errorf("sweep has %d cells, want %d", got, want)
	}
	// Round tags keep a key's body new to the server in every round.
	r0, _ := newAsmPlan(1).body(0, 0)
	r1, _ := newAsmPlan(1).body(0, 1)
	if bytes.Equal(r0, r1) {
		t.Error("rounds 0 and 1 send the same body")
	}
	if fmt.Sprint(passOrder(1, 7)()) == fmt.Sprint(passOrder(2, 7)()) {
		t.Error("seeds 1 and 2 visit the kernels in the same order")
	}
	// The kernel set is the paper's: same inputs, same programs.
	ks, err := kernelSet()
	if err != nil {
		t.Fatal(err)
	}
	for i, w := range workloads.All() {
		if ks[i].Name != w.Name || ks[i].Test != w.Test || ks[i].Train != w.Train {
			t.Errorf("kernel set entry %d is %s %+v, want %s %+v", i, ks[i].Name, ks[i].Test, w.Name, w.Test)
		}
	}
	if prog.FormatProgram(ks[0].BuildTest()) != prog.FormatProgram(workloads.All()[0].BuildTest()) {
		t.Errorf("%s test program differs from the paper's", ks[0].Name)
	}
}

func cellKeys(cells []boosting.GridCell) []string {
	var out []string
	for _, c := range cells {
		out = append(out, cellKey(c))
	}
	return out
}

// TestDefaultSeedSpeedup checks paper-eval's speedup_gm against
// EXPERIMENTS.md's Figure 9 geometric mean, 1.35x. The seed only orders
// the kernels, so this holds at every seed.
func TestDefaultSeedSpeedup(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the full evaluation")
	}
	ks, err := kernelSet()
	if err != nil {
		t.Fatal(err)
	}
	var gms []float64
	for _, w := range ks {
		ev, err := evaluate(context.Background(), newKernelSuite(w), nil, 0, -1)
		if err != nil {
			t.Fatal(err)
		}
		gms = append(gms, ev.mb3Speedup)
	}
	if got := math.Round(geoMean(gms)*100) / 100; got != 1.35 {
		t.Errorf("speedup_gm = %.4f, rounds to %.2f; want 1.35", geoMean(gms), got)
	}
}

// TestBenchmarkJSON keeps BENCHMARK.json and the metrics the command
// reports in step.
func TestBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	if len(b.Workloads) != len(workloadRuns) {
		t.Errorf("BENCHMARK.json names %d workloads, the command runs %d", len(b.Workloads), len(workloadRuns))
	}
	for _, w := range b.Workloads {
		if workloadRuns[w.Name] == nil {
			t.Errorf("workload %s has no run", w.Name)
		}
	}
	check := func(kind string, got []struct{ Name, Unit string }, want []metricSpec) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json declares %d metrics, the command reports %d", kind, len(got), len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d] = %s %s, want %s %s", kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", b.EndToEnd, endToEnd)
	check("per_layer", b.PerLayer, perLayer)
}
