package service

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"testing"
)

// TestSimulateAsmWithMem exercises the mem block on the assembly path:
// the hierarchy slows the run without changing what it computes, the
// response carries the hierarchy counters, and the mem block is part of
// the response-cache key (the perfect-memory result must not be served
// for the finite-memory request or vice versa).
func TestSimulateAsmWithMem(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	asm, _ := json.Marshal(testAsm(77))

	resp, b := post(t, ts, "/v1/simulate",
		fmt.Sprintf(`{"asm": %s, "model": "MinBoost3"}`, asm))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("perfect-memory simulate = %d: %s", resp.StatusCode, b)
	}
	var perfect SimulateResponse
	if err := json.Unmarshal(b, &perfect); err != nil {
		t.Fatalf("decoding: %v", err)
	}
	if perfect.Mem != nil {
		t.Errorf("perfect-memory response carries a mem block: %+v", perfect.Mem)
	}

	// A tiny direct-mapped single-level cache so the toy program misses.
	memBlock := `"mem": {"l1_sets": 4, "l1_ways": 1, "l1_line_bytes": 8, "l2_sets": -1, "mem_latency": 20}`
	resp, b = post(t, ts, "/v1/simulate",
		fmt.Sprintf(`{"asm": %s, "model": "MinBoost3", %s}`, asm, memBlock))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("mem simulate = %d: %s", resp.StatusCode, b)
	}
	var hier SimulateResponse
	if err := json.Unmarshal(b, &hier); err != nil {
		t.Fatalf("decoding: %v", err)
	}
	if hier.Mem == nil || hier.Mem.Accesses == 0 || hier.Mem.L1Misses == 0 {
		t.Fatalf("mem response has no hierarchy counters: %s", b)
	}
	if hier.Cycles <= perfect.Cycles {
		t.Errorf("hierarchy run %d cycles, want > perfect %d", hier.Cycles, perfect.Cycles)
	}
	if hier.Cycles != perfect.Cycles+hier.Mem.MemStalls {
		t.Errorf("cycles %d != perfect %d + stalls %d",
			hier.Cycles, perfect.Cycles, hier.Mem.MemStalls)
	}
	if hier.Insts != perfect.Insts || hier.OutLen != perfect.OutLen {
		t.Errorf("architectural results changed under the hierarchy: %+v vs %+v", hier, perfect)
	}
	if hier.ScalarCycles <= perfect.ScalarCycles {
		t.Errorf("scalar baseline %d not re-measured under the hierarchy (perfect %d)",
			hier.ScalarCycles, perfect.ScalarCycles)
	}

	// The dynamic baseline honors the same block.
	resp, b = post(t, ts, "/v1/simulate",
		fmt.Sprintf(`{"asm": %s, "dynamic": true, %s}`, asm, memBlock))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("dynamic mem simulate = %d: %s", resp.StatusCode, b)
	}
	var dyn SimulateResponse
	if err := json.Unmarshal(b, &dyn); err != nil {
		t.Fatalf("decoding: %v", err)
	}
	if dyn.Mem == nil || dyn.Mem.MemStalls == 0 {
		t.Errorf("dynamic mem response has no hierarchy counters: %s", b)
	}

	// The metrics endpoint saw the finite-memory runs (boosted run,
	// scalar baselines, dynamic run — at least three).
	_, mb := get(t, ts, "/metrics")
	for _, want := range []string{
		"boostd_mem_runs_total",
		"boostd_mem_accesses_total",
		`boostd_mem_misses_total{level="l1"}`,
		"boostd_mem_stall_cycles_total",
	} {
		if !strings.Contains(string(mb), want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
	if strings.Contains(string(mb), "boostd_mem_runs_total 0\n") {
		t.Errorf("boostd_mem_runs_total still zero after finite-memory simulations")
	}
}

// TestSimulateWorkloadWithMem exercises the mem block on the workload
// path, where the shared pipeline re-measures the scalar baseline under
// the hierarchy so speedup stays like-for-like.
func TestSimulateWorkloadWithMem(t *testing.T) {
	if testing.Short() {
		t.Skip("workload simulation in -short mode")
	}
	_, ts := newTestServer(t, Config{})

	resp, b := post(t, ts, "/v1/simulate",
		`{"workload": "grep", "model": "MinBoost3", "mem": {"l1_sets": 64, "l1_ways": 1, "l1_line_bytes": 16}}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("workload mem simulate = %d: %s", resp.StatusCode, b)
	}
	var sr SimulateResponse
	if err := json.Unmarshal(b, &sr); err != nil {
		t.Fatalf("decoding: %v", err)
	}
	if sr.Mem == nil || sr.Mem.L1Misses == 0 || sr.Mem.MemStalls == 0 {
		t.Fatalf("workload mem response has no hierarchy activity: %s", b)
	}
	if sr.Speedup <= 1 {
		t.Errorf("boosting under the hierarchy lost to scalar: %+v", sr)
	}
}

// TestMemRequestValidation: a mem block that resolves to an invalid
// configuration is rejected up front with a 400 naming the field.
func TestMemRequestValidation(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	for _, tc := range []struct{ name, block string }{
		{"non-power-of-two sets", `{"l1_sets": 3}`},
		{"bad policy", `{"l1_policy": "plru"}`},
		{"bad prefetcher", `{"prefetch": "markov"}`},
	} {
		body := fmt.Sprintf(`{"asm": %q, "model": "MinBoost3", "mem": %s}`, "halt", tc.block)
		resp, b := post(t, ts, "/v1/simulate", body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400: %s", tc.name, resp.StatusCode, b)
		}
	}
}

// TestGridWithMem: the grid sweep accepts a mem block and every cell
// runs under it (visible as cycle counts above the perfect-memory
// sweep's).
func TestGridWithMem(t *testing.T) {
	if testing.Short() {
		t.Skip("grid sweep in -short mode")
	}
	_, ts := newTestServer(t, Config{})
	base := `{"workloads": ["grep"], "models": ["MinBoost3"], "ablations": ["baseline"]`

	resp, b := post(t, ts, "/v1/grid", base+`}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("grid = %d: %s", resp.StatusCode, b)
	}
	var perfect GridResponse
	if err := json.Unmarshal(b, &perfect); err != nil {
		t.Fatalf("decoding: %v", err)
	}

	resp, b = post(t, ts, "/v1/grid",
		base+`, "mem": {"l1_sets": 64, "l1_ways": 1, "l1_line_bytes": 16}}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("mem grid = %d: %s", resp.StatusCode, b)
	}
	var hier GridResponse
	if err := json.Unmarshal(b, &hier); err != nil {
		t.Fatalf("decoding: %v", err)
	}
	if len(hier.Rows) != 1 || hier.Rows[0].Error != "" {
		t.Fatalf("bad mem grid rows: %s", b)
	}
	if hier.Rows[0].Cycles <= perfect.Rows[0].Cycles {
		t.Errorf("mem grid cell %d cycles, want > perfect %d",
			hier.Rows[0].Cycles, perfect.Rows[0].Cycles)
	}

	// The row's speedup is over the scalar baseline measured under the
	// same hierarchy, as /v1/simulate reports it.
	var sims [2]SimulateResponse
	for i, mem := range []string{``, `, "mem": {"l1_sets": 64, "l1_ways": 1, "l1_line_bytes": 16}`} {
		resp, b := post(t, ts, "/v1/simulate", `{"workload": "grep", "model": "MinBoost3"`+mem+`}`)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("simulate = %d: %s", resp.StatusCode, b)
		}
		if err := json.Unmarshal(b, &sims[i]); err != nil {
			t.Fatalf("decoding: %v", err)
		}
	}
	if sims[1].ScalarCycles <= sims[0].ScalarCycles {
		t.Fatalf("scalar baseline under mem %d cycles, want > perfect %d", sims[1].ScalarCycles, sims[0].ScalarCycles)
	}
	if hier.Rows[0].Cycles != sims[1].Cycles || hier.Rows[0].Speedup != sims[1].Speedup {
		t.Errorf("mem grid row %+v, want the mem simulate's %d cycles and %v speedup",
			hier.Rows[0], sims[1].Cycles, sims[1].Speedup)
	}
}

// TestGridMemSweep: mem_sweep fans each cell out over several memory
// hierarchies as one batched execution, one row per (cell, hierarchy),
// and each row matches what the equivalent single-mem grid reports.
func TestGridMemSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("grid sweep in -short mode")
	}
	_, ts := newTestServer(t, Config{})
	base := `{"workloads": ["grep"], "models": ["MinBoost3"], "ablations": ["baseline"]`
	small := `{"l1_sets": 64, "l1_ways": 1, "l1_line_bytes": 16}`
	stride := `{"l1_sets": 64, "l1_ways": 1, "l1_line_bytes": 16, "prefetch": "stride"}`

	resp, b := post(t, ts, "/v1/grid",
		base+`, "mem_sweep": [`+small+`, `+stride+`]}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("mem_sweep grid = %d: %s", resp.StatusCode, b)
	}
	var sweep GridResponse
	if err := json.Unmarshal(b, &sweep); err != nil {
		t.Fatalf("decoding: %v", err)
	}
	if sweep.Cells != 2 || len(sweep.Rows) != 2 {
		t.Fatalf("want 2 rows (1 cell × 2 hierarchies), got: %s", b)
	}
	for i, row := range sweep.Rows {
		if row.Error != "" {
			t.Fatalf("row %d failed: %s", i, row.Error)
		}
		if row.Mem == "" {
			t.Errorf("row %d has no mem label: %s", i, b)
		}
	}
	if sweep.Rows[0].Mem == sweep.Rows[1].Mem {
		t.Errorf("sweep rows share a mem label: %s", b)
	}

	// Each lane must report exactly what a solo single-mem grid does.
	for i, block := range []string{small, stride} {
		resp, b := post(t, ts, "/v1/grid", base+`, "mem": `+block+`}`)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("solo mem grid = %d: %s", resp.StatusCode, b)
		}
		var solo GridResponse
		if err := json.Unmarshal(b, &solo); err != nil {
			t.Fatalf("decoding: %v", err)
		}
		if solo.Rows[0].Cycles != sweep.Rows[i].Cycles ||
			solo.Rows[0].Speedup != sweep.Rows[i].Speedup {
			t.Errorf("lane %d diverges from solo grid: sweep %+v solo %+v",
				i, sweep.Rows[i], solo.Rows[0])
		}
	}

	// mem and mem_sweep together are rejected up front.
	resp, b = post(t, ts, "/v1/grid",
		base+`, "mem": `+small+`, "mem_sweep": [`+stride+`]}`)
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("mem+mem_sweep = %d, want 400: %s", resp.StatusCode, b)
	}
}

// TestGridMemSweepSchedulesOnce: a mem_sweep grid on a fresh server
// schedules each (workload, model, ablation) cell once, however many
// hierarchies it sweeps and however many workers run it. Its only other
// schedules are the scalar baselines, one per workload for all its
// hierarchies.
func TestGridMemSweepSchedulesOnce(t *testing.T) {
	if testing.Short() {
		t.Skip("grid sweep in -short mode")
	}
	s, ts := newTestServer(t, Config{GridParallelism: 4})
	small := `{"l1_sets": 64, "l1_ways": 1, "l1_line_bytes": 16}`
	stride := `{"l1_sets": 64, "l1_ways": 1, "l1_line_bytes": 16, "prefetch": "stride"}`
	stream := `{"l1_sets": 32, "l1_ways": 2, "l1_line_bytes": 16, "prefetch": "stream"}`
	resp, b := post(t, ts, "/v1/grid", `{"workloads": ["grep", "compress"],
		"models": ["MinBoost3", "Boost7"], "ablations": ["baseline", "no-equiv"],
		"mem_sweep": [`+small+`, `+stride+`, `+stream+`]}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("mem_sweep grid = %d: %s", resp.StatusCode, b)
	}
	var gr GridResponse
	if err := json.Unmarshal(b, &gr); err != nil {
		t.Fatalf("decoding: %v", err)
	}
	const cells, workloads, hiers = 8, 2, 3
	if gr.Cells != cells*hiers || len(gr.Rows) != cells*hiers {
		t.Fatalf("want %d rows, got: %s", cells*hiers, b)
	}
	for i, row := range gr.Rows {
		if row.Error != "" {
			t.Fatalf("row %d failed: %s", i, row.Error)
		}
	}
	if got, want := s.Pipeline().SchedulePasses(), int64(cells+workloads); got != want {
		t.Errorf("scheduler ran %d times, want %d (%d cells, %d scalar baselines)",
			got, want, cells, workloads)
	}
}

// TestSimulateUntouchedReserve: a body that reserves 128 MiB of BSS it
// never touches simulates like any small program.
func TestSimulateUntouchedReserve(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	asm, _ := json.Marshal(".reserve 67108864\n.reserve 67108864\n.proc main\nentry:\n\thalt\n")
	resp, b := post(t, ts, "/v1/simulate", fmt.Sprintf(`{"asm": %s, "model": "MinBoost3"}`, asm))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("simulate = %d: %s", resp.StatusCode, b)
	}
}
