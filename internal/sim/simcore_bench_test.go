package sim_test

// Throughput benchmarks for the simulator cores, plus the BENCH_simcore.json
// writer and the committed-baseline regression gate that CI runs.
//
//	go test -bench BenchmarkSimCore -benchmem ./internal/sim/   ad-hoc numbers
//	make bench-simcore                                          rewrite BENCH_simcore.json
//	make bench-simcore-check                                    fail on >15% fast-core regression

import (
	"encoding/json"
	"fmt"
	"os"
	"testing"
	"time"

	"boosting/internal/core"
	"boosting/internal/machine"
	"boosting/internal/memhier"
	"boosting/internal/profile"
	"boosting/internal/prog"
	"boosting/internal/regalloc"
	"boosting/internal/sim"
	"boosting/internal/testgen"
)

// simcoreWorkloads are the benchmark programs: the two longest-running
// kernels, on the deepest boosting model, where executor overhead
// dominates.
var simcoreWorkloads = []string{"eqntott", "espresso"}

// maxNsPerCycle is the ceiling the writer enforces on the fast core's
// ns per simulated cycle: >=1.5x better than the ~34 ns/cycle the
// pre-threaded-dispatch core measured.
const maxNsPerCycle = 34.0 / 1.5

func scheduleBoost7(tb testing.TB, name string) *machine.SchedProgram {
	tb.Helper()
	master := compileWorkload(tb, name)
	sp, err := core.Schedule(prog.Clone(master), machine.Boost7(), core.Options{})
	if err != nil {
		tb.Fatal(err)
	}
	return sp
}

// BenchmarkSimCore measures whole-run simulation throughput of the fast
// core and of the oracle interpreter ("legacy", the name
// BENCH_simcore.json records it under) on the long kernels, reporting
// allocations and normalized ns per simulated machine cycle.
func BenchmarkSimCore(b *testing.B) {
	executors := []struct {
		name string
		exec executor
	}{{"fast", sim.Exec}, {"legacy", sim.ExecOracle}}
	for _, name := range simcoreWorkloads {
		sp := scheduleBoost7(b, name)
		for _, e := range executors {
			b.Run(e.name+"/"+name, func(b *testing.B) {
				b.ReportAllocs()
				var cycles int64
				for i := 0; i < b.N; i++ {
					res, err := e.exec(sp, sim.ExecConfig{})
					if err != nil {
						b.Fatal(err)
					}
					cycles = res.Cycles
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(cycles), "ns/simcycle")
			})
		}
	}
}

// engineBench is one executor's measurement in BENCH_simcore.json.
type engineBench struct {
	NsPerOp     float64 `json:"ns_per_op"`
	NsPerCycle  float64 `json:"ns_per_cycle"`
	AllocsPerOp float64 `json:"allocs_per_op"`
}

// workloadBench is one workload's measurement pair.
type workloadBench struct {
	Model   string      `json:"model"`
	Cycles  int64       `json:"cycles"`
	Fast    engineBench `json:"fast"`
	Legacy  engineBench `json:"legacy"`
	Speedup float64     `json:"speedup"`
}

// batchBench is one lockstep-batch measurement: N grid cells of the same
// schedule under N memory hierarchies, run as N cold solo passes
// (schedule + execute per input — what independent grid cells pay) versus
// one batched pass (schedule once, one lockstep ExecBatch).
type batchBench struct {
	N               int     `json:"n"`
	Cycles          int64   `json:"cycles"`
	SoloNsPerInput  float64 `json:"solo_ns_per_input"`
	BatchNsPerInput float64 `json:"batch_ns_per_input"`
	// ThroughputGain = SoloNsPerInput / BatchNsPerInput: per-input
	// throughput of the batched grid relative to solo cells.
	ThroughputGain float64 `json:"throughput_gain"`
}

type simcoreBenchFile struct {
	GeneratedBy string                   `json:"generated_by"`
	Workloads   map[string]workloadBench `json:"workloads"`
	// Batch holds the lockstep grid measurements: "short-kernel" is the
	// schedule-dominated regime (small program, the boostd grid /
	// mem-sweep shape) where batching must gain >= 2x per input;
	// "eqntott" documents the execution-dominated end of the range.
	Batch map[string]batchBench `json:"batch"`
}

// measureEngine times reps whole-program runs and counts steady-state
// allocations for one executor.
func measureEngine(tb testing.TB, sp *machine.SchedProgram, exec executor, reps int) (engineBench, int64) {
	tb.Helper()
	run := func() int64 {
		res, err := exec(sp, sim.ExecConfig{})
		if err != nil {
			tb.Fatal(err)
		}
		return res.Cycles
	}
	cycles := run() // warm pools and caches
	allocs := testing.AllocsPerRun(2, func() { run() })
	nsPerOp := minOverReps(reps, func() { run() })
	return engineBench{
		NsPerOp:     nsPerOp,
		NsPerCycle:  nsPerOp / float64(cycles),
		AllocsPerOp: allocs,
	}, cycles
}

// minOverReps times reps runs of f and returns the fastest in ns — the
// standard noise-resistant estimator for a deterministic workload.
func minOverReps(reps int, f func()) float64 {
	best := float64(0)
	for i := 0; i < reps; i++ {
		start := time.Now()
		f()
		if ns := float64(time.Since(start).Nanoseconds()); best == 0 || ns < best {
			best = ns
		}
	}
	return best
}

// shortKernel builds the short generated kernel of the batch benchmark's
// schedule-dominated regime: a fixed-seed testgen program through the
// production front end (register allocation + profiling).
func shortKernel(tb testing.TB) *prog.Program {
	tb.Helper()
	master := testgen.Random(7, testgen.RandomShape(7))
	if _, err := regalloc.Allocate(master); err != nil {
		tb.Fatal(err)
	}
	if err := profile.Annotate(master); err != nil {
		tb.Fatal(err)
	}
	return master
}

// measureBatch times N grid cells — the same program under N memory
// hierarchies — both as cold solo cells (schedule + execute per input)
// and as one batched pass (schedule once, one lockstep ExecBatch).
func measureBatch(tb testing.TB, master *prog.Program, n, reps int) batchBench {
	tb.Helper()
	mcfgs := make([]memhier.Config, n)
	for i := range mcfgs {
		m := memhier.Default()
		m.MemLatency = int64(20 + i)
		mcfgs[i] = m
	}
	var cycles int64
	solo := func() {
		for i := 0; i < n; i++ {
			sp, err := core.Schedule(prog.Clone(master), machine.Boost7(), core.Options{})
			if err != nil {
				tb.Fatal(err)
			}
			res, err := sim.Exec(sp, sim.ExecConfig{Mem: &mcfgs[i]})
			if err != nil {
				tb.Fatal(err)
			}
			cycles = res.Cycles
		}
	}
	batch := func() {
		sp, err := core.Schedule(prog.Clone(master), machine.Boost7(), core.Options{})
		if err != nil {
			tb.Fatal(err)
		}
		cfgs := make([]sim.ExecConfig, n)
		for i := range cfgs {
			cfgs[i] = sim.ExecConfig{Mem: &mcfgs[i]}
		}
		_, errs := sim.ExecBatch(sp, cfgs)
		for _, e := range errs {
			if e != nil {
				tb.Fatal(e)
			}
		}
	}
	solo() // warm pools and caches
	batch()
	soloNs := minOverReps(reps, solo) / float64(n)
	batchNs := minOverReps(reps, batch) / float64(n)
	return batchBench{
		N:               n,
		Cycles:          cycles,
		SoloNsPerInput:  soloNs,
		BatchNsPerInput: batchNs,
		ThroughputGain:  soloNs / batchNs,
	}
}

// TestWriteSimcoreBenchJSON measures the fast core and the oracle
// interpreter ("legacy") on the long kernels and writes
// BENCH_simcore.json (path in SIMCORE_BENCH_JSON; skipped when unset so
// `go test ./...` stays quiet). It fails outright if the fast core has
// lost its headline properties — <3x over legacy or an allocating steady
// state — so a regressed baseline cannot be committed.
func TestWriteSimcoreBenchJSON(t *testing.T) {
	out := os.Getenv("SIMCORE_BENCH_JSON")
	if out == "" {
		t.Skip("set SIMCORE_BENCH_JSON=path to write the simulator-core benchmark file")
	}
	file := simcoreBenchFile{
		GeneratedBy: "go test -run TestWriteSimcoreBenchJSON ./internal/sim/ (make bench-simcore)",
		Workloads:   map[string]workloadBench{},
		Batch:       map[string]batchBench{},
	}
	for _, name := range simcoreWorkloads {
		sp := scheduleBoost7(t, name)
		fast, cycles := measureEngine(t, sp, sim.Exec, 5)
		legacy, _ := measureEngine(t, sp, sim.ExecOracle, 3)
		wb := workloadBench{
			Model:   "Boost7",
			Cycles:  cycles,
			Fast:    fast,
			Legacy:  legacy,
			Speedup: legacy.NsPerOp / fast.NsPerOp,
		}
		file.Workloads[name] = wb
		t.Logf("%s: fast %.2fms (%.2f ns/cycle, %.0f allocs), legacy %.2fms (%.0f allocs), %.2fx",
			name, fast.NsPerOp/1e6, fast.NsPerCycle, fast.AllocsPerOp,
			legacy.NsPerOp/1e6, legacy.AllocsPerOp, wb.Speedup)
		if wb.Speedup < 3 {
			t.Errorf("%s: fast core is only %.2fx over legacy, want >= 3x", name, wb.Speedup)
		}
		if fast.AllocsPerOp > 256 {
			t.Errorf("%s: fast core allocates %.0f objects per run; steady state should be allocation-free", name, fast.AllocsPerOp)
		}
		// Threaded dispatch + superblock chaining hold the fast core under
		// 25 ns per simulated cycle on the long kernels (the pre-refactor
		// core sat at ~34); a baseline that lost that cannot be committed.
		if fast.NsPerCycle > maxNsPerCycle {
			t.Errorf("%s: fast core at %.2f ns/simulated-cycle, want <= %.0f", name, fast.NsPerCycle, maxNsPerCycle)
		}
	}
	batches := map[string]*prog.Program{
		"short-kernel": shortKernel(t),
		"eqntott":      compileWorkload(t, "eqntott"),
	}
	for name, master := range batches {
		bb := measureBatch(t, master, 8, 5)
		file.Batch[name] = bb
		t.Logf("batch %s: solo %.2fms/input, batch %.2fms/input, %.2fx",
			name, bb.SoloNsPerInput/1e6, bb.BatchNsPerInput/1e6, bb.ThroughputGain)
	}
	// The schedule-dominated regime is the point of the lockstep batch:
	// a baseline where an 8-lane grid does not at least double per-input
	// throughput over cold solo cells cannot be committed.
	if g := file.Batch["short-kernel"].ThroughputGain; g < 2 {
		t.Errorf("short-kernel batch gain %.2fx, want >= 2x", g)
	}
	if g := file.Batch["eqntott"].ThroughputGain; g < 0.9 {
		t.Errorf("eqntott batch gain %.2fx: lockstep made the exec-bound regime slower", g)
	}
	b, err := json.MarshalIndent(file, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(out, append(b, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestSimcoreBenchRegression re-measures the fast core and fails if it
// runs >15% slower than the committed BENCH_simcore.json baseline (path
// in SIMCORE_BENCH_BASELINE; skipped when unset). The comparison is on
// ns/op of the same machine-independent workloads, so run it on hardware
// comparable to what produced the baseline — CI regenerates the baseline
// when it moves for a justified reason.
func TestSimcoreBenchRegression(t *testing.T) {
	base := os.Getenv("SIMCORE_BENCH_BASELINE")
	if base == "" {
		t.Skip("set SIMCORE_BENCH_BASELINE=path to compare against a committed baseline")
	}
	raw, err := os.ReadFile(base)
	if err != nil {
		t.Fatal(err)
	}
	var want simcoreBenchFile
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	const tolerance = 1.15
	for _, name := range simcoreWorkloads {
		wb, ok := want.Workloads[name]
		if !ok {
			t.Errorf("baseline %s lacks workload %s; regenerate with make bench-simcore", base, name)
			continue
		}
		sp := scheduleBoost7(t, name)
		got, _ := measureEngine(t, sp, sim.Exec, 5)
		ratio := got.NsPerOp / wb.Fast.NsPerOp
		t.Logf("%s: fast %.2fms vs baseline %.2fms (%.2fx)", name, got.NsPerOp/1e6, wb.Fast.NsPerOp/1e6, ratio)
		if ratio > tolerance {
			t.Errorf("%s: fast core regressed to %.2fx the committed baseline (tolerance %.2fx): %s",
				name, ratio, tolerance, fmt.Sprintf("%.2fms vs %.2fms", got.NsPerOp/1e6, wb.Fast.NsPerOp/1e6))
		}
		if got.AllocsPerOp > 256 {
			t.Errorf("%s: fast core allocates %.0f objects per run; steady state should be allocation-free", name, got.AllocsPerOp)
		}
	}
	// The lockstep-batch rows: per-input batch cost must stay within
	// tolerance of the committed baseline, and the schedule-dominated
	// regime must keep its >= 2x per-input throughput gain over cold
	// solo grid cells.
	batches := map[string]*prog.Program{
		"short-kernel": shortKernel(t),
		"eqntott":      compileWorkload(t, "eqntott"),
	}
	for name, master := range batches {
		wb, ok := want.Batch[name]
		if !ok {
			t.Errorf("baseline %s lacks batch row %s; regenerate with make bench-simcore", base, name)
			continue
		}
		got := measureBatch(t, master, wb.N, 5)
		ratio := got.BatchNsPerInput / wb.BatchNsPerInput
		t.Logf("batch %s: %.2fms/input vs baseline %.2fms/input (%.2fx), gain %.2fx",
			name, got.BatchNsPerInput/1e6, wb.BatchNsPerInput/1e6, ratio, got.ThroughputGain)
		switch name {
		case "short-kernel":
			// Sub-millisecond per-input runs are too noisy for an absolute
			// cross-run tolerance; the row is a ratio benchmark — solo and
			// batch measured back to back — so the gate is the gain itself.
			if got.ThroughputGain < 2 {
				t.Errorf("batch %s: throughput gain fell to %.2fx, want >= 2x over cold solo cells",
					name, got.ThroughputGain)
			}
		default:
			if ratio > tolerance {
				t.Errorf("batch %s: per-input cost regressed to %.2fx the committed baseline (tolerance %.2fx)",
					name, ratio, tolerance)
			}
		}
	}
}
