// Package boosting is a complete reproduction of Smith, Horowitz and Lam,
// "Efficient Superscalar Performance Through Boosting" (ASPLOS V, 1992):
// a trace-based global instruction scheduler with boosting — architectural
// support for general speculative execution in statically-scheduled
// superscalar processors — together with the machine models, simulators,
// benchmark workloads and experiment harness needed to regenerate every
// table and figure of the paper's evaluation.
//
// This package is the high-level facade. The full machinery lives in the
// internal packages:
//
//	internal/isa        MIPS-R2000-like instruction set with boost labels
//	internal/prog       program IR: basic blocks, CFG, builder, verifier
//	internal/dataflow   dominators, liveness, loops/regions, equivalence
//	internal/profile    branch profiling and static prediction
//	internal/ddg        trace data-dependence graphs
//	internal/regalloc   round-robin register allocation (+ spilling)
//	internal/core       the boosting trace scheduler (the contribution)
//	internal/machine    processor models and machine schedules
//	internal/sim        reference interpreter + boosting hardware simulator
//	internal/dynsched   dynamically-scheduled (Tomasulo/ROB/BTB) baseline
//	internal/workloads  the seven benchmark kernels
//	internal/hwcost     shadow register file hardware cost model
//	internal/memhier    configurable memory hierarchy: caches, MSHRs, prefetch
//	internal/cache      concurrency-safe memoization with singleflight
//	internal/artifact   serializable compile artifacts: codec, disk store, peer fetch
//	internal/experiments concurrent tables/figures harness
//
// # Quick start
//
// The staged Pipeline API compiles once and simulates many times, with
// every shared artifact memoized and every stage cancellable:
//
//	p := boosting.NewPipeline()
//	c, err := p.Compile(ctx, boosting.WorkloadGrep)
//	res, err := p.Simulate(ctx, c, boosting.Models().MinBoost3)
//	// res.Cycles, res.Speedup (vs scalar R2000), res.Out ...
//
// Ablations are functional options (boosting.WithLocalOnly,
// boosting.WithInfiniteRegisters, ...), and Pipeline.Grid runs a whole
// (workload × model × options) batch concurrently with deterministic
// result order. Pipeline.Run is Compile followed by Simulate, for
// one-off runs.
package boosting

import (
	"context"
	"fmt"
	"strings"

	"boosting/internal/core"
	"boosting/internal/machine"
	"boosting/internal/passes"
	"boosting/internal/workloads"
)

// CompileStats is the structured per-pass report of one compile: every
// pass's name and wall time, with the "schedule" row expanded into the
// trace scheduler's stage rows (trace-select, ddg-build, list-schedule,
// recovery-emit) and carrying the full SchedulerStats payload. It is an
// alias of the internal pass-manager schema, following the precedent of
// machine.Model being exposed directly.
type CompileStats = passes.CompileStats

// PassStats is one row of a CompileStats report.
type PassStats = passes.PassStats

// SchedulerStats is the trace scheduler's counter set: traces formed,
// motions attempted/placed, rejections bucketed by reason, boosted
// instruction counts per level, compensation copies, recovery
// instructions, per-stage times and analysis-cache activity.
type SchedulerStats = core.Stats

// RejectReasons lists every motion-rejection bucket that can appear in
// SchedulerStats.Rejections.
func RejectReasons() []string { return core.RejectReasons() }

// Workload names accepted by Pipeline.Compile and returned by Workloads().
const (
	WorkloadAWK      = "awk"
	WorkloadCompress = "compress"
	WorkloadEqntott  = "eqntott"
	WorkloadEspresso = "espresso"
	WorkloadGrep     = "grep"
	WorkloadNroff    = "nroff"
	WorkloadXLisp    = "xlisp"
)

// Workloads returns the names of the benchmark set in the paper's order.
func Workloads() []string {
	var out []string
	for _, w := range workloads.All() {
		out = append(out, w.Name)
	}
	return out
}

// ModelSet bundles the processor configurations of the paper.
type ModelSet struct {
	Scalar    *machine.Model // single-issue MIPS R2000 baseline
	NoBoost   *machine.Model // 2-issue superscalar, no speculation hardware
	Squashing *machine.Model // squashing pipeline only (Option 3)
	Boost1    *machine.Model // one shadow register file + store buffer
	MinBoost3 *machine.Model // single shadow file, 3 levels, no store buffer
	Boost7    *machine.Model // full shadow structures, 7 levels
}

// Models returns fresh instances of every evaluated machine model.
func Models() ModelSet {
	return ModelSet{
		Scalar:    machine.Scalar(),
		NoBoost:   machine.NoBoost(),
		Squashing: machine.Squashing(),
		Boost1:    machine.Boost1(),
		MinBoost3: machine.MinBoost3(),
		Boost7:    machine.Boost7(),
	}
}

// Result reports a compiled-and-simulated run.
type Result struct {
	// Compile is the per-pass report of this run's schedule (the
	// memoized artifact build reports separately via
	// Compiled.CompileStats).
	Compile *CompileStats
	// Cycles is the machine cycles consumed on the test input.
	Cycles int64
	// ScalarCycles is the R2000 baseline on the same input.
	ScalarCycles int64
	// Speedup is ScalarCycles/Cycles.
	Speedup float64
	// Insts counts useful instructions issued (including squashed
	// speculative work).
	Insts int64
	// BoostedExec and Squashed count speculative activity.
	BoostedExec int64
	Squashed    int64
	// MemStalls is the total cycles lost to the memory hierarchy; zero
	// unless the run was configured with WithMemHier. BoostedMemStalls
	// is the share incurred by speculative (boosted) accesses, and
	// SquashedMemStalls the share spent stalling on speculative accesses
	// whose work was later squashed — pure loss, the cost the
	// no-boosted-loads ablation isolates.
	MemStalls         int64
	BoostedMemStalls  int64
	SquashedMemStalls int64
	// Mem carries the full hierarchy counters (hit/miss per level, MSHR
	// and write-buffer activity, prefetch accuracy); nil without
	// WithMemHier.
	Mem *MemStats
	// PredictionAccuracy is the static predictor's accuracy on this run.
	PredictionAccuracy float64
	// ObjectGrowth is scheduled size (with recovery code) over original.
	ObjectGrowth float64
	// Out is the program's observable output (verified against the
	// reference interpreter before this Result is returned).
	Out []uint32
}

// DynamicResult reports a run on the dynamically-scheduled machine.
type DynamicResult struct {
	Cycles       int64
	ScalarCycles int64
	Speedup      float64
	Mispredicts  int64
	// MemStalls and Mem report memory-hierarchy activity when the run
	// was configured with WithMemHier (zero/nil otherwise).
	MemStalls int64
	Mem       *MemStats
	Out       []uint32
}

// ModelByName resolves a machine-model name as used by the CLI tools:
// "R2000"/"scalar", "NoBoost"/"base", "Squashing"/"squash", "Boost1",
// "MinBoost3", "Boost7" (case-insensitive).
func ModelByName(name string) (*machine.Model, error) {
	ms := Models()
	switch strings.ToLower(name) {
	case "r2000", "scalar":
		return ms.Scalar, nil
	case "noboost", "base":
		return ms.NoBoost, nil
	case "squashing", "squash":
		return ms.Squashing, nil
	case "boost1":
		return ms.Boost1, nil
	case "minboost3":
		return ms.MinBoost3, nil
	case "boost7":
		return ms.Boost7, nil
	}
	return nil, fmt.Errorf("boosting: unknown model %q (want R2000, NoBoost, Squashing, Boost1, MinBoost3 or Boost7)", name)
}

// ScheduleListing compiles the workload for the model and returns the
// formatted machine schedule (cycles × issue slots, boosting labels,
// recovery sites) for inspection.
func ScheduleListing(ctx context.Context, workload string, model *machine.Model, opts ...Option) (string, error) {
	p := NewPipeline()
	c, err := p.Compile(ctx, workload, opts...)
	if err != nil {
		return "", err
	}
	cfg := p.base.apply(opts)
	test := c.Program()
	sp, err := core.Schedule(test, model, cfg.core)
	if err != nil {
		return "", err
	}
	var sb strings.Builder
	for _, name := range test.Order {
		sb.WriteString(sp.Procs[name].Format())
	}
	return sb.String(), nil
}
