package experiments

import (
	"context"

	"boosting/internal/core"
	"boosting/internal/machine"
	"boosting/internal/memhier"
	"boosting/internal/workloads"
)

// DynPrescheduled measures the paper's §4.3.2 suggestion: "We believe
// that we can improve the performance of the dynamic scheduler by using
// our global scheduling algorithm (without boosting) to preschedule the
// code." It feeds the dynamic machine the instruction order produced by
// the NoBoost global scheduler (whose output is plain, sequentially
// executable code) instead of the original program order.
func (s *Suite) DynPrescheduled(ctx context.Context, w *workloads.Workload, renaming bool) (int64, error) {
	return s.Store.dynMeasure(ctx, w, renaming, true)
}

// UnrolledCycles measures MinBoost3 on workloads whose innermost loops
// were unrolled ×2 before compilation (the paper's loop-unroller
// experiment).
func (s *Suite) UnrolledCycles(ctx context.Context, w *workloads.Workload) (int64, error) {
	return s.Store.unrolled(ctx, w)
}

// MeasureModel runs the standard pipeline (register allocation before
// scheduling) for one workload on one model and returns verified cycles.
func (s *Suite) MeasureModel(ctx context.Context, w *workloads.Workload, model *machine.Model) (int64, error) {
	return s.Store.measure(ctx, w, model, core.Options{}, true)
}

// DynCycles measures the dynamically-scheduled machine on the
// register-allocated test program (cached), as Figure 9 does. The
// dynamic machine does its own prediction with a BTB, so the static
// profile is irrelevant to it, but the input program is the same one the
// static machines compile.
func (s *Suite) DynCycles(ctx context.Context, w *workloads.Workload, renaming bool) (int64, error) {
	return s.Store.dynMeasure(ctx, w, renaming, false)
}

// ScalarCycles measures the R2000 baseline (locally scheduled, register
// allocated — the "commercial MIPS assembler" role).
func (s *Suite) ScalarCycles(ctx context.Context, w *workloads.Workload) (int64, error) {
	return s.Store.scalar(ctx, w, nil)
}

// CacheSpeedups measures the memory-system caveat the paper states in
// §4.3 ("the true speedup ... is dependent upon the effectiveness of the
// memory system"): speedups of MinBoost3 over the scalar machine with a
// finite data cache on both, versus the paper's perfect memory.
func (s *Suite) CacheSpeedups(ctx context.Context, w *workloads.Workload) (perfect, cached float64, err error) {
	scalarPerfect, err := s.ScalarCycles(ctx, w)
	if err != nil {
		return 0, 0, err
	}
	boostPerfect, err := s.Store.measure(ctx, w, machine.MinBoost3(), core.Options{}, true)
	if err != nil {
		return 0, 0, err
	}
	// The historical single-level extension cache: 8KiB direct-mapped,
	// 16-byte lines, 12-cycle blocking miss (memhier.SingleLevel
	// reproduces its timing exactly).
	mcfg := memhier.SingleLevel(512, 1, 16, 12)
	scalarCached, err := s.Store.scalar(ctx, w, &mcfg)
	if err != nil {
		return 0, 0, err
	}
	boostCached, err := s.Store.run(ctx, w, machine.MinBoost3(), core.Options{}, true, &mcfg)
	if err != nil {
		return 0, 0, err
	}
	return float64(scalarPerfect) / float64(boostPerfect),
		float64(scalarCached) / float64(boostCached.res.Cycles), nil
}
