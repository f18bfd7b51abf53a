// Package experiments regenerates every table and figure of the paper's
// evaluation (§4.3):
//
//	Table 1  – benchmark simulation information (cycles, IPC, accuracy)
//	Figure 8 – base superscalar speedups: basic-block vs global scheduling,
//	           register-allocated vs infinite-register (stacked)
//	Table 2  – % improvement over global scheduling for Squashing, Boost1,
//	           MinBoost3 and Boost7
//	Figure 9 – MinBoost3 vs the dynamically-scheduled superscalar
//
// plus the quantitative claims made in prose: boosted-exception handling
// costs (§2.3) and shadow register file hardware costs (§4.3.2).
//
// Methodology mirrors the paper: workloads are compiled (register
// allocation first, then scheduling), branch predictions come from a
// profile on the training input, performance is measured on the test
// input, and speedup is total R2000 cycles divided by total cycles of the
// machine under test. That method lives in boosting.Pipeline, which
// builds every program, runs its reference and R2000 baseline, and
// verifies every simulated run against the reference interpreter's output
// and final memory before its cycle count is used.
//
// The harness is concurrent: each table measures its (workload ×
// column) matrix on cache.ForEach over one Pipeline and a Store that
// memoizes each measurement's verified result with singleflight
// deduplication, so no two measurements ever rebuild the same compiled
// program or repeat a run, and results are bit-identical to a serial run
// regardless of parallelism. The Store keeps no schedules (see Store).
// Every entry point takes a context.Context and aborts promptly when it
// is cancelled.
package experiments

import (
	"context"
	"math"
	"runtime"

	"boosting/internal/cache"
	"boosting/internal/core"
	"boosting/internal/machine"
	"boosting/internal/workloads"
)

// Suite runs experiments over the benchmark set. Every measurement is
// memoized in the Store and shared between the table/figure functions.
type Suite struct {
	Workloads []*workloads.Workload
	// Store memoizes every verified result (concurrency-safe).
	Store *Store
	// Runner bounds how many measurements run at once.
	Runner Runner
}

// Runner bounds a Suite's fan-out. Results do not depend on it: every
// measurement is memoized with singleflight semantics and is independent
// of the order measurements run in.
type Runner struct {
	// Parallelism bounds concurrent measurements; <= 0 means GOMAXPROCS.
	Parallelism int
}

func (r Runner) workers() int {
	if r.Parallelism > 0 {
		return r.Parallelism
	}
	return runtime.GOMAXPROCS(0)
}

// NewSuite returns a Suite over the full benchmark set, measuring at
// GOMAXPROCS parallelism.
func NewSuite() *Suite {
	return &Suite{Workloads: workloads.All(), Store: NewStore()}
}

// Metrics returns the counts accumulated so far: builds, schedule passes
// and simulations — the Suite's own and those its pipeline made for
// baselines and dynamic runs — with the simulated cycles and speculative
// activity they produced, and memo hits/misses. The run counts grow
// only when a result is first computed, so a warm Suite answers without
// moving them.
func (s *Suite) Metrics() Snapshot { return s.Store.Metrics() }

// measurement is one column of a table: a verified cycle count for a
// workload.
type measurement func(ctx context.Context, w *workloads.Workload) (int64, error)

// static is the column of a static machine model under scheduler
// options, register-allocated or on infinite registers.
func (s *Suite) static(model *machine.Model, opts core.Options, alloc bool) measurement {
	return func(ctx context.Context, w *workloads.Workload) (int64, error) {
		return s.Store.measure(ctx, w, model, opts, alloc)
	}
}

// matrix measures every workload under every column on the Runner's
// fan-out and returns the cycles of workload i under column j at index
// i*len(cols)+j. Measurements are handed out in that order, so at
// Parallelism 1 they run workload-major. The first failure cancels the
// rest, and the lowest-indexed real failure is returned.
func (s *Suite) matrix(ctx context.Context, cols ...measurement) ([]int64, error) {
	cycles := make([]int64, len(s.Workloads)*len(cols))
	err := cache.ForEach(ctx, len(cycles), s.Runner.workers(), func(ctx context.Context, i int) error {
		var err error
		cycles[i], err = cols[i%len(cols)](ctx, s.Workloads[i/len(cols)])
		return err
	})
	if err != nil {
		return nil, err
	}
	return cycles, nil
}

// GeoMean returns the geometric mean of vs.
func GeoMean(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	sum := 0.0
	for _, v := range vs {
		sum += math.Log(v)
	}
	return math.Exp(sum / float64(len(vs)))
}
