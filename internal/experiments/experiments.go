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
// The harness is concurrent: a worker-pool Runner executes the
// (workload, model, ablation) grid in parallel over one Pipeline and a
// Store that memoizes each cell's verified result with singleflight
// deduplication, so no two grid cells ever rebuild the same compiled
// program or repeat a measurement, and results are bit-identical to a
// serial run regardless of parallelism. The Store keeps no schedules (see
// Store). Every entry point takes a context.Context and aborts promptly
// when it is cancelled.
package experiments

import (
	"context"
	"math"

	"boosting/internal/core"
	"boosting/internal/machine"
	"boosting/internal/workloads"
)

// Suite runs experiments over the benchmark set. Every measurement is
// memoized in the Store and shared between the table/figure functions;
// the Runner executes measurement grids in parallel.
type Suite struct {
	Workloads []*workloads.Workload
	// Store memoizes every verified result (concurrency-safe).
	Store *Store
	// Runner executes measurement grids; set Runner.Parallelism to bound
	// concurrency (defaults to GOMAXPROCS).
	Runner *Runner
}

// NewSuite returns a Suite over the full benchmark set, running grids at
// GOMAXPROCS parallelism.
func NewSuite() *Suite {
	st := NewStore()
	return &Suite{
		Workloads: workloads.All(),
		Store:     st,
		Runner:    &Runner{Store: st},
	}
}

// Metrics returns the counts accumulated so far: builds, schedule passes
// and simulations — the Suite's own and those its pipeline made for
// baselines and dynamic runs — with the simulated cycles and speculative
// activity they produced, and memo hits/misses. The run counts grow
// only when a result is first computed, so a warm Suite answers without
// moving them.
func (s *Suite) Metrics() Snapshot { return s.Store.Metrics() }

// scalarCell is the grid cell for the R2000 baseline measurement.
func scalarCell(w *workloads.Workload) Cell {
	return Cell{Workload: w, Model: machine.Scalar(), Opts: core.Options{LocalOnly: true}, Alloc: true}
}

// prefetch warms the store for the given cells in parallel. The
// subsequent serial assembly loops then read memoized artifacts only,
// keeping output byte-identical to a fully serial run.
func (s *Suite) prefetch(ctx context.Context, cells []Cell) error {
	_, err := s.Runner.Run(ctx, cells)
	return err
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
