package experiments

import (
	"context"
	"fmt"
	"strings"

	"boosting/internal/cache"
	"boosting/internal/core"
	"boosting/internal/machine"
	"boosting/internal/workloads"
)

// Figure9Row is one group of bars from Figure 9: speedups over the scalar
// machine for the MinBoost3 static machine (register allocated / infinite
// registers) and the dynamically-scheduled machine (without / with
// register renaming).
type Figure9Row struct {
	Name string
	// MinBoost3 and MinBoost3Inf are the static machine's lower and upper
	// bar portions.
	MinBoost3    float64
	MinBoost3Inf float64
	// Dynamic and DynamicRenamed are the dynamic scheduler's lower and
	// upper bar portions.
	Dynamic        float64
	DynamicRenamed float64
}

// Figure9 reproduces Figure 9.
func (s *Suite) Figure9(ctx context.Context) ([]Figure9Row, float64, float64, error) {
	dynamic := func(renaming bool) measurement {
		return func(ctx context.Context, w *workloads.Workload) (int64, error) {
			return s.DynCycles(ctx, w, renaming)
		}
	}
	cycles, err := s.matrix(ctx, s.ScalarCycles,
		s.static(machine.MinBoost3(), core.Options{}, true),
		s.static(machine.MinBoost3(), core.Options{}, false),
		dynamic(false), dynamic(true))
	if err != nil {
		return nil, 0, 0, err
	}
	var rows []Figure9Row
	var mb3s, dyns []float64
	for i, w := range s.Workloads {
		c := cycles[5*i : 5*i+5]
		scalar := float64(c[0])
		row := Figure9Row{
			Name:           w.Name,
			MinBoost3:      scalar / float64(c[1]),
			MinBoost3Inf:   scalar / float64(c[2]),
			Dynamic:        scalar / float64(c[3]),
			DynamicRenamed: scalar / float64(c[4]),
		}
		rows = append(rows, row)
		mb3s = append(mb3s, row.MinBoost3)
		dyns = append(dyns, row.Dynamic)
	}
	return rows, GeoMean(mb3s), GeoMean(dyns), nil
}

// FormatFigure9 renders the figure's series.
func FormatFigure9(rows []Figure9Row, gmMB3, gmDyn float64) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-10s %10s %14s %10s %14s\n",
		"", "MinBoost3", "MinBoost3(inf)", "Dynamic", "Dynamic(ren)")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-10s %9.2fx %13.2fx %9.2fx %13.2fx\n",
			r.Name, r.MinBoost3, r.MinBoost3Inf, r.Dynamic, r.DynamicRenamed)
	}
	fmt.Fprintf(&b, "%-10s %9.2fx %27.2fx\n", "G.M.", gmMB3, gmDyn)
	return b.String()
}

// ExceptionCosts quantifies §2.3's prose claims on the benchmark set:
// object-file growth (scheduled + recovery code vs original, "less than a
// two-times growth") and the boosted exception handler overhead in cycles.
type ExceptionCosts struct {
	// Growth maps workload name to object growth under MinBoost3.
	Growth map[string]float64
	// HandlerOverhead is the modeled handler entry cost in cycles.
	HandlerOverhead int
}

// ExceptionCostsReport computes the exception-cost table.
func (s *Suite) ExceptionCostsReport(ctx context.Context) (*ExceptionCosts, error) {
	out := &ExceptionCosts{
		Growth:          map[string]float64{},
		HandlerOverhead: machine.MinBoost3().ExceptionOverhead,
	}
	growths := make([]float64, len(s.Workloads))
	if err := cache.ForEach(ctx, len(s.Workloads), s.Runner.workers(), func(ctx context.Context, i int) error {
		v, err := s.Store.run(ctx, s.Workloads[i], machine.MinBoost3(), core.Options{}, true, nil)
		growths[i] = v.growth
		return err
	}); err != nil {
		return nil, err
	}
	for i, w := range s.Workloads {
		out.Growth[w.Name] = growths[i]
	}
	return out, nil
}
