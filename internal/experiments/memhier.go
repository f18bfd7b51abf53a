package experiments

import (
	"context"
	"fmt"
	"strings"

	"boosting/internal/cache"
	"boosting/internal/core"
	"boosting/internal/machine"
	"boosting/internal/memhier"
)

// The memory-hierarchy ablation quantifies the caveat the paper leaves
// open in §4.3: boosting's speedups assume perfect memory, but boosting
// loads above branches also moves their cache misses above branches —
// a mispredicted path can stall the machine on a miss whose result is
// thrown away. The ablation crosses boost level (Boost1 / MinBoost3 /
// Boost7) with boosted loads allowed or forbidden
// (core.Options.NoBoostedLoads) and with the hardware prefetcher
// (none / stride / stream), all over one finite hierarchy, and reports
// speedup over the scalar machine *under the same hierarchy*, MPKI,
// per-level miss rates, prefetch accuracy, and the cycles lost to
// speculative misses that were later squashed.

// AblationMemConfig is the hierarchy the ablation runs on: the stock
// configuration with the L1 shrunk to 1 KiB direct-mapped so the
// benchmark kernels' working sets actually miss (on the 8 KiB default
// every boosted load of the suite hits).
func AblationMemConfig(prefetch string) memhier.Config {
	cfg := memhier.Default()
	cfg.L1 = memhier.CacheConfig{Sets: 64, Ways: 1, LineBytes: 16}
	cfg.Prefetch = prefetch
	return cfg
}

// MemHierRow is one configuration of the memory-hierarchy ablation,
// aggregated over the benchmark set: speedup is the geometric mean over
// workloads, the counters are summed before the ratios are taken.
type MemHierRow struct {
	Model      string // Boost1, MinBoost3, Boost7
	BoostLoads bool   // false = scheduled with NoBoostedLoads
	Prefetch   string // none, stride, stream

	// Speedup is the geomean speedup over the scalar machine with the
	// identical hierarchy in front of it.
	Speedup float64
	// MPKI is L1 misses per thousand executed instructions.
	MPKI float64
	// L1MissRate and L2MissRate are per-level miss ratios.
	L1MissRate float64
	L2MissRate float64
	// PrefAccuracy is useful prefetches over issued (0 with Prefetch
	// "none").
	PrefAccuracy float64
	// SquashedStalls is the total cycles the machines spent stalled on
	// speculative misses whose work was later squashed — pure loss, the
	// cost forbidding boosted loads eliminates by construction.
	SquashedStalls int64
}

// memHierPrefetchers lists the prefetcher axis of the ablation.
var memHierPrefetchers = []string{"none", "stride", "stream"}

// memHierModels lists the boost-level axis.
func memHierModels() []*machine.Model {
	return []*machine.Model{machine.Boost1(), machine.MinBoost3(), machine.Boost7()}
}

// MemHierAblation measures the full (model × boosted-loads × prefetcher)
// grid over the benchmark set. Rows come back model-major, boosted
// loads before forbidden, prefetchers in none/stride/stream order.
func (s *Suite) MemHierAblation(ctx context.Context) ([]MemHierRow, error) {
	models := memHierModels()

	// Measure in parallel. The prefetcher axis only varies the
	// execution-side memory hierarchy, so each (model, nobl, workload) cell
	// schedules once and runs under every prefetcher's hierarchy
	// (Store.runLanes); the pipeline measures the scalar baselines, one
	// per hierarchy. Each result is kept by index for the rows:
	// scalars[k*nw+w] is workload w's baseline under hierarchy k,
	// runs[j*nw+w] its job-j runs.
	type job struct {
		model *machine.Model
		opts  core.Options
	}
	var jobs []job
	for _, m := range models {
		jobs = append(jobs, job{m, core.Options{}})
		jobs = append(jobs, job{m, core.Options{NoBoostedLoads: true}})
	}
	mcfgs := make([]*memhier.Config, len(memHierPrefetchers))
	for i, pref := range memHierPrefetchers {
		mcfg := AblationMemConfig(pref)
		mcfgs[i] = &mcfg
	}
	nw := len(s.Workloads)
	scalars := make([]int64, len(mcfgs)*nw)
	runs := make([][]verified, len(jobs)*nw)
	if err := cache.ForEach(ctx, (len(jobs)+1)*nw, s.Runner.workers(), func(ctx context.Context, i int) error {
		w := s.Workloads[i%nw]
		if i < nw {
			for k, mcfg := range mcfgs {
				scalar, err := s.Store.scalar(ctx, w, mcfg)
				if err != nil {
					return err
				}
				scalars[k*nw+i] = scalar
			}
			return nil
		}
		j := jobs[i/nw-1]
		vs, err := s.Store.runLanes(ctx, w, j.model, j.opts, true, mcfgs)
		runs[i-nw] = vs
		return err
	}); err != nil {
		return nil, err
	}

	// Rows follow the jobs: model-major, boosted loads before forbidden.
	var rows []MemHierRow
	for j, jb := range jobs {
		for k, pref := range memHierPrefetchers {
			row := MemHierRow{Model: jb.model.Name, BoostLoads: !jb.opts.NoBoostedLoads, Prefetch: pref}
			var speedups []float64
			agg := memhier.Stats{}
			var insts int64
			for w := 0; w < nw; w++ {
				res := runs[j*nw+w][k].res
				speedups = append(speedups, float64(scalars[k*nw+w])/float64(res.Cycles))
				agg.L1Misses += res.Mem.L1Misses
				agg.Accesses += res.Mem.Accesses
				agg.L2Hits += res.Mem.L2Hits
				agg.L2Misses += res.Mem.L2Misses
				agg.PrefIssued += res.Mem.PrefIssued
				agg.PrefUseful += res.Mem.PrefUseful
				insts += res.Insts
				row.SquashedStalls += res.SquashedMemStalls
			}
			row.Speedup = GeoMean(speedups)
			row.MPKI = 1000 * float64(agg.L1Misses) / float64(insts)
			row.L1MissRate = float64(agg.L1Misses) / float64(agg.Accesses)
			if l2 := agg.L2Hits + agg.L2Misses; l2 > 0 {
				row.L2MissRate = float64(agg.L2Misses) / float64(l2)
			}
			row.PrefAccuracy = agg.PrefetchAccuracy()
			rows = append(rows, row)
		}
	}
	return rows, nil
}

// FormatMemHier renders the ablation grid.
func FormatMemHier(rows []MemHierRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-10s %-7s %-7s %8s %7s %7s %7s %8s %10s\n",
		"", "loads", "pref", "speedup", "MPKI", "L1miss", "L2miss", "prefacc", "squashed")
	for _, r := range rows {
		loads := "boost"
		if !r.BoostLoads {
			loads = "no"
		}
		fmt.Fprintf(&b, "%-10s %-7s %-7s %7.2fx %7.2f %6.1f%% %6.1f%% %7.2f %10d\n",
			r.Model, loads, r.Prefetch, r.Speedup, r.MPKI,
			100*r.L1MissRate, 100*r.L2MissRate, r.PrefAccuracy, r.SquashedStalls)
	}
	return b.String()
}
