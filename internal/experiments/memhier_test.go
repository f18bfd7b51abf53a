package experiments

import (
	"context"
	"testing"
	"time"

	"boosting/internal/workloads"
)

// TestMemHierAblation runs the memory-hierarchy ablation on a one-
// workload suite (awk — its schedules boost loads on every model) and
// checks the structural claims the full table makes: forbidding boosted
// loads eliminates squashed speculative load stalls, prefetching cuts
// MPKI and reports its accuracy, and every configuration still beats
// the scalar machine under the same hierarchy.
func TestMemHierAblation(t *testing.T) {
	ctx := context.Background()
	s := NewSuite()
	awk, err := workloads.ByName("awk")
	if err != nil {
		t.Fatal(err)
	}
	s.Workloads = []*workloads.Workload{awk}

	rows, err := s.MemHierAblation(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 18 {
		t.Fatalf("got %d rows, want 18 (3 models × 2 load modes × 3 prefetchers)", len(rows))
	}

	byKey := map[[3]string]MemHierRow{}
	for _, r := range rows {
		loads := "boost"
		if !r.BoostLoads {
			loads = "no"
		}
		byKey[[3]string{r.Model, loads, r.Prefetch}] = r
	}
	for _, model := range []string{"Boost1", "MinBoost3", "Boost7"} {
		for _, pref := range memHierPrefetchers {
			boost, ok1 := byKey[[3]string{model, "boost", pref}]
			nobl, ok2 := byKey[[3]string{model, "no", pref}]
			if !ok1 || !ok2 {
				t.Fatalf("missing rows for %s/%s", model, pref)
			}
			if boost.Speedup <= 1 || nobl.Speedup <= 1 {
				t.Errorf("%s/%s: speedups %.2f/%.2f must beat scalar", model, pref, boost.Speedup, nobl.Speedup)
			}
			if boost.SquashedStalls == 0 {
				t.Errorf("%s/%s: boosted loads produced no squashed stalls", model, pref)
			}
			if nobl.SquashedStalls >= boost.SquashedStalls {
				t.Errorf("%s/%s: forbidding boosted loads did not cut squashed stalls: %d vs %d",
					model, pref, nobl.SquashedStalls, boost.SquashedStalls)
			}
			none := byKey[[3]string{model, "boost", "none"}]
			if pref != "none" {
				if boost.PrefAccuracy <= 0 {
					t.Errorf("%s/%s: prefetcher reports zero accuracy", model, pref)
				}
				if boost.MPKI >= none.MPKI {
					t.Errorf("%s/%s: prefetching did not cut MPKI: %.2f vs %.2f",
						model, pref, boost.MPKI, none.MPKI)
				}
			} else if boost.PrefAccuracy != 0 {
				t.Errorf("%s/none reports prefetch accuracy %.2f", model, boost.PrefAccuracy)
			}
			if boost.L1MissRate <= 0 || boost.L2MissRate <= 0 {
				t.Errorf("%s/%s: degenerate miss rates %+v", model, pref, boost)
			}
		}
	}

	out := FormatMemHier(rows)
	if len(out) == 0 {
		t.Error("FormatMemHier returned nothing")
	}
}

// TestMemHierSimTimeWithinWall: a lockstep batch charges its wall time to
// the simulate counter once, spread over its lanes, so on one worker the
// ablation's simulate time cannot exceed the call's own wall time.
func TestMemHierSimTimeWithinWall(t *testing.T) {
	s := NewSuite()
	awk, err := workloads.ByName("awk")
	if err != nil {
		t.Fatal(err)
	}
	s.Workloads = []*workloads.Workload{awk}
	s.Runner.Parallelism = 1

	start := time.Now()
	if _, err := s.MemHierAblation(context.Background()); err != nil {
		t.Fatal(err)
	}
	wall := time.Since(start)
	if sim := s.Metrics().SimTime; sim > wall {
		t.Errorf("simulate time %v exceeds the ablation's %v wall time", sim, wall)
	}
}
