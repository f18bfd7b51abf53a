package experiments

import (
	"context"
	"crypto/sha256"
	"testing"

	"boosting"
	"boosting/internal/artifact"
	"boosting/internal/core"
	"boosting/internal/machine"
	"boosting/internal/workloads"
)

// TestXlispStoreBufferClaim tests EXPERIMENTS.md's cause for Table 2's
// xlisp anomaly, MinBoost3 below Boost1: "MinBoost3 has no shadow store
// buffer". The counterfactual gives MinBoost3 one, under its own model
// name because the Store keys results by model name. It must beat Boost1
// on xlisp, and the scheduler's store-buffer rejections there must be
// non-zero for MinBoost3 and zero for the counterfactual.
func TestXlispStoreBufferClaim(t *testing.T) {
	if testing.Short() {
		t.Skip("counterfactual kernel runs in -short mode")
	}
	s, ctx := NewSuite(), context.Background()
	xlisp, err := workloads.ByName("xlisp")
	if err != nil {
		t.Fatal(err)
	}
	withSB := machine.MinBoost3()
	withSB.Name += "+SB"
	withSB.Boost.StoreBuffer = true
	c, err := s.Store.compile(ctx, xlisp, true)
	if err != nil {
		t.Fatal(err)
	}
	base, err := s.Store.measure(ctx, xlisp, machine.NoBoost(), core.Options{}, true)
	if err != nil {
		t.Fatal(err)
	}
	gain, rejected := map[string]float64{}, map[string]int64{}
	for _, m := range []*machine.Model{machine.Boost1(), machine.MinBoost3(), withSB} {
		cycles, err := s.Store.measure(ctx, xlisp, m, core.Options{}, true)
		if err != nil {
			t.Fatal(err)
		}
		_, stats, err := s.Store.pipe.Schedule(ctx, c, m)
		if err != nil {
			t.Fatal(err)
		}
		gain[m.Name] = float64(base)/float64(cycles) - 1
		rejected[m.Name] = stats.Sched().Rejections[core.RejectStoreBuffer]
		t.Logf("%s: %.1f%% over global scheduling, %d motions placed, %d store-buffer rejections",
			m.Name, 100*gain[m.Name], stats.Sched().MotionsPlaced, rejected[m.Name])
	}
	if gain[withSB.Name] <= gain["Boost1"] {
		t.Errorf("%s gains %.1f%%, not above Boost1's %.1f%%: the store buffer does not explain the gap",
			withSB.Name, 100*gain[withSB.Name], 100*gain["Boost1"])
	}
	if rejected["MinBoost3"] == 0 {
		t.Errorf("MinBoost3 rejects no motion on xlisp for lack of a store buffer")
	}
	if rejected[withSB.Name] != 0 {
		t.Errorf("%s still rejects %d motions as %s", withSB.Name, rejected[withSB.Name], core.RejectStoreBuffer)
	}
}

// TestAblationScheduleIdentity tests the first step of EXPERIMENTS.md's
// cause for memory disambiguation's 1.000×: "the kernels' hot loops
// rarely interleave unrelated loads over stores". If so, switching
// disambiguation off leaves most schedules as they are. Over
// AblationCells(Workloads(), NoBoost…Boost7), schedules are compared by
// artifact.ScheduleDigest with the same (kernel × model) cell's baseline:
// no-disamb must be identical in 30 of the 35, no-equiv in 10,
// short-traces in 5 and local-only in none. The 175 cells hold 129
// distinct schedules, which is how many static runs Pipeline.Grid
// executes for the sweep.
func TestAblationScheduleIdentity(t *testing.T) {
	if testing.Short() {
		t.Skip("schedules 175 kernel cells in -short mode")
	}
	ctx := context.Background()
	ms := boosting.Models()
	models := []*machine.Model{ms.NoBoost, ms.Squashing, ms.Boost1, ms.MinBoost3, ms.Boost7}
	p := boosting.NewPipeline()
	distinct := map[[sha256.Size]byte]bool{}
	same := map[string]int{}
	var baseline [sha256.Size]byte
	cells := boosting.AblationCells(boosting.Workloads(), models)
	for _, cell := range cells {
		c, err := p.Compile(ctx, cell.Workload)
		if err != nil {
			t.Fatal(err)
		}
		sp, _, err := p.Schedule(ctx, c, cell.Model, cell.Opts...)
		if err != nil {
			t.Fatalf("%s on %s, %s: %v", cell.Workload, cell.Model.Name, cell.Label, err)
		}
		d := artifact.ScheduleDigest(sp)
		distinct[d] = true
		switch {
		case cell.Label == "baseline":
			baseline = d
		case d == baseline:
			same[cell.Label]++
		}
	}
	if len(distinct) != 129 {
		t.Errorf("%d cells hold %d distinct schedules, want 129", len(cells), len(distinct))
	}
	for label, want := range map[string]int{"no-disamb": 30, "no-equiv": 10, "short-traces": 5, "local-only": 0} {
		if same[label] != want {
			t.Errorf("%s schedules like the baseline in %d of 35 cells, want %d", label, same[label], want)
		}
	}
}
