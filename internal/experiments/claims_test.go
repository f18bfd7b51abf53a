package experiments

import (
	"context"
	"testing"

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
