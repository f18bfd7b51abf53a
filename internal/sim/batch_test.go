package sim_test

import (
	"reflect"
	"testing"

	"boosting/internal/core"
	"boosting/internal/machine"
	"boosting/internal/memhier"
	"boosting/internal/prog"
	"boosting/internal/sim"
)

// TestExecBatchLaneIdentity proves every ExecBatch lane is byte-identical
// to a solo Exec run of the same config, across models × memhier configs
// in one mixed batch. This is the in-repo half of the lane-vs-solo
// oracle; the difftest "/batch" config is the external half.
func TestExecBatchLaneIdentity(t *testing.T) {
	master := compileWorkload(t, "grep")
	models := []*machine.Model{machine.NoBoost(), machine.Boost1(), machine.Boost7()}
	for _, model := range models {
		sp, err := core.Schedule(prog.Clone(master), model, core.Options{})
		if err != nil {
			t.Fatalf("%s: %v", model, err)
		}
		defaultMem := memhier.Default()
		strideMem := memhier.Default()
		strideMem.Prefetch = "stride"
		cfgs := []sim.ExecConfig{
			{},
			{Mem: &defaultMem},
			{Mem: &strideMem},
			{MaxCycles: 100},
		}
		batch, berrs := sim.ExecBatch(sp, cfgs)
		if len(batch) != len(cfgs) || len(berrs) != len(cfgs) {
			t.Fatalf("%s: batch returned %d results / %d errs for %d lanes",
				model, len(batch), len(berrs), len(cfgs))
		}
		for i, cfg := range cfgs {
			solo, serr := sim.Exec(sp, cfg)
			if (serr == nil) != (berrs[i] == nil) ||
				(serr != nil && serr.Error() != berrs[i].Error()) {
				t.Errorf("%s lane %d: error mismatch: solo=%v batch=%v", model, i, serr, berrs[i])
				continue
			}
			if !reflect.DeepEqual(solo, batch[i]) {
				t.Errorf("%s lane %d: result diverges from solo run:\nsolo:  %+v\nbatch: %+v",
					model, i, solo, batch[i])
			}
		}
	}
}

// TestPredecodedExecBatchLaneIdentity drives the predecoded entry point
// directly (the path Pipeline.SimulateBatch uses) and checks lane results
// against solo pd.Exec runs, including an erroring lane retiring early
// without disturbing its neighbors.
func TestPredecodedExecBatchLaneIdentity(t *testing.T) {
	master := compileWorkload(t, "eqntott")
	sp, err := core.Schedule(prog.Clone(master), machine.Boost7(), core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	pd, err := sim.Predecode(sp)
	if err != nil {
		t.Fatal(err)
	}
	mem := memhier.Default()
	cfgs := []sim.ExecConfig{
		{},
		{MaxCycles: 1000}, // exceeds mid-run: partial result + error
		{Mem: &mem},
		{},
	}
	batch, berrs := pd.ExecBatch(cfgs)
	if berrs[1] == nil {
		t.Errorf("lane 1: want exceeded-cycles error, got success")
	}
	for i, cfg := range cfgs {
		solo, serr := pd.Exec(cfg)
		if (serr == nil) != (berrs[i] == nil) ||
			(serr != nil && serr.Error() != berrs[i].Error()) {
			t.Errorf("lane %d: error mismatch: solo=%v batch=%v", i, serr, berrs[i])
			continue
		}
		if !reflect.DeepEqual(solo, batch[i]) {
			t.Errorf("lane %d: result diverges from solo run", i)
		}
	}
}

// TestExecBatchCallbackStreams checks that per-lane callbacks observe the
// same event streams a solo run produces, even though lanes interleave.
func TestExecBatchCallbackStreams(t *testing.T) {
	master := compileWorkload(t, "grep")
	sp, err := core.Schedule(prog.Clone(master), machine.Boost7(), core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	solo := traceExec(sim.Exec, sp, sim.ExecConfig{})

	const lanes = 3
	traces := make([]*engineTrace, lanes)
	cfgs := make([]sim.ExecConfig, lanes)
	for i := range cfgs {
		tr := &engineTrace{}
		traces[i] = tr
		cfgs[i] = sim.ExecConfig{
			OnStore: func(addr uint32, size int, val uint32) {
				tr.stores = append(tr.stores, [3]uint32{addr, uint32(size), val})
			},
			OnSquash: func(si sim.SquashInfo) { tr.squashes = append(tr.squashes, si) },
			OnBlock: func(proc string, id int) {
				tr.blocks = append(tr.blocks, proc)
				tr.blockIDs = append(tr.blockIDs, id)
			},
		}
	}
	batch, berrs := sim.ExecBatch(sp, cfgs)
	for i := range cfgs {
		if berrs[i] != nil {
			t.Fatalf("lane %d: %v", i, berrs[i])
		}
		traces[i].res = batch[i]
		diffTraces(t, "batch lane", traces[i], solo)
	}
}
