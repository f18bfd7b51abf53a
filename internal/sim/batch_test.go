package sim_test

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"boosting/internal/core"
	"boosting/internal/machine"
	"boosting/internal/memhier"
	"boosting/internal/profile"
	"boosting/internal/prog"
	"boosting/internal/regalloc"
	"boosting/internal/sim"
	"boosting/internal/testgen"
	"boosting/internal/workloads"
)

// errText is an error's text, "" for nil.
func errText(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// checkBatch runs cfgs as one ExecBatch on pd and fails unless every slot
// is what a solo Exec of its config returns: an equal result
// (reflect.DeepEqual) and the same error text. Every slot must also own
// its output slice.
func checkBatch(t *testing.T, label string, pd *sim.Predecoded, cfgs []sim.ExecConfig) ([]*sim.ExecResult, []error) {
	t.Helper()
	results, errs := pd.ExecBatch(cfgs)
	if len(results) != len(cfgs) || len(errs) != len(cfgs) {
		t.Fatalf("%s: %d results and %d errors for %d configs", label, len(results), len(errs), len(cfgs))
	}
	outs := map[*uint32]int{}
	for i, cfg := range cfgs {
		solo, serr := pd.Exec(cfg)
		if errText(errs[i]) != errText(serr) {
			t.Errorf("%s slot %d: error %q, solo Exec %q", label, i, errText(errs[i]), errText(serr))
		}
		if !reflect.DeepEqual(results[i], solo) {
			t.Errorf("%s slot %d: result differs from a solo Exec:\nbatch %+v\nsolo  %+v", label, i, results[i], solo)
		}
		if r := results[i]; r != nil && len(r.Out) > 0 {
			if j, ok := outs[&r.Out[0]]; ok {
				t.Errorf("%s: slots %d and %d share one output slice", label, j, i)
			}
			outs[&r.Out[0]] = i
		}
	}
	return results, errs
}

// ablationL1 is the memory-hierarchy ablation's hierarchy
// (experiments.AblationMemConfig): a 1 KiB direct-mapped L1 in front of
// the stock L2, with the given prefetcher.
func ablationL1(prefetch string) *memhier.Config {
	cfg := memhier.Default()
	cfg.L1 = memhier.CacheConfig{Sets: 64, Ways: 1, LineBytes: 16}
	cfg.Prefetch = prefetch
	return &cfg
}

// smallL1 is a 1 KiB two-way L1 under the replacement policy, small
// enough that the kernels evict.
func smallL1(policy memhier.Policy) *memhier.Config {
	cfg := memhier.Default()
	cfg.L1 = memhier.CacheConfig{Sets: 32, Ways: 2, LineBytes: 16, Policy: policy}
	return &cfg
}

// kernelHierarchies are the lanes of the kernel batches: perfect memory,
// the stock hierarchy, the ablation's three and two replacement
// policies.
func kernelHierarchies() []*memhier.Config {
	def := memhier.Default()
	return []*memhier.Config{nil, &def, ablationL1("none"), ablationL1("stride"), ablationL1("stream"),
		smallL1(memhier.PolicyFIFO), smallL1(memhier.PolicyRandom)}
}

// difftestHierarchies are the oracle's tiny, stride and squeeze
// hierarchies (internal/difftest), small enough that generated programs
// miss.
func difftestHierarchies() []*memhier.Config {
	tiny := memhier.SingleLevel(4, 1, 8, 20)
	stride := memhier.Default()
	stride.L1 = memhier.CacheConfig{Sets: 4, Ways: 2, LineBytes: 8}
	stride.L2 = memhier.CacheConfig{Sets: 16, Ways: 2, LineBytes: 16}
	stride.Prefetch = "stride"
	squeeze := memhier.SingleLevel(2, 1, 8, 30)
	squeeze.MSHRs = 1
	squeeze.Prefetch = "stream"
	return []*memhier.Config{&tiny, &stride, &squeeze}
}

func memConfigs(mems []*memhier.Config) []sim.ExecConfig {
	cfgs := make([]sim.ExecConfig, len(mems))
	for i, m := range mems {
		cfgs[i] = sim.ExecConfig{Mem: m}
	}
	return cfgs
}

func predecode(t *testing.T, sp *machine.SchedProgram) *sim.Predecoded {
	t.Helper()
	pd, err := sim.Predecode(sp)
	if err != nil {
		t.Fatal(err)
	}
	return pd
}

var laneModels = []*machine.Model{
	machine.Scalar(), machine.NoBoost(), machine.Squashing(),
	machine.Boost1(), machine.MinBoost3(), machine.Boost7(),
}

// TestExecBatchLaneIdentity runs every kernel on every static model as one
// batch over seven hierarchies and checks each lane against a solo Exec,
// timing counters and hierarchy statistics included.
func TestExecBatchLaneIdentity(t *testing.T) {
	cfgs := memConfigs(kernelHierarchies())
	for _, w := range workloads.All() {
		name := w.Name
		master := compileWorkload(t, name)
		for _, m := range laneModels {
			sp, err := core.Schedule(prog.Clone(master), m, core.Options{LocalOnly: m.IssueWidth == 1})
			if err != nil {
				t.Fatalf("%s on %s: %v", name, m.Name, err)
			}
			results, errs := checkBatch(t, name+" on "+m.Name, predecode(t, sp), cfgs)
			for i, err := range errs {
				if err != nil {
					t.Fatalf("%s on %s slot %d: %v", name, m.Name, i, err)
				}
			}
			if results[2].Cycles <= results[0].Cycles {
				t.Errorf("%s on %s: the ablation's hierarchy ran in %d cycles, perfect memory in %d",
					name, m.Name, results[2].Cycles, results[0].Cycles)
			}
		}
	}
}

// TestExecBatchPoolIdentity runs the 128 generated programs of the
// service's pool (models rotating NoBoost to Boost7) as one batch over a
// perfect-memory lane and the oracle's three tiny hierarchies.
func TestExecBatchPoolIdentity(t *testing.T) {
	cfgs := memConfigs(append([]*memhier.Config{nil}, difftestHierarchies()...))
	models := laneModels[1:]
	var stalls int64
	for j := 0; j < 128; j++ {
		asm := prog.FormatProgram(testgen.Random(int64(1000+j), testgen.RandomShape(int64(j)+1)))
		pr, err := prog.Parse(asm)
		if err != nil {
			t.Fatalf("asm %d: %v", j, err)
		}
		if _, err := regalloc.Allocate(pr); err != nil {
			t.Fatalf("asm %d: %v", j, err)
		}
		if err := profile.Annotate(pr); err != nil {
			t.Fatalf("asm %d: %v", j, err)
		}
		m := models[j%len(models)]
		sp, err := core.Schedule(pr, m, core.Options{})
		if err != nil {
			t.Fatalf("asm %d on %s: %v", j, m.Name, err)
		}
		results, _ := checkBatch(t, fmt.Sprintf("asm %d on %s", j, m.Name), predecode(t, sp), cfgs)
		for _, r := range results[1:] {
			if r != nil {
				stalls += r.MemStalls
			}
		}
	}
	if stalls == 0 {
		t.Errorf("no hierarchy lane stalled over the pool")
	}
}

// TestExecBatchEdges covers the slots that do not run to a clean halt.
func TestExecBatchEdges(t *testing.T) {
	pd := predecode(t, scheduleBoost7(t, "grep"))
	def := memhier.Default()
	tiny := difftestHierarchies()[0]

	t.Run("budget between lanes", func(t *testing.T) {
		perfect, err := pd.Exec(sim.ExecConfig{})
		if err != nil {
			t.Fatal(err)
		}
		slow, err := pd.Exec(sim.ExecConfig{Mem: tiny})
		if err != nil {
			t.Fatal(err)
		}
		budget := (perfect.Cycles + slow.Cycles) / 2
		if budget <= perfect.Cycles || budget >= slow.Cycles {
			t.Fatalf("no budget between %d and %d cycles", perfect.Cycles, slow.Cycles)
		}
		// The lane over budget retires mid-run, first as a further lane
		// and then as the primary lane, which hands the run on.
		for _, mems := range [][]*memhier.Config{{nil, tiny}, {tiny, nil}, {tiny, &def, nil}} {
			cfgs := memConfigs(mems)
			for i := range cfgs {
				cfgs[i].MaxCycles = budget
			}
			results, errs := checkBatch(t, "budget", pd, cfgs)
			for i, mem := range mems {
				if exceeded := errs[i] != nil && strings.Contains(errs[i].Error(), "exceeded"); exceeded != (mem == tiny) {
					t.Errorf("slot %d (mem %v): error %v", i, mem != nil, errs[i])
				}
				if mem == nil && (results[i] == nil || results[i].Cycles != perfect.Cycles) {
					t.Errorf("slot %d: perfect-memory lane did not finish", i)
				}
			}
		}
	})

	t.Run("fault after stall", func(t *testing.T) {
		pd := predecode(t, sim.FaultAfterStall())
		results, errs := checkBatch(t, "fault", pd, memConfigs([]*memhier.Config{nil, &def, tiny}))
		for i, err := range errs {
			if err == nil || results[i].Fault == nil {
				t.Fatalf("slot %d: want a precise fault, got %v", i, err)
			}
		}
		if results[1].MemStalls == 0 || results[2].MemStalls == 0 {
			t.Errorf("hierarchy lanes did not stall before the fault: %d, %d", results[1].MemStalls, results[2].MemStalls)
		}
	})

	t.Run("missing successor", func(t *testing.T) {
		pd := predecode(t, sim.MissingSuccessor())
		cfgs := memConfigs([]*memhier.Config{&def, nil, tiny})
		for i := range cfgs {
			cfgs[i].MaxCycles = 10
		}
		_, errs := checkBatch(t, "successor", pd, cfgs)
		if !strings.Contains(errText(errs[0]), "exceeded") || !strings.Contains(errText(errs[1]), "no successor") {
			t.Errorf("want the hierarchy lane over budget and the perfect lane without a successor, got %v", errs)
		}
	})

	t.Run("invalid mem", func(t *testing.T) {
		bad := memhier.Default()
		bad.L1.Sets = 3
		results, errs := checkBatch(t, "invalid", pd, memConfigs([]*memhier.Config{&bad, nil, &def}))
		if results[0] != nil || errs[0] == nil || errs[1] != nil || errs[2] != nil {
			t.Errorf("want only slot 0 to fail, without a result: %v", errs)
		}
	})

	t.Run("configs differ beyond mem", func(t *testing.T) {
		for _, second := range []sim.ExecConfig{
			{MaxCycles: 1000},
			{Inject: sim.FaultInjection{SkipStoreSquash: true}},
			{OnBlock: func(string, int) {}},
			{OnStore: func(uint32, int, uint32) {}},
			{OnSquash: func(sim.SquashInfo) {}},
			{OnFault: func(*sim.Memory, *sim.Fault) bool { return false }},
		} {
			results, errs := pd.ExecBatch([]sim.ExecConfig{{Mem: &def}, second, {}})
			for i := range results {
				if results[i] != nil || errs[i] == nil || errs[i].Error() != errs[0].Error() {
					t.Errorf("slot %d: want the same error in every slot and no result, got %v", i, errs[i])
				}
			}
		}
	})

	t.Run("one config", func(t *testing.T) {
		var blocks int
		for _, cfg := range []sim.ExecConfig{{}, {Mem: &def}, {MaxCycles: 1000},
			{OnBlock: func(string, int) { blocks++ }}} {
			checkBatch(t, "one", pd, []sim.ExecConfig{cfg})
		}
		if blocks == 0 {
			t.Errorf("a one-config batch did not call its OnBlock")
		}
	})
}
