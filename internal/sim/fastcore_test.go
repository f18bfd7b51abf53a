package sim_test

// External black-box tests of the fast execution core: they compile real
// workloads through the production pipeline stages (profile → transfer →
// schedule) and assert the fast core (sim.Exec) is byte-identical to the
// oracle interpreter (sim.ExecOracle) in every observable dimension — the
// ExecResult, and the store/squash/block callback streams — across machine
// models, fault injections and the finite data-cache model.

import (
	"reflect"
	"sync"
	"testing"

	"boosting/internal/core"
	"boosting/internal/machine"
	"boosting/internal/memhier"
	"boosting/internal/profile"
	"boosting/internal/prog"
	"boosting/internal/sim"
	"boosting/internal/workloads"
)

// compileWorkload builds a workload like the pipeline does (minus register
// allocation, which is irrelevant to executor equivalence): train/test
// pair, profile on train, predictions transferred to test — so the test
// program carries realistic, imperfect branch predictions and exercises
// commit, squash and recovery paths.
func compileWorkload(t testing.TB, name string) *prog.Program {
	t.Helper()
	w, err := workloads.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	train, test := w.BuildTrain(), w.BuildTest()
	if err := profile.Annotate(train); err != nil {
		t.Fatal(err)
	}
	if err := profile.Transfer(train, test); err != nil {
		t.Fatal(err)
	}
	return test
}

// engineTrace captures everything observable about one execution: the
// result struct plus every callback event in order.
type engineTrace struct {
	res      *sim.ExecResult
	err      string
	stores   [][3]uint32 // addr, size, val
	squashes []sim.SquashInfo
	blocks   []string
	blockIDs []int
}

// executor runs a schedule: sim.Exec (the fast core) or sim.ExecOracle.
type executor func(*machine.SchedProgram, sim.ExecConfig) (*sim.ExecResult, error)

// traceExec runs sp under cfg on exec, recording every callback event.
func traceExec(exec executor, sp *machine.SchedProgram, cfg sim.ExecConfig) *engineTrace {
	tr := &engineTrace{}
	cfg.OnStore = func(addr uint32, size int, val uint32) {
		tr.stores = append(tr.stores, [3]uint32{addr, uint32(size), val})
	}
	cfg.OnSquash = func(si sim.SquashInfo) { tr.squashes = append(tr.squashes, si) }
	cfg.OnBlock = func(proc string, id int) {
		tr.blocks = append(tr.blocks, proc)
		tr.blockIDs = append(tr.blockIDs, id)
	}
	res, err := exec(sp, cfg)
	tr.res = res
	if err != nil {
		tr.err = err.Error()
	}
	return tr
}

func diffTraces(t *testing.T, label string, fast, legacy *engineTrace) {
	t.Helper()
	if fast.err != legacy.err {
		t.Errorf("%s: error mismatch: fast=%q legacy=%q", label, fast.err, legacy.err)
		return
	}
	if !reflect.DeepEqual(fast.res, legacy.res) {
		t.Errorf("%s: ExecResult mismatch:\nfast:   %+v\nlegacy: %+v", label, fast.res, legacy.res)
	}
	if !reflect.DeepEqual(fast.stores, legacy.stores) {
		t.Errorf("%s: store stream mismatch (%d vs %d events)", label, len(fast.stores), len(legacy.stores))
	}
	if !reflect.DeepEqual(fast.squashes, legacy.squashes) {
		t.Errorf("%s: squash stream mismatch:\nfast:   %+v\nlegacy: %+v", label, fast.squashes, legacy.squashes)
	}
	if !reflect.DeepEqual(fast.blocks, legacy.blocks) || !reflect.DeepEqual(fast.blockIDs, legacy.blockIDs) {
		t.Errorf("%s: block stream mismatch (%d vs %d blocks)", label, len(fast.blocks), len(legacy.blocks))
	}
}

// TestEnginesByteIdentical proves the fast core reproduces the oracle
// interpreter exactly — statistics, output, memory digest, and the full
// store/squash/block callback streams — on real workloads across every
// machine model.
func TestEnginesByteIdentical(t *testing.T) {
	models := []*machine.Model{
		machine.Scalar(), machine.NoBoost(), machine.Squashing(),
		machine.Boost1(), machine.MinBoost3(), machine.Boost7(),
		machine.Wide4(machine.Boost7().Boost),
	}
	names := []string{"grep", "eqntott"}
	if testing.Short() {
		names = names[:1]
	}
	for _, name := range names {
		master := compileWorkload(t, name)
		for _, model := range models {
			opts := core.Options{LocalOnly: model.IssueWidth == 1}
			sp, err := core.Schedule(prog.Clone(master), model, opts)
			if err != nil {
				t.Fatalf("%s on %s: %v", name, model, err)
			}
			fast := traceExec(sim.Exec, sp, sim.ExecConfig{})
			legacy := traceExec(sim.ExecOracle, sp, sim.ExecConfig{})
			diffTraces(t, name+"/"+model.Name, fast, legacy)
		}
	}
}

// TestEnginesIdenticalUnderInjection checks that the deliberately broken
// hardware modes (used by the difftest oracle's self-tests) behave the
// same on the fast core and the oracle, including the Leaked accounting
// after a skipped squash.
func TestEnginesIdenticalUnderInjection(t *testing.T) {
	master := compileWorkload(t, "grep")
	injections := []sim.FaultInjection{
		{SkipShadowSquash: true},
		{SkipStoreSquash: true},
	}
	for _, inj := range injections {
		sp, err := core.Schedule(prog.Clone(master), machine.Boost7(), core.Options{})
		if err != nil {
			t.Fatal(err)
		}
		fast := traceExec(sim.Exec, sp, sim.ExecConfig{Inject: inj})
		legacy := traceExec(sim.ExecOracle, sp, sim.ExecConfig{Inject: inj})
		diffTraces(t, "grep/inject", fast, legacy)
	}
}

// TestEnginesIdenticalWithMemHier runs the fast core and the oracle with
// the memory hierarchy, whose miss stalls perturb cycle accounting
// mid-instruction. Several configs exercise the MSHR/write-buffer/
// prefetcher paths.
func TestEnginesIdenticalWithMemHier(t *testing.T) {
	master := compileWorkload(t, "grep")
	sp, err := core.Schedule(prog.Clone(master), machine.Boost7(), core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	configs := map[string]memhier.Config{
		"single":  memhier.SingleLevel(512, 1, 16, 12),
		"default": memhier.Default(),
		"stride": func() memhier.Config {
			c := memhier.Default()
			c.Prefetch = "stride"
			return c
		}(),
		"stream-random": func() memhier.Config {
			c := memhier.Default()
			c.Prefetch = "stream"
			c.L1.Policy = memhier.PolicyRandom
			return c
		}(),
	}
	for name, mc := range configs {
		mc := mc
		fast := traceExec(sim.Exec, sp, sim.ExecConfig{Mem: &mc})
		legacy := traceExec(sim.ExecOracle, sp, sim.ExecConfig{Mem: &mc})
		diffTraces(t, "grep/mem/"+name, fast, legacy)
	}
}

// TestFastCoreSteadyStateAllocFree verifies the tentpole property: once a
// run is set up, the fast core's execution loop does not allocate. It
// compares total allocations of a cycle-bounded short run against a full
// run orders of magnitude longer; the difference is the steady-state
// loop's allocation, which must be (near) zero — only the output stream's
// amortized growth is tolerated. A whole sim.Exec call, predecode
// included, must also stay within 256 allocations on both long kernels.
func TestFastCoreSteadyStateAllocFree(t *testing.T) {
	for _, name := range simcoreWorkloads {
		sp := scheduleBoost7(t, name)
		if perRun := testing.AllocsPerRun(2, runner(t, sim.Exec, sp, sim.ExecConfig{})); perRun > 256 {
			t.Errorf("%s: a whole fast-core run allocates %.0f objects, want <= 256", name, perRun)
		}
	}

	sp := scheduleBoost7(t, "eqntott")
	pd, err := sim.Predecode(sp)
	if err != nil {
		t.Fatal(err)
	}
	// Warm the fastState pool so per-process one-time costs drop out, and
	// learn the full run length.
	warm, err := pd.Exec(sim.ExecConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if warm.Cycles < 50_000 {
		t.Fatalf("eqntott run too short (%d cycles) to measure steady state", warm.Cycles)
	}

	short := testing.AllocsPerRun(5, func() {
		if _, err := pd.Exec(sim.ExecConfig{MaxCycles: 2000}); err == nil {
			t.Fatal("short run unexpectedly completed; raise the full-run bound")
		}
	})
	full := testing.AllocsPerRun(5, func() {
		if _, err := pd.Exec(sim.ExecConfig{}); err != nil {
			t.Fatal(err)
		}
	})
	// The full run simulates far more cycles than the short run. Anything
	// beyond a handful of amortized appends means the hot loop allocates.
	if full-short > 16 {
		t.Errorf("steady-state loop allocates: short run %.0f allocs, full run %.0f allocs", short, full)
	}
}

// TestImageSharedByConcurrentRuns runs one Predecoded store-heavy kernel
// from four goroutines at once, four runs each, so every run reads the
// same memory image while copying the pages it writes. Every result must
// equal a solo run's, and the image's digest recomputed from its pages
// must still match the stored one. Under -race this also checks that no
// run writes the shared pages.
func TestImageSharedByConcurrentRuns(t *testing.T) {
	master := compileWorkload(t, "eqntott")
	sp, err := core.Schedule(prog.Clone(master), machine.Boost7(), core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	pd, err := sim.Predecode(sp)
	if err != nil {
		t.Fatal(err)
	}
	want, err := pd.Exec(sim.ExecConfig{})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range 4 {
				if res, err := pd.Exec(sim.ExecConfig{}); err != nil || !reflect.DeepEqual(res, want) {
					t.Errorf("concurrent Exec = %+v, %v; want %+v", res, err, want)
				}
			}
		}()
	}
	wg.Wait()
	if stored, recomputed := sim.ImageDigests(pd); stored != recomputed {
		t.Errorf("image digest %#x, recomputed from its pages %#x", stored, recomputed)
	}
}
