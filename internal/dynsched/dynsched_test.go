package dynsched

import (
	"strings"
	"testing"

	"boosting/internal/isa"
	"boosting/internal/memhier"
	"boosting/internal/prog"
	"boosting/internal/sim"
	"boosting/internal/testgen"
)

// buildLoop builds a steady countdown loop with some ILP in the body.
func buildLoop(n int32) *prog.Program {
	pr := prog.New()
	arr := pr.Words(1, 2, 3, 4, 5, 6, 7, 8)
	f := prog.NewBuilder(pr, "main")
	loop := f.Block("loop")
	done := f.Block("done")
	i, sum, base := f.Reg(), f.Reg(), f.Reg()
	a, b, c := f.Reg(), f.Reg(), f.Reg()
	f.Li(i, n)
	f.Li(sum, 0)
	f.La(base, arr)
	f.Goto(loop)
	f.Enter(loop)
	f.Load(isa.LW, a, base, 0)
	f.Load(isa.LW, b, base, 4)
	f.ALU(isa.ADD, c, a, b)
	f.ALU(isa.ADD, sum, sum, c)
	f.Imm(isa.ADDI, i, i, -1)
	f.Branch(isa.BGTZ, i, isa.R0, loop, done)
	f.Enter(done)
	f.Out(sum)
	f.Halt()
	f.Finish()
	return pr
}

func TestSimulateBasics(t *testing.T) {
	pr := buildLoop(200)
	ref, err := sim.Run(buildLoop(200), sim.RefConfig{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Simulate(pr, Default())
	if err != nil {
		t.Fatal(err)
	}
	if res.Insts != ref.Insts {
		t.Errorf("dispatched %d instructions, reference executed %d", res.Insts, ref.Insts)
	}
	// Fetch width 2 bounds throughput.
	if res.Cycles < res.Insts/2 {
		t.Errorf("cycles %d below the fetch-width bound %d", res.Cycles, res.Insts/2)
	}
	// An out-of-order 2-wide machine must beat 1 IPC on this loop.
	if res.Cycles >= res.Insts {
		t.Errorf("dynamic scheduler achieves IPC ≤ 1 (%d cycles for %d insts)", res.Cycles, res.Insts)
	}
	if len(res.Out) != 1 || res.Out[0] != 3*200 {
		t.Errorf("functional result wrong: %v", res.Out)
	}
}

func TestBTBLearnsLoop(t *testing.T) {
	pr := buildLoop(500)
	res, err := Simulate(pr, Default())
	if err != nil {
		t.Fatal(err)
	}
	if res.Branches < 500 {
		t.Fatalf("branches = %d", res.Branches)
	}
	// The 2-bit counter should mispredict only a handful of times on a
	// steady loop (warm-up and the final exit).
	if res.Mispredicts > 5 {
		t.Errorf("mispredicts = %d on a steady loop, want ≤ 5", res.Mispredicts)
	}
}

func TestRenamingHelps(t *testing.T) {
	// A loop with heavy register reuse: without renaming, WAW stalls.
	pr1 := buildLoop(300)
	pr2 := buildLoop(300)
	noRen, err := Simulate(pr1, Default())
	if err != nil {
		t.Fatal(err)
	}
	cfg := Default()
	cfg.Renaming = true
	ren, err := Simulate(pr2, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if ren.Cycles > noRen.Cycles {
		t.Errorf("renaming (%d cycles) slower than no renaming (%d)", ren.Cycles, noRen.Cycles)
	}
}

func TestMispredictsCostCycles(t *testing.T) {
	// An alternating branch defeats the 2-bit counter.
	// Both variants execute identical instruction mixes (symmetric arms);
	// only branch predictability differs.
	build := func(predictable bool) *prog.Program {
		pr := prog.New()
		f := prog.NewBuilder(pr, "main")
		loop := f.Block("loop")
		arm1 := f.Block("arm1")
		arm2 := f.Block("arm2")
		next := f.Block("next")
		done := f.Block("done")
		i, sum, t := f.Reg(), f.Reg(), f.Reg()
		f.Li(i, 400)
		f.Li(sum, 0)
		f.Goto(loop)
		f.Enter(loop)
		if predictable {
			f.Imm(isa.ANDI, t, i, 2048) // always zero: never taken
		} else {
			f.Imm(isa.ANDI, t, i, 1) // alternates
		}
		f.Branch(isa.BGTZ, t, isa.R0, arm1, arm2)
		f.Enter(arm1)
		f.Imm(isa.ADDI, sum, sum, 3)
		f.Jump(next)
		f.Enter(arm2)
		f.Imm(isa.ADDI, sum, sum, 3)
		f.Goto(next)
		f.Enter(next)
		f.Imm(isa.ADDI, i, i, -1)
		f.Branch(isa.BGTZ, i, isa.R0, loop, done)
		f.Enter(done)
		f.Out(sum)
		f.Halt()
		f.Finish()
		return pr
	}
	good, err := Simulate(build(true), Default())
	if err != nil {
		t.Fatal(err)
	}
	bad, err := Simulate(build(false), Default())
	if err != nil {
		t.Fatal(err)
	}
	if bad.Mispredicts <= good.Mispredicts {
		t.Fatalf("alternating branch mispredicts (%d) not worse than steady (%d)",
			bad.Mispredicts, good.Mispredicts)
	}
	// Per-instruction cost must be higher with mispredictions.
	goodCPI := float64(good.Cycles) / float64(good.Insts)
	badCPI := float64(bad.Cycles) / float64(bad.Insts)
	if badCPI <= goodCPI {
		t.Errorf("mispredictions did not cost cycles: CPI %f vs %f", badCPI, goodCPI)
	}
}

// TestSimulatePropertyRandom: the pipeline must terminate and dispatch
// exactly the dynamic instruction count on random programs, with and
// without renaming.
func TestSimulatePropertyRandom(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		build := func() *prog.Program {
			return testgen.Random(seed, testgen.Config{WithCalls: seed%2 == 0})
		}
		ref, err := sim.Run(build(), sim.RefConfig{})
		if err != nil {
			t.Fatal(err)
		}
		for _, ren := range []bool{false, true} {
			cfg := Default()
			cfg.Renaming = ren
			res, err := Simulate(build(), cfg)
			if err != nil {
				t.Fatalf("seed %d ren=%v: %v", seed, ren, err)
			}
			if res.Insts != ref.Insts {
				t.Fatalf("seed %d ren=%v: %d dispatched, want %d", seed, ren, res.Insts, ref.Insts)
			}
			if res.Cycles <= 0 || res.Cycles >= 100*res.Insts+1000 {
				t.Fatalf("seed %d: implausible cycle count %d for %d insts", seed, res.Cycles, res.Insts)
			}
		}
	}
}

func TestBTBUnit(t *testing.T) {
	b := newBTB(4, 2)
	// Unknown branch predicts not-taken.
	if b.predictCond(100) {
		t.Error("cold BTB must predict not-taken")
	}
	// Train taken twice; counter reaches ≥ 2.
	b.updateCond(100, true)
	b.updateCond(100, true)
	if !b.predictCond(100) {
		t.Error("trained branch must predict taken")
	}
	// Hysteresis: one not-taken flips to weakly-taken, still predicts taken.
	b.updateCond(100, false)
	if !b.predictCond(100) {
		t.Error("2-bit counter must not flip after one contrary outcome")
	}
	b.updateCond(100, false)
	if b.predictCond(100) {
		t.Error("counter must flip after two contrary outcomes")
	}
	// Associativity: two PCs in the same set coexist.
	b.updateCond(200, true) // set 0 (200%4==0); 100%4==0 also set 0
	b.updateCond(200, true)
	b.updateCond(100, true)
	b.updateCond(100, true)
	if !b.predictCond(100) || !b.predictCond(200) {
		t.Error("two branches must coexist in a 2-way set")
	}
	// Eviction: a third PC in the set evicts LRU.
	b.updateCond(300, true)
	hits := 0
	for _, pc := range []int{100, 200, 300} {
		if b.find(pc) != nil {
			hits++
		}
	}
	if hits != 2 {
		t.Errorf("after eviction %d entries resident, want 2", hits)
	}
	// Indirect target prediction.
	if _, hit := b.predictTarget(404); hit {
		t.Error("cold target lookup must miss")
	}
	b.updateTarget(404, 17)
	if tgt, hit := b.predictTarget(404); !hit || tgt != 17 {
		t.Error("target prediction lost")
	}
}

func TestDataCacheSlowsTheMachine(t *testing.T) {
	cfgPerfect := Default()
	res1, err := Simulate(buildLoop(300), cfgPerfect)
	if err != nil {
		t.Fatal(err)
	}
	cfgCache := Default()
	mc := memhier.SingleLevel(2, 1, 16, 20)
	cfgCache.Mem = &mc
	res2, err := Simulate(buildLoop(300), cfgCache)
	if err != nil {
		t.Fatal(err)
	}
	if res2.Cycles <= res1.Cycles {
		t.Errorf("tiny cache should slow the machine: %d vs %d", res2.Cycles, res1.Cycles)
	}
	if res2.Out[0] != res1.Out[0] {
		t.Error("cache changed semantics")
	}
}

// TestROBSizeMatters: widening the reorder buffer must not slow the
// machine, and shrinking it to 2 entries must hurt a loop with ILP.
func TestROBSizeMatters(t *testing.T) {
	run := func(rob int) int64 {
		cfg := Default()
		cfg.ROBSize = rob
		res, err := Simulate(buildLoop(300), cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res.Cycles
	}
	tiny, paper, big := run(2), run(16), run(64)
	if tiny <= paper {
		t.Errorf("2-entry ROB (%d cycles) should be slower than 16-entry (%d)", tiny, paper)
	}
	if big > paper {
		t.Errorf("64-entry ROB (%d cycles) should not be slower than 16-entry (%d)", big, paper)
	}
}

// TestMaxCyclesIsAnError: a run that reaches MaxCycles before the
// pipeline drains fails with an error naming the bound, and the rest of
// the trace is dropped instead of queued, so memory stays bounded however
// long the program runs.
func TestMaxCyclesIsAnError(t *testing.T) {
	cfg := Default()
	cfg.MaxCycles = 100
	res, err := Simulate(buildLoop(1000), cfg)
	if err == nil {
		t.Fatalf("run truncated at %d cycles returned no error", res.Cycles)
	}
	if !strings.Contains(err.Error(), "100 cycles") {
		t.Errorf("error %q does not name the 100-cycle bound", err)
	}

	p := newPipeline(cfg)
	ref, err := sim.Run(buildLoop(100_000), sim.RefConfig{OnInst: p.feed})
	if err != nil {
		t.Fatal(err)
	}
	if !p.dropped {
		t.Error("trace past the bound was not dropped")
	}
	if p.tail-p.head > int64(len(p.ring)) || p.tail > 1000 {
		t.Errorf("queued %d of %d traced instructions (%d in flight) after the bound",
			p.tail, ref.Insts, p.tail-p.head)
	}
}

// TestSimulateAllocationFree: a dynamic instruction costs no heap
// allocation, so a run allocates as often for a 20,000-iteration loop as
// for a 200-iteration one.
func TestSimulateAllocationFree(t *testing.T) {
	allocs := func(n int32) float64 {
		pr := buildLoop(n)
		return testing.AllocsPerRun(3, func() {
			if _, err := Simulate(pr, Default()); err != nil {
				t.Fatal(err)
			}
		})
	}
	if short, long := allocs(200), allocs(20_000); short != long {
		t.Errorf("%v allocations for 200 iterations, %v for 20000", short, long)
	}
}
