package sim

import (
	"reflect"
	"testing"

	"boosting/internal/isa"
	"boosting/internal/machine"
	"boosting/internal/memhier"
	"boosting/internal/prog"
)

// mispredictSched builds a program whose single branch mispredicts (static
// prediction not-taken, execution taken) right after a boosted load, so a
// run with a modeled memory hierarchy squashes the load's pending
// speculative stall cycles into SquashedMemStalls — the statistic a stale
// spec-stall tracker would corrupt.
func mispredictSched() *manual {
	m := newManual(machine.Boost7(), func(f *prog.Builder) {
		taken := f.Block("taken")
		fall := f.Block("fall")
		r := f.Reg()
		f.Li(r, 1)
		f.Branch(isa.BGTZ, r, isa.R0, taken, fall)
		f.Enter(fall)
		f.Halt()
		f.Enter(taken)
		f.Halt()
	})
	entry := m.pr.Main().Blocks[0]
	li := &entry.Insts[0]
	br := &entry.Insts[1]
	ld := inst(isa.Inst{Op: isa.LW, Rd: 20, Rs: isa.SP, Imm: -4, Boost: 1})
	m.sched(0,
		[]*isa.Inst{li, nil},
		[]*isa.Inst{br, ld},
		[]*isa.Inst{nil, nil},
	)
	m.sched(1, []*isa.Inst{&m.pr.Main().Blocks[1].Insts[0], nil})
	m.sched(2, []*isa.Inst{&m.pr.Main().Blocks[2].Insts[0], nil})
	return m
}

// dirtySched builds a program that aborts with an unhandled precise fault
// one cycle after a boosted load: the erroring run leaves the load's stall
// cycles pending in the pooled state's spec-stall tracker.
func dirtySched() *manual {
	m := newManual(machine.Boost7(), func(f *prog.Builder) {
		done := f.Block("done")
		r := f.Reg()
		f.Li(r, 1)
		f.Branch(isa.BGTZ, r, isa.R0, done, done)
		f.Enter(done)
		f.Halt()
	})
	entry := m.pr.Main().Blocks[0]
	li := &entry.Insts[0]
	br := &entry.Insts[1]
	boosted := inst(isa.Inst{Op: isa.LW, Rd: 20, Rs: isa.SP, Imm: -4, Boost: 1})
	unmapped := inst(isa.Inst{Op: isa.LW, Rd: 21, Rs: isa.R0, Imm: 16})
	m.sched(0,
		[]*isa.Inst{li, boosted},
		[]*isa.Inst{unmapped, nil},
		[]*isa.Inst{br, nil},
		[]*isa.Inst{nil, nil},
	)
	m.sched(1, []*isa.Inst{&m.pr.Main().Blocks[1].Insts[0], nil})
	return m
}

// TestPooledStateNoStallLeakAcrossLanes is the regression test for
// fastState pooling: a state returned to the pool mid-speculation (here
// by an erroring memhier run) must come back fully reset — its
// spec-stall tracker and interlock watermark must not leak into the next
// run.
func TestPooledStateNoStallLeakAcrossLanes(t *testing.T) {
	mem := memhier.Default()
	clean, err := Predecode(mispredictSched().sp)
	if err != nil {
		t.Fatal(err)
	}
	dirty, err := Predecode(dirtySched().sp)
	if err != nil {
		t.Fatal(err)
	}

	want, err := clean.Exec(ExecConfig{Mem: &mem})
	if err != nil {
		t.Fatal(err)
	}
	if want.SquashedMemStalls <= 0 {
		t.Fatalf("scenario does not exercise the spec-stall tracker: %+v", want)
	}
	// Alternate dirtying and clean runs: each erroring run parks a state
	// with pending speculative stalls in the pool, which the next clean
	// run will typically reuse.
	for round := 0; round < 8; round++ {
		if _, derr := dirty.Exec(ExecConfig{Mem: &mem}); derr == nil {
			t.Fatal("dirtying run unexpectedly succeeded")
		}
		got, err := clean.Exec(ExecConfig{Mem: &mem})
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("round %d: pooled state leaked across runs:\nwant %+v\ngot  %+v", round, want, got)
		}
	}
	// White-box: a deliberately dirtied state must come back from the pool
	// reset (pointer-guarded — the pool may hand back a different object,
	// in which case the behavioral checks above still cover the property).
	cfg := ExecConfig{}
	mh, err := memhier.New(mem)
	if err != nil {
		t.Fatal(err)
	}
	fs := getFastState(clean, &cfg, nil, 0)
	fs.spec.add(1, 17)
	fs.spec.add(7, 4)
	fs.maxReady = 1 << 40
	fs.addLane(mh, 1)
	fs.lanes[0].spec.add(1, 5)
	fs.lanes[0].regReady[1] = 1 << 40
	fs.lanes[0].maxReady = 1 << 40
	putFastState(fs)
	if fs.lanes[:1][0].mh != nil {
		t.Errorf("pooled state keeps a lane's hierarchy alive")
	}
	fs2 := getFastState(clean, &cfg, nil, 0)
	defer putFastState(fs2)
	if fs2 == fs {
		for lv, p := range fs2.spec.pending {
			if p != 0 {
				t.Errorf("pooled reuse kept %d pending stall cycles at level %d", p, lv)
			}
		}
		if fs2.maxReady != 0 {
			t.Errorf("pooled reuse kept interlock watermark %d", fs2.maxReady)
		}
		if len(fs2.lanes) != 0 {
			t.Errorf("pooled reuse kept %d lanes", len(fs2.lanes))
		}
		fs2.addLane(nil, 1)
		l := &fs2.lanes[0]
		if l.spec.pending[1] != 0 || l.regReady[1] != 0 || l.maxReady != 0 || l.cycles != 0 {
			t.Errorf("pooled lane not reset: %+v", *l)
		}
	}
}

// wideSched builds a program that writes n fresh registers one per cycle
// and halts: its register file is wider than mispredictSched's.
func wideSched(n int) *manual {
	m := newManual(machine.Boost7(), func(f *prog.Builder) {
		for i := range n {
			f.Li(f.Reg(), int32(i))
		}
		f.Halt()
	})
	entry := m.pr.Main().Blocks[0]
	cycles := make([][]*isa.Inst, len(entry.Insts))
	for i := range entry.Insts {
		cycles[i] = []*isa.Inst{&entry.Insts[i], nil}
	}
	m.sched(0, cycles...)
	return m
}

// TestPromotedLaneKeepsBuffersPaired is the regression test for a shared
// run whose primary lane retires over its cycle budget while a further
// lane runs on. The promoted lane must leave the state's ready times as
// large as its registers: a pooled state sized by a wide program, then
// used by a narrow batch with a promotion, must still run the wide
// program again.
func TestPromotedLaneKeepsBuffersPaired(t *testing.T) {
	mem := memhier.Default()
	narrow, err := Predecode(mispredictSched().sp)
	if err != nil {
		t.Fatal(err)
	}
	wide, err := Predecode(wideSched(64).sp)
	if err != nil {
		t.Fatal(err)
	}
	if wide.numRegs <= narrow.numRegs {
		t.Fatalf("wide program has %d registers, narrow %d", wide.numRegs, narrow.numRegs)
	}
	perfect, err := narrow.Exec(ExecConfig{})
	if err != nil {
		t.Fatal(err)
	}
	slow, err := narrow.Exec(ExecConfig{Mem: &mem})
	if err != nil {
		t.Fatal(err)
	}
	budget := (perfect.Cycles + slow.Cycles) / 2
	if budget <= perfect.Cycles || budget >= slow.Cycles {
		t.Fatalf("no budget between %d and %d cycles", perfect.Cycles, slow.Cycles)
	}
	want, err := wide.Exec(ExecConfig{})
	if err != nil {
		t.Fatal(err)
	}
	// The slow lane comes first, so it is the primary that retires and
	// hands the run to the perfect-memory lane.
	batch := []ExecConfig{{Mem: &mem, MaxCycles: budget}, {MaxCycles: budget}}

	// White-box, on one state: wide run, narrow batch, wide run.
	var cfg ExecConfig
	fs := new(fastState)
	runWide := func(label string) {
		t.Helper()
		fs.reset(wide, &cfg, nil, 0)
		fs.results, fs.errs = fs.one[:], fs.oneErr[:]
		fs.run()
		if fs.oneErr[0] != nil || !reflect.DeepEqual(fs.one[0], want) {
			t.Fatalf("%s: wide run on the state gave %+v, %v; want %+v", label, fs.one[0], fs.oneErr[0], want)
		}
	}
	runWide("first")
	mh, err := memhier.New(mem)
	if err != nil {
		t.Fatal(err)
	}
	results, errs := make([]*ExecResult, 2), make([]error, 2)
	fs.reset(narrow, &batch[0], mh, 0)
	fs.addLane(nil, 1)
	fs.results, fs.errs = results, errs
	fs.run()
	if errs[0] == nil || errs[1] != nil || !reflect.DeepEqual(results[1], perfect) {
		t.Fatalf("want only the slow lane over budget and the perfect lane finished, got %v", errs)
	}
	if cap(fs.regReady) < cap(fs.regs) {
		t.Errorf("promotion left %d ready times for %d registers", cap(fs.regReady), cap(fs.regs))
	}
	runWide("after promotion")

	// Through the pool: the same sequence, which typically reuses one
	// state.
	for round := range 4 {
		if got, err := wide.Exec(cfg); err != nil || !reflect.DeepEqual(got, want) {
			t.Fatalf("round %d: wide run gave %+v, %v", round, got, err)
		}
		if _, errs := narrow.ExecBatch(batch); errs[0] == nil || errs[1] != nil {
			t.Fatalf("round %d: batch errors %v", round, errs)
		}
	}
	if got, err := wide.Exec(cfg); err != nil || !reflect.DeepEqual(got, want) {
		t.Fatalf("wide run after the batches gave %+v, %v", got, err)
	}
}
