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
	fs := getFastState(clean, &cfg)
	fs.spec.add(1, 17)
	fs.spec.add(7, 4)
	fs.maxReady = 1 << 40
	putFastState(fs)
	fs2 := getFastState(clean, &cfg)
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
	}
}
