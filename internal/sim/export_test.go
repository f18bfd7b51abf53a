package sim

import (
	"boosting/internal/isa"
	"boosting/internal/machine"
	"boosting/internal/prog"
)

// ImageDigests returns the digest pd's memory image stored when it was
// built, and the digest recomputed from the image's pages now. They
// differ if a run wrote to the shared image.
func ImageDigests(pd *Predecoded) (stored, recomputed uint64) {
	for pn, p := range pd.img.pages {
		recomputed ^= foldPage(pn, p)
	}
	return pd.img.digest, recomputed
}

// FaultAfterStall is a program that stalls a finite hierarchy on a
// boosted load and then stops on an unhandled precise fault.
func FaultAfterStall() *machine.SchedProgram { return dirtySched().sp }

// MissingSuccessor is a program whose entry block loads a word (a miss
// under a finite hierarchy) and then takes a branch whose taken
// successor is missing.
func MissingSuccessor() *machine.SchedProgram {
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
	ld := inst(isa.Inst{Op: isa.LW, Rd: 20, Rs: isa.SP, Imm: -4})
	m.sched(0,
		[]*isa.Inst{ld, nil},
		[]*isa.Inst{&entry.Insts[0], nil},
		[]*isa.Inst{&entry.Insts[1], nil},
		[]*isa.Inst{nil, nil},
	)
	m.sched(1, []*isa.Inst{&m.pr.Main().Blocks[1].Insts[0], nil})
	m.sched(2, []*isa.Inst{&m.pr.Main().Blocks[2].Insts[0], nil})
	entry.Succs = entry.Succs[:1]
	return m.sp
}
