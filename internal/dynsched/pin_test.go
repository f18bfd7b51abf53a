package dynsched

import (
	"fmt"
	"testing"

	"boosting/internal/memhier"
	"boosting/internal/regalloc"
	"boosting/internal/workloads"
)

// pinnedRuns are the timing model's results on every kernel's
// register-allocated test input, for renaming off/on × perfect memory /
// memhier.Default(). The perfect-memory rows are Figure 9's dynamic bars.
// Any drift in any column is a change to simulated behaviour.
var pinnedRuns = []struct {
	kernel      string
	renaming    bool
	memhier     bool
	cycles      int64
	insts       int64
	branches    int64
	mispredicts int64
	memStalls   int64
}{
	{"awk", false, false, 205878, 132377, 4908, 1003, 0},
	{"awk", false, true, 212631, 132377, 4908, 1003, 6753},
	{"awk", true, false, 74652, 132377, 4908, 1003, 0},
	{"awk", true, true, 81224, 132377, 4908, 1003, 6759},
	{"compress", false, false, 394547, 280980, 44941, 9935, 0},
	{"compress", false, true, 523433, 280980, 44941, 9935, 132048},
	{"compress", true, false, 202001, 280980, 44941, 9935, 0},
	{"compress", true, true, 302670, 280980, 44941, 9935, 132051},
	{"eqntott", false, false, 165063, 178845, 37555, 4752, 0},
	{"eqntott", false, true, 177068, 178845, 37555, 4752, 12214},
	{"eqntott", true, false, 117559, 178845, 37555, 4752, 0},
	{"eqntott", true, true, 127576, 178845, 37555, 4752, 12216},
	{"espresso", false, false, 394703, 400399, 91300, 7249, 0},
	{"espresso", false, true, 397292, 400399, 91300, 7249, 2880},
	{"espresso", true, false, 228171, 400399, 91300, 7249, 0},
	{"espresso", true, true, 230355, 400399, 91300, 7249, 2880},
	{"grep", false, false, 82807, 145475, 48000, 1416, 0},
	{"grep", false, true, 96330, 145475, 48000, 1416, 14052},
	{"grep", true, false, 77242, 145475, 48000, 1416, 0},
	{"grep", true, true, 89987, 145475, 48000, 1416, 14052},
	{"nroff", false, false, 163651, 166619, 27304, 1570, 0},
	{"nroff", false, true, 178549, 166619, 27304, 1570, 14898},
	{"nroff", true, false, 89949, 166619, 27304, 1570, 0},
	{"nroff", true, true, 102837, 166619, 27304, 1570, 14826},
	{"xlisp", false, false, 60787, 82156, 17545, 5372, 0},
	{"xlisp", false, true, 103040, 82156, 17545, 5372, 43694},
	{"xlisp", true, false, 54314, 82156, 17545, 5372, 0},
	{"xlisp", true, true, 94181, 82156, 17545, 5372, 43682},
}

// TestPinnedKernelResults pins Cycles, Insts, Branches, Mispredicts and
// MemStalls for all 7 kernels × renaming × memory. The golden digests
// cover only grep and eqntott with perfect memory.
func TestPinnedKernelResults(t *testing.T) {
	if len(pinnedRuns) != 28 {
		t.Fatalf("%d pinned rows, want 28", len(pinnedRuns))
	}
	var perfectSum int64
	for _, want := range pinnedRuns {
		if !want.memhier {
			perfectSum += want.cycles
		}
	}
	// Figure 9's fourteen dynamic runs, as EXPERIMENTS.md reports them.
	if perfectSum != 2_311_324 {
		t.Fatalf("perfect-memory rows sum to %d cycles, want 2311324", perfectSum)
	}
	for _, want := range pinnedRuns {
		name := fmt.Sprintf("%s/ren=%v/memhier=%v", want.kernel, want.renaming, want.memhier)
		t.Run(name, func(t *testing.T) {
			w, err := workloads.ByName(want.kernel)
			if err != nil {
				t.Fatal(err)
			}
			pr := w.BuildTest()
			if _, err := regalloc.Allocate(pr); err != nil {
				t.Fatal(err)
			}
			cfg := Default()
			cfg.Renaming = want.renaming
			if want.memhier {
				mc := memhier.Default()
				cfg.Mem = &mc
			}
			res, err := Simulate(pr, cfg)
			if err != nil {
				t.Fatal(err)
			}
			got := [5]int64{res.Cycles, res.Insts, res.Branches, res.Mispredicts, res.MemStalls}
			exp := [5]int64{want.cycles, want.insts, want.branches, want.mispredicts, want.memStalls}
			if got != exp {
				t.Errorf("cycles/insts/branches/mispredicts/memstalls = %v, want %v", got, exp)
			}
		})
	}
}
