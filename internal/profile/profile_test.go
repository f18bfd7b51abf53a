package profile

import (
	"testing"

	"boosting/internal/isa"
	"boosting/internal/prog"
)

// buildBiased builds a loop whose branch is taken n-1 times and falls
// through once.
func buildBiased(n int32) *prog.Program {
	pr := prog.New()
	f := prog.NewBuilder(pr, "main")
	loop := f.Block("loop")
	done := f.Block("done")
	r := f.Reg()
	f.Li(r, n)
	f.Goto(loop)
	f.Enter(loop)
	f.Imm(isa.ADDI, r, r, -1)
	f.Branch(isa.BGTZ, r, isa.R0, loop, done)
	f.Enter(done)
	f.Out(r)
	f.Halt()
	f.Finish()
	return pr
}

func TestAnnotateSetsCountsAndPredictions(t *testing.T) {
	pr := buildBiased(10)
	if err := Annotate(pr); err != nil {
		t.Fatal(err)
	}
	loop := pr.Main().Blocks[1]
	if loop.Count != 10 || loop.TakenCount != 9 {
		t.Errorf("counts %d/%d, want 10/9", loop.Count, loop.TakenCount)
	}
	if !loop.Terminator().Pred {
		t.Error("branch taken 9/10 must predict taken")
	}
	if p := loop.TakenProb(); p < 0.89 || p > 0.91 {
		t.Errorf("taken probability %f", p)
	}
}

func TestAnnotatePredictsNotTakenForMinority(t *testing.T) {
	pr := buildBiased(2) // taken once, fall once → tie → not taken
	if err := Annotate(pr); err != nil {
		t.Fatal(err)
	}
	if pr.Main().Blocks[1].Terminator().Pred {
		t.Error("a 50/50 branch must default to not-taken")
	}
}

func TestAnnotateIsRepeatable(t *testing.T) {
	pr := buildBiased(5)
	if err := Annotate(pr); err != nil {
		t.Fatal(err)
	}
	if err := Annotate(pr); err != nil {
		t.Fatal(err)
	}
	if pr.Main().Blocks[1].Count != 5 {
		t.Errorf("second Annotate must reset counts, got %d", pr.Main().Blocks[1].Count)
	}
}

func TestAccuracyPerfectOnSameInput(t *testing.T) {
	pr := buildBiased(100)
	if err := Annotate(pr); err != nil {
		t.Fatal(err)
	}
	acc, err := Accuracy(pr)
	if err != nil {
		t.Fatal(err)
	}
	// 99 taken + 1 fall with predict-taken → 99%.
	if acc < 0.98 || acc > 1.0 {
		t.Errorf("accuracy %f, want ≈0.99", acc)
	}
}

// TestSelfAccuracyMatchesRun: on a self-trained profile, the accuracy
// read from the counts equals the accuracy a run measures, ties included.
func TestSelfAccuracyMatchesRun(t *testing.T) {
	for _, n := range []int32{1, 2, 10, 100} {
		pr := buildBiased(n)
		if err := Annotate(pr); err != nil {
			t.Fatal(err)
		}
		acc, err := Accuracy(pr)
		if err != nil {
			t.Fatal(err)
		}
		if self := SelfAccuracy(pr); self != acc {
			t.Errorf("n=%d: SelfAccuracy %f, run measured %f", n, self, acc)
		}
	}
}

func TestTransferCopiesPredictions(t *testing.T) {
	train := buildBiased(10)
	test := buildBiased(3)
	if err := Annotate(train); err != nil {
		t.Fatal(err)
	}
	if err := Transfer(train, test); err != nil {
		t.Fatal(err)
	}
	if !test.Main().Blocks[1].Terminator().Pred {
		t.Error("prediction bit not transferred")
	}
	if test.Main().Blocks[1].Count != 10 {
		t.Error("profile counts not transferred")
	}
}

func TestTransferRejectsStructuralMismatch(t *testing.T) {
	train := buildBiased(10)
	if err := Annotate(train); err != nil {
		t.Fatal(err)
	}

	other := prog.New()
	f := prog.NewBuilder(other, "main")
	f.Halt()
	f.Finish()
	if err := Transfer(train, other); err == nil {
		t.Error("mismatched structure must be rejected")
	}

	renamed := prog.New()
	g := prog.NewBuilder(renamed, "other")
	g.Halt()
	g.Finish()
	if err := Transfer(train, renamed); err == nil {
		t.Error("missing procedure must be rejected")
	}
}

func TestAccuracyWithNoBranches(t *testing.T) {
	pr := prog.New()
	f := prog.NewBuilder(pr, "main")
	f.Halt()
	f.Finish()
	acc, err := Accuracy(pr)
	if err != nil || acc != 1 {
		t.Errorf("no-branch accuracy = %f, %v; want 1, nil", acc, err)
	}
}
