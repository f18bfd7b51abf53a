// Package profile implements branch profiling and profile-driven static
// branch prediction, following the paper's methodology (§4.3): "Our
// scheduler uses a branch profile of the program to generate the static
// branch prediction information needed during scheduling. This branch
// profile is generated from a different input set than is used to
// determine performance."
package profile

import (
	"fmt"

	"boosting/internal/isa"
	"boosting/internal/prog"
	"boosting/internal/sim"
)

// Annotate executes the program to completion with the reference
// interpreter, fills every block's Count/TakenCount profile fields, and
// sets each conditional branch's static prediction bit to its
// most-frequently taken direction. Branches never executed during
// profiling default to predicted not-taken.
func Annotate(pr *prog.Program) error {
	// Reset any previous profile.
	for _, p := range pr.ProcList() {
		for _, b := range p.Blocks {
			b.Count, b.TakenCount = 0, 0
		}
	}
	_, err := sim.Run(pr, sim.RefConfig{
		OnBlock: func(_ *prog.Proc, b *prog.Block) { b.Count++ },
		OnBranch: func(_ *prog.Proc, b *prog.Block, taken bool) {
			if taken {
				b.TakenCount++
			}
		},
	})
	if err != nil {
		return fmt.Errorf("profile: training run failed: %w", err)
	}
	applyPredictions(pr)
	return nil
}

func applyPredictions(pr *prog.Program) {
	for _, p := range pr.ProcList() {
		for _, b := range p.Blocks {
			if t := b.Terminator(); t != nil && isa.IsCondBranch(t.Op) {
				t.Pred = b.Count > 0 && 2*b.TakenCount > b.Count
			}
		}
	}
}

// Transfer copies profile counts and prediction bits from a training
// program to a structurally identical program (same procedures, block IDs
// and instruction layout — the workload builders guarantee this for
// different inputs). It errors if the structures diverge.
func Transfer(train, test *prog.Program) error {
	for _, tp := range train.ProcList() {
		sp, ok := test.Procs[tp.Name]
		if !ok {
			return fmt.Errorf("profile: proc %s missing in test program", tp.Name)
		}
		if len(tp.Blocks) != len(sp.Blocks) {
			return fmt.Errorf("profile: proc %s block count differs (%d vs %d)",
				tp.Name, len(tp.Blocks), len(sp.Blocks))
		}
		for i, tb := range tp.Blocks {
			sb := sp.Blocks[i]
			if tb.ID != sb.ID || len(tb.Insts) != len(sb.Insts) {
				return fmt.Errorf("profile: proc %s block %d structure differs", tp.Name, tb.ID)
			}
			sb.Count, sb.TakenCount = tb.Count, tb.TakenCount
			if t := sb.Terminator(); t != nil && isa.IsCondBranch(t.Op) {
				t.Pred = tb.Terminator().Pred
			}
		}
	}
	return nil
}

// Accuracy executes the program with the reference interpreter and
// measures the static predictor: the fraction of executed conditional
// branches whose outcome matched their prediction bit.
func Accuracy(pr *prog.Program) (float64, error) {
	var hits Hits
	ref, err := sim.Run(pr, sim.RefConfig{OnBranch: hits.OnBranch})
	if err != nil {
		return 0, err
	}
	return hits.Accuracy(ref.Branches), nil
}

// Hits counts the conditional branches of one reference run whose
// outcome matched their prediction bit. Install OnBranch as the run's
// sim.RefConfig.OnBranch, so a run made for another reason (the
// pipeline's reference run) measures the predictor too.
type Hits int64

// OnBranch is the sim.RefConfig.OnBranch hook.
func (h *Hits) OnBranch(_ *prog.Proc, b *prog.Block, taken bool) {
	if t := b.Terminator(); t != nil && t.Pred == taken {
		*h++
	}
}

// Accuracy is the hit count over the run's executed conditional branches
// (1 when none executed).
func (h Hits) Accuracy(branches int64) float64 {
	if branches == 0 {
		return 1
	}
	return float64(h) / float64(branches)
}

// SelfAccuracy reads the static predictor's accuracy straight out of the
// counts Annotate left on the program, without running it: a profile
// trained on the input it predicts predicts each branch's majority
// direction, so the majority count is the correct count.
func SelfAccuracy(pr *prog.Program) float64 {
	var total, correct int64
	for _, p := range pr.ProcList() {
		for _, b := range p.Blocks {
			t := b.Terminator()
			if t == nil || !isa.IsCondBranch(t.Op) {
				continue
			}
			total += b.Count
			correct += max(b.TakenCount, b.Count-b.TakenCount)
		}
	}
	return Hits(correct).Accuracy(total)
}
