package machine

import (
	"fmt"
	"strings"

	"boosting/internal/isa"
	"boosting/internal/prog"
)

// Cycle is one issue cycle of a schedule: up to IssueWidth instructions,
// one per slot (nil = empty slot, which the hardware treats as a NOP).
type Cycle struct {
	Slots []*isa.Inst
}

// Insts returns the non-nil instructions of the cycle in slot order.
func (c *Cycle) Insts() []*isa.Inst {
	out := make([]*isa.Inst, 0, len(c.Slots))
	for _, in := range c.Slots {
		if in != nil {
			out = append(out, in)
		}
	}
	return out
}

// SchedBlock is the machine schedule of one basic block. If the block ends
// in a branch or jump, the final cycle of the schedule is the architectural
// delay-slot cycle and the terminator sits in the cycle before it.
type SchedBlock struct {
	Block  *prog.Block
	Cycles []Cycle
}

// NumInsts counts the instructions (excluding empty slots) in the schedule.
func (sb *SchedBlock) NumInsts() int {
	n := 0
	for i := range sb.Cycles {
		for _, in := range sb.Cycles[i].Slots {
			if in != nil {
				n++
			}
		}
	}
	return n
}

// NumUseful counts instructions excluding explicit NOPs.
func (sb *SchedBlock) NumUseful() int {
	n := 0
	for i := range sb.Cycles {
		for _, in := range sb.Cycles[i].Slots {
			if in != nil && in.Op != isa.NOP {
				n++
			}
		}
	}
	return n
}

// SchedProc is the machine schedule of one procedure.
type SchedProc struct {
	Proc *prog.Proc
	// Blocks maps block ID to its schedule. Every non-recovery block
	// reachable from the entry has an entry here.
	Blocks map[int]*SchedBlock
	// Recovery maps the instruction ID of a committing conditional branch
	// to the boosted-exception recovery code for that branch: the
	// outstanding boosted instructions in original program order with
	// boosting levels decremented by one (level 1 becomes sequential).
	// The recovery sequence implicitly ends with a jump to the branch's
	// predicted target.
	Recovery map[int][]isa.Inst
}

// NumInsts returns the procedure's scheduled static size including
// recovery code (the paper's object-file-growth metric counts both).
func (sp *SchedProc) NumInsts() int {
	n := 0
	for _, sb := range sp.Blocks {
		n += sb.NumInsts()
	}
	for _, rec := range sp.Recovery {
		n += len(rec) + 1 // +1 for the terminating jump
	}
	return n
}

// SchedProgram is a fully scheduled program for one machine model.
type SchedProgram struct {
	Prog  *prog.Program
	Model *Model
	Procs map[string]*SchedProc
}

// NumInsts returns the whole program's scheduled static size.
func (s *SchedProgram) NumInsts() int {
	n := 0
	for _, sp := range s.Procs {
		n += sp.NumInsts()
	}
	return n
}

// ObjectGrowth returns scheduled size / original size (paper §2.3 reports
// "less than a two-times growth" including recovery code).
func (s *SchedProgram) ObjectGrowth() float64 {
	orig := s.Prog.NumInsts()
	if orig == 0 {
		return 1
	}
	return float64(s.NumInsts()) / float64(orig)
}

// Format renders every procedure's schedule (SchedProc.Format) in
// program order: the listing boostcc, boostd and ScheduleListing print.
func (s *SchedProgram) Format() string {
	var sb strings.Builder
	for _, name := range s.Prog.Order {
		sb.WriteString(s.Procs[name].Format())
	}
	return sb.String()
}

// Format renders a procedure schedule for inspection: one line per cycle,
// slots separated by " | ".
func (sp *SchedProc) Format() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, ".sched %s\n", sp.Proc.Name)
	for _, b := range sp.Proc.Blocks {
		blk := sp.Blocks[b.ID]
		if blk == nil {
			continue
		}
		fmt.Fprintf(&sb, "B%d.%s:\n", b.ID, b.Label)
		for ci := range blk.Cycles {
			parts := make([]string, 0, len(blk.Cycles[ci].Slots))
			for _, in := range blk.Cycles[ci].Slots {
				if in == nil {
					parts = append(parts, "-")
				} else {
					parts = append(parts, in.String())
				}
			}
			fmt.Fprintf(&sb, "  %2d: %s\n", ci, strings.Join(parts, " | "))
		}
	}
	if len(sp.Recovery) > 0 {
		fmt.Fprintf(&sb, ".recovery (%d sites)\n", len(sp.Recovery))
	}
	return sb.String()
}

// Verify checks structural schedule invariants against the model:
// slot class legality, exactly one terminator placed in the second-to-last
// cycle (followed by its delay cycle) when the block has one, boosting
// levels within the model's limit, boosted stores only with a store
// buffer, and Squashing placement limits.
func (s *SchedProgram) Verify() error {
	for name, sp := range s.Procs {
		for _, b := range sp.Proc.Blocks {
			if b.Recovery {
				continue
			}
			sb := sp.Blocks[b.ID]
			if sb == nil {
				return fmt.Errorf("%s: block B%d has no schedule", name, b.ID)
			}
			if err := s.verifyBlock(name, sb); err != nil {
				return err
			}
		}
	}
	return nil
}

func (s *SchedProgram) verifyBlock(proc string, sb *SchedBlock) error {
	m := s.Model
	b := sb.Block
	termCycle := -1
	for ci := range sb.Cycles {
		cy := &sb.Cycles[ci]
		if len(cy.Slots) != m.IssueWidth {
			return fmt.Errorf("%s B%d cycle %d: %d slots, want %d",
				proc, b.ID, ci, len(cy.Slots), m.IssueWidth)
		}
		for si, in := range cy.Slots {
			if in == nil {
				continue
			}
			c := isa.ClassOf(in.Op)
			if c != isa.ClassNone && !m.Slots[si].Has(c) {
				return fmt.Errorf("%s B%d cycle %d slot %d: class %s not executable",
					proc, b.ID, ci, si, c)
			}
			if isa.IsControl(in.Op) {
				if termCycle >= 0 {
					return fmt.Errorf("%s B%d: two control instructions", proc, b.ID)
				}
				termCycle = ci
			}
			if in.Boost > m.Boost.MaxLevel {
				return fmt.Errorf("%s B%d: boost level %d exceeds model max %d",
					proc, b.ID, in.Boost, m.Boost.MaxLevel)
			}
			if in.Boost > 0 && isa.IsStore(in.Op) && !m.Boost.StoreBuffer {
				return fmt.Errorf("%s B%d: boosted store without shadow store buffer",
					proc, b.ID)
			}
			if in.Boost > 0 && m.Boost.SquashOnly {
				// Boosted instructions may only occupy the branch cycle or
				// the delay cycle (the last two cycles of the block).
				if ci < len(sb.Cycles)-2 {
					return fmt.Errorf("%s B%d cycle %d: boosted instruction outside branch shadow",
						proc, b.ID, ci)
				}
			}
		}
	}
	t := b.Terminator()
	if t != nil && t.Op != isa.HALT {
		// Branch/jump must be in the second-to-last cycle; the last cycle
		// is its delay slot.
		if termCycle != len(sb.Cycles)-2 {
			return fmt.Errorf("%s B%d: terminator in cycle %d of %d (want len-2)",
				proc, b.ID, termCycle, len(sb.Cycles))
		}
	}
	if t == nil && termCycle >= 0 {
		return fmt.Errorf("%s B%d: unexpected control instruction", proc, b.ID)
	}
	return nil
}
