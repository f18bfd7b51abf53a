package prog

import (
	"fmt"
	"slices"

	"boosting/internal/isa"
)

// Verify checks structural invariants of a procedure:
//
//   - every block has a terminator or a single fall-through successor;
//   - successor counts match the terminator kind;
//   - Preds lists are consistent with Succs lists;
//   - control-transfer instructions appear only as terminators;
//   - the entry block belongs to the procedure;
//   - all successors belong to the procedure;
//   - recovery blocks have no CFG predecessors.
func Verify(p *Proc) error {
	if p.Entry == nil {
		return fmt.Errorf("proc %s: nil entry", p.Name)
	}
	inProc := make(map[*Block]bool, len(p.Blocks))
	for _, b := range p.Blocks {
		inProc[b] = true
	}
	if !inProc[p.Entry] {
		return fmt.Errorf("proc %s: entry block not in Blocks", p.Name)
	}

	for _, b := range p.Blocks {
		for i := range b.Insts {
			in := &b.Insts[i]
			if isa.IsControl(in.Op) && i != len(b.Insts)-1 {
				return fmt.Errorf("proc %s: %s has control op %s mid-block (pos %d)",
					p.Name, b, in.Op, i)
			}
		}
		t := b.Terminator()
		switch {
		case t == nil:
			if len(b.Succs) != 1 {
				return fmt.Errorf("proc %s: fall-through block %s has %d successors",
					p.Name, b, len(b.Succs))
			}
		case isa.IsCondBranch(t.Op):
			if len(b.Succs) != 2 {
				return fmt.Errorf("proc %s: branch block %s has %d successors",
					p.Name, b, len(b.Succs))
			}
			if b.Succs[0] == nil || b.Succs[1] == nil {
				return fmt.Errorf("proc %s: branch block %s has nil successor", p.Name, b)
			}
		case t.Op == isa.J || t.Op == isa.JAL:
			if len(b.Succs) != 1 {
				return fmt.Errorf("proc %s: jump block %s has %d successors",
					p.Name, b, len(b.Succs))
			}
		case t.Op == isa.JR || t.Op == isa.HALT:
			if len(b.Succs) != 0 {
				return fmt.Errorf("proc %s: exit block %s has %d successors",
					p.Name, b, len(b.Succs))
			}
		}
		for _, s := range b.Succs {
			if !inProc[s] {
				return fmt.Errorf("proc %s: %s has successor outside proc", p.Name, b)
			}
			if s.Recovery {
				return fmt.Errorf("proc %s: %s targets recovery block %s", p.Name, b, s)
			}
		}
	}

	// Preds consistency: each block lists every edge into it from the
	// procedure, once per edge, and nothing else.
	for _, b := range p.Blocks {
		for i, pb := range b.Preds {
			if slices.Index(b.Preds, pb) < i {
				continue // counted at its first occurrence
			}
			have, want := count(b.Preds, pb), 0
			if inProc[pb] {
				want = count(pb.Succs, b)
			}
			if want == 0 {
				return fmt.Errorf("proc %s: %s has stale pred %s", p.Name, b, pb)
			}
			if have != want {
				return fmt.Errorf("proc %s: %s preds inconsistent (want %d edges from %s, have %d)",
					p.Name, b, want, pb, have)
			}
		}
	}
	for _, b := range p.Blocks {
		for _, s := range b.Succs {
			if !slices.Contains(s.Preds, b) {
				return fmt.Errorf("proc %s: %s preds inconsistent (want %d edges from %s, have 0)",
					p.Name, s, count(b.Succs, s), b)
			}
		}
	}
	return nil
}

// count returns how many times b occurs in bs.
func count(bs []*Block, b *Block) int {
	n := 0
	for _, x := range bs {
		if x == b {
			n++
		}
	}
	return n
}

// VerifyProgram verifies every procedure and that every JAL target exists.
func VerifyProgram(pr *Program) error {
	if pr.Main() == nil {
		return fmt.Errorf("program has no main")
	}
	for _, p := range pr.ProcList() {
		if err := Verify(p); err != nil {
			return err
		}
		if err := verifyCalls(pr, p); err != nil {
			return err
		}
	}
	return nil
}

// verifyCalls checks that every JAL in p names a procedure of pr.
func verifyCalls(pr *Program, p *Proc) error {
	for _, b := range p.Blocks {
		for i := range b.Insts {
			in := &b.Insts[i]
			if in.Op == isa.JAL {
				if _, ok := pr.Procs[in.Sym]; !ok {
					return fmt.Errorf("proc %s: call to undefined proc %q", p.Name, in.Sym)
				}
			}
		}
	}
	return nil
}
