package dataflow

import (
	"boosting/internal/isa"
	"boosting/internal/prog"
)

// Liveness holds per-block live-variable sets over registers. Register r is
// live at a point if some path from that point uses r before redefining it.
// The scheduler consults live-IN sets of non-predicted successors to decide
// whether a speculative code motion is *illegal* (paper §3.2.2: "By
// checking the live-IN sets of the non-predicted successor blocks against
// the destination register of the current instruction, an algorithm can
// determine when a speculative movement is illegal").
type Liveness struct {
	// NumRegs is the size of each set (max register index + 1).
	NumRegs int
	// In[b.ID] and Out[b.ID] are live-IN and live-OUT of the block.
	In  []BitSet
	Out []BitSet
	// Use and Def are the per-block gen/kill sets.
	Use []BitSet
	Def []BitSet

	// maxReg[b.ID] is the highest register block b mentions, kept so an
	// update can size its sets without rescanning unedited blocks.
	maxReg []isa.Reg
}

// callerVisible lists registers treated as live across calls and at
// returns: the ABI registers our convention exposes. A JAL additionally
// defines RA and may define RV.
var callerVisible = []isa.Reg{isa.RV, isa.A0, isa.A1, isa.A2, isa.A3, isa.SP, isa.RA}

// ComputeLiveness runs iterative backward live-variable analysis on p.
// Recovery blocks are skipped. At procedure exits (JR/HALT) the
// caller-visible ABI registers are live-out, which conservatively keeps
// return values alive.
func ComputeLiveness(p *prog.Proc) *Liveness {
	lv := &Liveness{maxReg: make([]isa.Reg, maxBlockID(p)+1)}
	for _, b := range p.Blocks {
		lv.maxReg[b.ID] = blockMaxReg(b)
	}
	lv.alloc(p, lv.numRegs(p))
	for _, b := range p.Blocks {
		lv.localSets(b)
	}
	lv.solve(p)
	return lv
}

// update returns the liveness of p after an edit that changed only the
// instruction lists of the blocks in edited, computed from lv, the
// liveness before the edit. Every other block keeps lv's Use and Def
// sets; the fixpoint is solved again from empty In and Out sets, so the
// result is exactly what ComputeLiveness would return. It returns nil
// when the edit changed the block set or the register count, which
// needs a full computation.
func (lv *Liveness) update(p *prog.Proc, edited []*prog.Block) *Liveness {
	if maxBlockID(p)+1 != len(lv.maxReg) {
		return nil
	}
	nlv := &Liveness{maxReg: append([]isa.Reg(nil), lv.maxReg...)}
	for _, b := range edited {
		nlv.maxReg[b.ID] = blockMaxReg(b)
	}
	if nlv.numRegs(p) != lv.NumRegs {
		return nil
	}
	nlv.alloc(p, lv.NumRegs)
	for _, b := range p.Blocks {
		nlv.Use[b.ID].Copy(lv.Use[b.ID])
		nlv.Def[b.ID].Copy(lv.Def[b.ID])
	}
	for _, b := range edited {
		nlv.Use[b.ID].Reset()
		nlv.Def[b.ID].Reset()
		nlv.localSets(b)
	}
	nlv.solve(p)
	return nlv
}

// Equal reports whether two liveness results are identical: the same
// register count and the same four sets for every block.
func (lv *Liveness) Equal(o *Liveness) bool {
	if lv.NumRegs != o.NumRegs || len(lv.In) != len(o.In) {
		return false
	}
	for id := range lv.In {
		if !lv.In[id].Equal(o.In[id]) || !lv.Out[id].Equal(o.Out[id]) ||
			!lv.Use[id].Equal(o.Use[id]) || !lv.Def[id].Equal(o.Def[id]) {
			return false
		}
	}
	return true
}

// numRegs is the set size for p: one more than the highest register any
// block mentions, recovery blocks included, as Proc.MaxReg counts.
func (lv *Liveness) numRegs(p *prog.Proc) int {
	top := isa.Reg(isa.NumArchRegs - 1)
	for _, b := range p.Blocks {
		top = max(top, lv.maxReg[b.ID])
	}
	return int(top) + 1
}

// blockMaxReg returns the highest register b's instructions mention.
func blockMaxReg(b *prog.Block) isa.Reg {
	var top isa.Reg
	var buf [4]isa.Reg
	for i := range b.Insts {
		regs := b.Insts[i].Defs(buf[:0])
		for _, r := range b.Insts[i].Uses(regs) {
			top = max(top, r)
		}
	}
	return top
}

// alloc sizes the result for nRegs registers and cuts every block's four
// empty sets from one slab.
func (lv *Liveness) alloc(p *prog.Proc, nRegs int) {
	n := len(lv.maxReg)
	lv.NumRegs = nRegs
	lv.In, lv.Out = make([]BitSet, n), make([]BitSet, n)
	lv.Use, lv.Def = make([]BitSet, n), make([]BitSet, n)
	w := (nRegs + 63) / 64
	slab := make([]uint64, 4*w*len(p.Blocks))
	next := func() BitSet {
		s := BitSet(slab[:w:w])
		slab = slab[w:]
		return s
	}
	for _, b := range p.Blocks {
		lv.In[b.ID], lv.Out[b.ID], lv.Use[b.ID], lv.Def[b.ID] = next(), next(), next(), next()
	}
}

// solve iterates In and Out to the fixpoint from the Use and Def sets,
// visiting blocks in reverse order for speed.
func (lv *Liveness) solve(p *prog.Proc) {
	blocks := p.Blocks
	tmp := NewBitSet(lv.NumRegs)
	for changed := true; changed; {
		changed = false
		for i := len(blocks) - 1; i >= 0; i-- {
			b := blocks[i]
			if b.Recovery {
				continue
			}
			out := lv.Out[b.ID]
			if len(b.Succs) == 0 {
				for _, r := range callerVisible {
					if int(r) < lv.NumRegs {
						out.Set(int(r))
					}
				}
			}
			for _, s := range b.Succs {
				if out.Union(lv.In[s.ID]) {
					changed = true
				}
			}
			// in = use ∪ (out − def)
			tmp.Copy(out)
			tmp.Subtract(lv.Def[b.ID])
			tmp.Union(lv.Use[b.ID])
			if !tmp.Equal(lv.In[b.ID]) {
				lv.In[b.ID].Copy(tmp)
				changed = true
			}
		}
	}
}

// callArgs are the registers a call reads: the argument registers and SP.
var callArgs = [...]isa.Reg{isa.A0, isa.A1, isa.A2, isa.A3, isa.SP}

// localSets fills Use (upward-exposed uses) and Def for block b.
func (lv *Liveness) localSets(b *prog.Block) {
	use, def := lv.Use[b.ID], lv.Def[b.ID]
	var buf [4]isa.Reg
	for i := range b.Insts {
		in := &b.Insts[i]
		for _, r := range in.Uses(buf[:0]) {
			if !def.Has(int(r)) {
				use.Set(int(r))
			}
		}
		if in.Op == isa.JAL {
			// Calls use the argument registers and SP.
			for _, r := range callArgs {
				if !def.Has(int(r)) {
					use.Set(int(r))
				}
			}
			// And define RV and RA (clobbered by callee/linkage).
			def.Set(int(isa.RV))
			def.Set(int(isa.RA))
			continue
		}
		if in.Boost > 0 {
			// A boosted def's sequential effect happens at a later
			// block's commit; treating it as a kill here would
			// understate liveness for blocks entered mid-trace.
			continue
		}
		for _, r := range in.Defs(buf[:0]) {
			if r != isa.R0 {
				def.Set(int(r))
			}
		}
	}
}

// LiveIntoEdge returns the set of registers live on entry to succ. It is
// the legality test set for boosting: a speculative def of r moved above
// b's terminating branch is illegal iff r is live into the non-predicted
// successor.
func (lv *Liveness) LiveIntoEdge(succ *prog.Block) BitSet { return lv.In[succ.ID] }

// LiveAt computes the registers live immediately before instruction index
// idx within block b (0 = block start). It walks backward from the block's
// live-out; cost is O(block length) so callers should batch queries.
func (lv *Liveness) LiveAt(b *prog.Block, idx int) BitSet {
	live := lv.Out[b.ID].CloneSet()
	var regs []isa.Reg
	for i := len(b.Insts) - 1; i >= idx; i-- {
		in := &b.Insts[i]
		if in.Boost == 0 {
			regs = in.Defs(regs[:0])
			for _, r := range regs {
				if r != isa.R0 {
					live.Clear(int(r))
				}
			}
		}
		regs = in.Uses(regs[:0])
		for _, r := range regs {
			live.Set(int(r))
		}
		if in.Op == isa.JAL {
			for _, r := range callArgs {
				live.Set(int(r))
			}
		}
	}
	return live
}
