// Package regalloc implements the paper's register allocation scheme:
// instruction scheduling is performed *after* register allocation, and the
// allocator is round-robin "to minimize these [anti- and output-]
// dependences" (paper §3.2.1).
//
// Workloads are written against unbounded virtual registers; Allocate maps
// every virtual register onto the 32 architectural registers. Virtual
// registers that do not fit (or that live across calls, which clobber the
// caller's registers under our all-caller-saved convention) are spilled to
// statically allocated memory slots. Static spill slots make spilled
// procedures non-reentrant; the workloads use explicit memory stacks for
// recursion, as non-numerical C codes of the era commonly compiled to
// caller-managed frames anyway.
package regalloc

import (
	"fmt"
	"math/bits"
	"slices"

	"boosting/internal/dataflow"
	"boosting/internal/isa"
	"boosting/internal/prog"
)

// Pool is the set of architectural registers available for allocation.
// It excludes R0 (zero), RV/A0..A3 (linkage values), SP and RA.
var Pool = []isa.Reg{
	1, 3, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20, 21,
	22, 23, 24, 25, 26, 27, 28, 30,
}

// Stats reports what the allocator did.
type Stats struct {
	// Assigned counts virtual registers given architectural registers.
	Assigned int
	// Spilled counts virtual registers demoted to memory slots.
	Spilled int
	// SpillBytes is the static memory consumed by spill slots.
	SpillBytes int
}

// Allocate rewrites the program in place so that no virtual registers
// remain. It returns per-procedure statistics keyed by name.
func Allocate(pr *prog.Program) (map[string]*Stats, error) {
	out := map[string]*Stats{}
	a := &allocator{pr: pr}
	for _, p := range pr.ProcList() {
		st, err := a.allocateProc(p)
		if err != nil {
			return nil, fmt.Errorf("regalloc %s: %w", p.Name, err)
		}
		out[p.Name] = st
	}
	return out, nil
}

// allocator carries one program's allocation state.
type allocator struct {
	pr *prog.Program
	p  *prog.Proc
	st *Stats
	// temps lists the virtuals created by spilling, in ascending order
	// (FreshReg counts up). They are short-lived and must never
	// themselves be chosen for spilling (that would not reduce register
	// pressure and the allocation would not converge).
	temps []isa.Reg
	// The current colouring round's numbering. order lists the
	// procedure's virtuals in first-appearance order; seen marks them by
	// register number; rank[w] counts the marks below word w of seen;
	// perm maps a virtual's rank among the marks to its position in
	// order. seen and rank cost 1.5 bits per register number, less than
	// one liveness set, however sparsely a body numbers its virtuals.
	order []isa.Reg
	seen  dataflow.BitSet
	rank  []int32
	perm  []int32
	color []int8
	regs  []isa.Reg
}

func (a *allocator) allocateProc(p *prog.Proc) (*Stats, error) {
	a.p, a.st = p, &Stats{}

	// Step 1: spill every virtual live across a call (our convention is
	// all-caller-saved, and spilling is the caller's save).
	lv := a.spillCallCrossing()

	// Step 2: iterate coloring; on failure spill the worst offender.
	for round := 0; ; round++ {
		if round > 256 {
			return nil, fmt.Errorf("did not converge after %d spill rounds", round)
		}
		if lv == nil {
			lv = dataflow.ComputeLiveness(a.p)
		}
		failed := a.colorRound(lv)
		lv = nil
		if failed == 0 {
			break
		}
		if a.isTemp(failed) {
			return nil, fmt.Errorf("register pressure from spill temporaries alone exceeds the pool")
		}
		a.spill(failed)
	}
	return a.st, nil
}

func (a *allocator) isTemp(r isa.Reg) bool {
	_, ok := slices.BinarySearch(a.temps, r)
	return ok
}

// fresh returns a new spill temporary.
func (a *allocator) fresh() isa.Reg {
	t := a.pr.FreshReg()
	a.temps = append(a.temps, t)
	return t
}

// virtuals numbers the virtual registers mentioned in the proc, all
// below nRegs, in first-appearance order (defs before uses within an
// instruction), and returns that order.
func (a *allocator) virtuals(nRegs int) []isa.Reg {
	a.seen = append(a.seen[:0], make(dataflow.BitSet, (nRegs+63)/64)...)
	order := a.order[:0]
	for _, b := range a.p.Blocks {
		for i := range b.Insts {
			a.regs = b.Insts[i].Defs(a.regs[:0])
			a.regs = b.Insts[i].Uses(a.regs)
			for _, r := range a.regs {
				if r.IsVirtual() && !a.seen.Has(int(r)) {
					a.seen.Set(int(r))
					order = append(order, r)
				}
			}
		}
	}
	a.order = order
	a.rank = a.rank[:0]
	marks := int32(0)
	for _, w := range a.seen {
		a.rank = append(a.rank, marks)
		marks += int32(bits.OnesCount64(w))
	}
	a.perm = append(a.perm[:0], make([]int32, len(order))...)
	for i, r := range order {
		a.perm[a.rankOf(int(r))] = int32(i)
	}
	return order
}

// rankOf counts the marked registers below r.
func (a *allocator) rankOf(r int) int32 {
	w := r / 64
	return a.rank[w] + int32(bits.OnesCount64(a.seen[w]&(1<<(uint(r)%64)-1)))
}

// position returns r's position in the current round's order, or -1.
func (a *allocator) position(r isa.Reg) int {
	if !r.IsVirtual() || !a.seen.Has(int(r)) {
		return -1
	}
	return int(a.perm[a.rankOf(int(r))])
}

// spillCallCrossing finds virtuals live across JAL instructions and spills
// them in ascending register order. When there are none it returns the
// liveness it computed, which the first colouring round can use as is.
func (a *allocator) spillCallCrossing() *dataflow.Liveness {
	lv := dataflow.ComputeLiveness(a.p)
	var crossing dataflow.BitSet
	for _, b := range a.p.Blocks {
		// JAL terminates the block; everything live out of the block
		// except values produced by the call itself crosses the call.
		if t := b.Terminator(); t == nil || t.Op != isa.JAL {
			continue
		}
		if crossing == nil {
			crossing = dataflow.NewBitSet(lv.NumRegs)
		}
		crossing.Union(lv.Out[b.ID])
	}
	spilled := false
	crossing.ForEach(func(r int) {
		if isa.Reg(r).IsVirtual() {
			a.spill(isa.Reg(r))
			spilled = true
		}
	})
	if spilled {
		return nil
	}
	return lv
}

// refs reports whether in reads and whether it writes v.
func (a *allocator) refs(in *isa.Inst, v isa.Reg) (uses, defs bool) {
	a.regs = in.Uses(a.regs[:0])
	uses = slices.Contains(a.regs, v)
	a.regs = in.Defs(a.regs[:0])
	return uses, slices.Contains(a.regs, v)
}

// spill rewrites every def of v into a store to a fresh static slot and
// every use into a load through a fresh short-lived virtual. Blocks that
// do not mention v keep their instruction lists.
func (a *allocator) spill(v isa.Reg) {
	slot := a.pr.Reserve(4)
	a.st.Spilled++
	a.st.SpillBytes += 4
	for _, b := range a.p.Blocks {
		first := slices.IndexFunc(b.Insts, func(in isa.Inst) bool {
			uses, defs := a.refs(&in, v)
			return uses || defs
		})
		if first < 0 {
			continue
		}
		out := append(make([]isa.Inst, 0, len(b.Insts)+8), b.Insts[:first]...)
		for _, in := range b.Insts[first:] {
			usesV, defsV := a.refs(&in, v)
			if !usesV && !defsV {
				out = append(out, in)
				continue
			}
			t := a.fresh()
			if usesV {
				out = a.slotAccess(out, isa.LW, t, slot)
			}
			rewriteReg(&in, v, t)
			out = append(out, in)
			if defsV {
				out = a.slotAccess(out, isa.SW, t, slot)
			}
		}
		b.Insts = out
	}
}

// slotAccess appends a load (LW) of the slot into t, or a store (SW) of t
// to the slot. It addresses the slot through R0 when the address fits the
// 16-bit offset, else through a second temp.
func (a *allocator) slotAccess(out []isa.Inst, op isa.Op, t isa.Reg, slot uint32) []isa.Inst {
	access := isa.Inst{Op: op, Rs: isa.R0, Imm: int32(slot)}
	if slot >= 0x8000 {
		addr := a.fresh()
		out = append(out,
			isa.Inst{Op: isa.LUI, Rd: addr, Imm: int32(slot >> 16), ID: a.pr.NextInstID()},
			isa.Inst{Op: isa.ORI, Rd: addr, Rs: addr, Imm: int32(slot & 0xFFFF), ID: a.pr.NextInstID()})
		access.Rs, access.Imm = addr, 0
	}
	if op == isa.LW {
		access.Rd = t
	} else {
		access.Rt = t
	}
	access.ID = a.pr.NextInstID()
	return append(out, access)
}

// rewriteReg substitutes register old with new in the instruction's
// operand fields.
func rewriteReg(in *isa.Inst, old, new isa.Reg) {
	if in.Rd == old {
		in.Rd = new
	}
	if in.Rs == old {
		in.Rs = new
	}
	if in.Rt == old {
		in.Rt = new
	}
}

// colorRound attempts a full round-robin assignment from lv, the current
// liveness. It returns 0 on success or the virtual register chosen for
// spilling on failure.
//
// The interference graph is a bit matrix with one row per virtual in
// first-appearance order. A virtual's degree is its row's population
// count; its colour is the first pool register at or after the
// round-robin cursor that no coloured neighbour holds.
func (a *allocator) colorRound(lv *dataflow.Liveness) isa.Reg {
	order := a.virtuals(lv.NumRegs)
	if len(order) == 0 {
		return 0
	}
	n := len(order)
	words := (n + 63) / 64
	adj := make([]uint64, (n+1)*words)
	row := func(i int) dataflow.BitSet { return adj[i*words : (i+1)*words] }
	live := row(n)

	// Build the interference graph: at every definition point, the
	// defined register interferes with everything live after it. Also
	// interferes among simultaneously live-in registers at block entries
	// (covers parameters and loop-carried values). Only virtuals take
	// part, and a register never interferes with itself.
	for _, b := range a.p.Blocks {
		live.Reset()
		lv.Out[b.ID].ForEach(func(r int) {
			if k := a.position(isa.Reg(r)); k >= 0 {
				live.Set(k)
			}
		})
		for i := len(b.Insts) - 1; i >= 0; i-- {
			in := &b.Insts[i]
			a.regs = in.Defs(a.regs[:0])
			for _, d := range a.regs {
				if k := a.position(d); k >= 0 {
					row(k).Union(live)
					live.Clear(k)
				}
			}
			a.regs = in.Uses(a.regs[:0])
			for _, u := range a.regs {
				if k := a.position(u); k >= 0 {
					live.Set(k)
				}
			}
		}
		// Mutual interference among block live-ins.
		live.ForEach(func(k int) { row(k).Union(live) })
	}
	for i := 0; i < n; i++ {
		row(i).ForEach(func(j int) { row(j).Set(i) })
	}
	for i := 0; i < n; i++ {
		row(i).Clear(i)
	}

	color := a.color[:0]
	for range order {
		color = append(color, -1)
	}
	a.color = color
	full := uint32(1)<<len(Pool) - 1
	rr := 0
	for v := range order {
		var taken uint32
		row(v).ForEach(func(j int) {
			if c := color[j]; c >= 0 {
				taken |= 1 << c
			}
		})
		// Bit k of free is Pool[(rr+k) % len(Pool)].
		free := ^(taken>>rr | taken<<(len(Pool)-rr)) & full
		if free == 0 {
			return order[a.spillChoice(v, row, color)]
		}
		k := bits.TrailingZeros32(free)
		color[v] = int8((rr + k) % len(Pool))
		rr = (rr + k + 1) % len(Pool)
	}

	// Apply the assignment.
	phys := func(r isa.Reg) isa.Reg {
		if k := a.position(r); k >= 0 {
			return Pool[color[k]]
		}
		return r
	}
	for _, b := range a.p.Blocks {
		for i := range b.Insts {
			in := &b.Insts[i]
			in.Rd, in.Rs, in.Rt = phys(in.Rd), phys(in.Rs), phys(in.Rt)
		}
	}
	a.st.Assigned += n
	return 0
}

// spillChoice picks the virtual to spill when v cannot be coloured: the
// non-temporary uncoloured virtual with the most interference, the first
// in order among equals (temporaries are already minimal live ranges).
// If every uncoloured virtual is a temporary, the pool is exhausted by
// long-lived neighbours, so it picks v's non-temporary neighbour with the
// most interference, the lowest register among equals; failing that, v
// itself (only temporaries anywhere; the caller reports the error).
func (a *allocator) spillChoice(v int, row func(int) dataflow.BitSet, color []int8) int {
	order := a.order
	worst, worstDeg := -1, 0
	for w := range order {
		if a.isTemp(order[w]) || color[w] >= 0 {
			continue
		}
		if d := row(w).Count(); worst < 0 || d > worstDeg {
			worst, worstDeg = w, d
		}
	}
	if worst >= 0 {
		return worst
	}
	row(v).ForEach(func(n int) {
		if a.isTemp(order[n]) {
			return
		}
		d := row(n).Count()
		if worst < 0 || d > worstDeg || (d == worstDeg && order[n] < order[worst]) {
			worst, worstDeg = n, d
		}
	})
	if worst < 0 {
		return v
	}
	return worst
}
