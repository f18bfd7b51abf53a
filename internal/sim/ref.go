package sim

import (
	"fmt"

	"boosting/internal/isa"
	"boosting/internal/prog"
)

// retTokenBase tags return-address tokens. JAL stores a token in RA; JR
// maps the token back to a (procedure, block) continuation. Tokens survive
// round trips through registers and memory, so callees may spill RA.
const retTokenBase uint32 = 0x4000_0000

// linkTable maps return tokens to continuations for one program.
type linkTable struct {
	toToken map[blockKey]uint32
	toBlock []blockRef
}

type blockKey struct {
	proc  string
	block int
}

type blockRef struct {
	proc  *prog.Proc
	block *prog.Block
}

func buildLinkTable(pr *prog.Program) *linkTable {
	lt := &linkTable{toToken: map[blockKey]uint32{}}
	for _, p := range pr.ProcList() {
		for _, b := range p.Blocks {
			lt.toToken[blockKey{p.Name, b.ID}] = retTokenBase + uint32(len(lt.toBlock))
			lt.toBlock = append(lt.toBlock, blockRef{p, b})
		}
	}
	return lt
}

func (lt *linkTable) token(p *prog.Proc, b *prog.Block) uint32 {
	return lt.toToken[blockKey{p.Name, b.ID}]
}

func (lt *linkTable) resolve(tok uint32) (blockRef, bool) {
	idx := tok - retTokenBase
	if tok < retTokenBase || int(idx) >= len(lt.toBlock) {
		return blockRef{}, false
	}
	return lt.toBlock[idx], true
}

// InstEvent describes one dynamically executed instruction, for consumers
// that need the full dynamic stream (the trace-driven dynamic-scheduler
// simulator).
type InstEvent struct {
	// Inst points at the executed instruction (do not retain across
	// calls; copy what you need).
	Inst *isa.Inst
	// Addr is the effective address for loads and stores.
	Addr uint32
	// Taken is the outcome for conditional branches.
	Taken bool
	// NextID is the instruction ID of the next instruction executed for
	// indirect control transfers (JR), used for target prediction.
	NextID int
}

// RefConfig parameterizes the reference interpreter.
type RefConfig struct {
	// MaxSteps bounds execution (0 = default of 100M instructions).
	MaxSteps int64
	// OnBlock, if non-nil, is called when a block begins executing.
	OnBlock func(p *prog.Proc, b *prog.Block)
	// OnInst, if non-nil, receives every executed instruction in dynamic
	// order (NOPs excluded).
	OnInst func(ev InstEvent)
	// OnBranch, if non-nil, is called for every executed conditional
	// branch with its outcome.
	OnBranch func(p *prog.Proc, b *prog.Block, taken bool)
	// OnStore, if non-nil, observes every architectural memory write in
	// program order; the differential oracle compares this stream against
	// a scheduled execution's committed stores.
	OnStore func(addr uint32, size int, val uint32)
	// OnFault, if non-nil, is consulted on an architectural fault; if it
	// returns true (for example after mapping the faulting page) the
	// instruction is retried, otherwise execution stops with the fault.
	OnFault func(m *Memory, f *Fault) bool
}

// Result summarizes an execution.
type Result struct {
	// Out is the observable output stream (OUT instruction values).
	Out []uint32
	// Insts is the number of instructions executed (NOPs excluded).
	Insts int64
	// Branches and Taken count executed conditional branches.
	Branches int64
	Taken    int64
	// MemHash digests the final memory state.
	MemHash uint64
	// Fault is the terminating fault, if any (nil on clean HALT).
	Fault *Fault
}

// Run executes the program sequentially from main's entry until HALT,
// a fault, or the step bound. It is the semantic reference: every
// scheduled configuration must reproduce its Out and MemHash exactly.
func Run(pr *prog.Program, cfg RefConfig) (*Result, error) {
	if pr.Main() == nil {
		return nil, fmt.Errorf("sim: program has no main")
	}
	maxSteps := cfg.MaxSteps
	if maxSteps == 0 {
		maxSteps = 100_000_000
	}
	lt := buildLinkTable(pr)
	mem := newImage(pr).newMemory()
	regs := make([]uint32, int(maxRegProgram(pr))+1)
	regs[isa.SP] = prog.StackTop

	res := &Result{}
	p := pr.Main()
	b := p.Entry

	for {
		if cfg.OnBlock != nil {
			cfg.OnBlock(p, b)
		}
		next, done, err := runBlock(pr, p, b, regs, mem, lt, res, &cfg, maxSteps)
		if err != nil {
			return res, err
		}
		if done {
			res.MemHash = mem.Snapshot()
			return res, nil
		}
		if res.Insts > maxSteps {
			return res, fmt.Errorf("sim: exceeded %d steps (runaway program?)", maxSteps)
		}
		p, b = next.proc, next.block
	}
}

func maxRegProgram(pr *prog.Program) isa.Reg {
	max := isa.Reg(isa.NumArchRegs - 1)
	for _, p := range pr.ProcList() {
		if r := p.MaxReg(); r > max {
			max = r
		}
	}
	return max
}

// runBlock executes one basic block. It returns the successor, or
// done=true on HALT.
func runBlock(pr *prog.Program, p *prog.Proc, b *prog.Block, regs []uint32,
	mem *Memory, lt *linkTable, res *Result, cfg *RefConfig, maxSteps int64,
) (next blockRef, done bool, err error) {
	var curInst *isa.Inst
	emit := func(addr uint32, taken bool, next int) {
		if cfg.OnInst != nil {
			cfg.OnInst(InstEvent{Inst: curInst, Addr: addr, Taken: taken, NextID: next})
		}
	}
	for i := range b.Insts {
		in := &b.Insts[i]
		curInst = in
	retry:
		if res.Insts > maxSteps {
			return blockRef{}, false, fmt.Errorf("sim: exceeded %d steps", maxSteps)
		}
		switch {
		case in.Op == isa.NOP:
			// not counted
		case in.Op == isa.HALT:
			res.Insts++
			emit(0, false, 0)
			return blockRef{}, true, nil
		case in.Op == isa.OUT:
			res.Insts++
			emit(0, false, 0)
			res.Out = append(res.Out, regs[in.Rs])
		case in.Op == isa.J:
			res.Insts++
			emit(0, false, 0)
			return blockRef{p, b.Succs[0]}, false, nil
		case in.Op == isa.JAL:
			res.Insts++
			emit(0, false, 0)
			callee := pr.Procs[in.Sym]
			if callee == nil {
				return blockRef{}, false, fmt.Errorf("sim: call to undefined %q", in.Sym)
			}
			setReg(regs, in.Rd, lt.token(p, b.Succs[0]))
			return blockRef{callee, callee.Entry}, false, nil
		case in.Op == isa.JR:
			res.Insts++
			ref, ok := lt.resolve(regs[in.Rs])
			if !ok {
				return blockRef{}, false, fmt.Errorf("sim: jr to invalid token %#x", regs[in.Rs])
			}
			emit(0, false, firstInstID(ref.block))
			return ref, false, nil
		case isa.IsCondBranch(in.Op):
			res.Insts++
			taken := branchTaken(in.Op, regs[in.Rs], regs[in.Rt])
			emit(0, taken, 0)
			res.Branches++
			if taken {
				res.Taken++
			}
			if cfg.OnBranch != nil {
				cfg.OnBranch(p, b, taken)
			}
			if taken {
				return blockRef{p, b.Succs[1]}, false, nil
			}
			return blockRef{p, b.Succs[0]}, false, nil
		case isa.IsLoad(in.Op):
			res.Insts++
			addr := regs[in.Rs] + uint32(in.Imm)
			size, signExt := memAccess(in.Op)
			if f := checkAccess(addr, size, false, p, b, in); f != nil {
				if cfg.OnFault != nil && cfg.OnFault(mem, f) {
					goto retry
				}
				res.Fault = f
				return blockRef{}, false, f
			}
			v, ok := mem.Load(addr, size)
			if !ok {
				f := &Fault{Kind: FaultLoad, Addr: addr, Proc: p.Name, Block: b.ID, InstID: in.ID}
				if cfg.OnFault != nil && cfg.OnFault(mem, f) {
					goto retry
				}
				res.Fault = f
				return blockRef{}, false, f
			}
			emit(addr, false, 0)
			setReg(regs, in.Rd, extend(v, size, signExt))
		case isa.IsStore(in.Op):
			res.Insts++
			addr := regs[in.Rs] + uint32(in.Imm)
			size, _ := memAccess(in.Op)
			if f := checkAccess(addr, size, true, p, b, in); f != nil {
				if cfg.OnFault != nil && cfg.OnFault(mem, f) {
					goto retry
				}
				res.Fault = f
				return blockRef{}, false, f
			}
			if !mem.Store(addr, size, regs[in.Rt]) {
				f := &Fault{Kind: FaultStore, Addr: addr, Proc: p.Name, Block: b.ID, InstID: in.ID}
				if cfg.OnFault != nil && cfg.OnFault(mem, f) {
					goto retry
				}
				res.Fault = f
				return blockRef{}, false, f
			}
			if cfg.OnStore != nil {
				cfg.OnStore(addr, size, regs[in.Rt])
			}
			emit(addr, false, 0)
		default:
			res.Insts++
			v, ok := evalALU(in.Op, regs[in.Rs], regs[in.Rt], in.Imm)
			if !ok {
				f := &Fault{Kind: FaultDivZero, Proc: p.Name, Block: b.ID, InstID: in.ID}
				if cfg.OnFault != nil && cfg.OnFault(mem, f) {
					goto retry
				}
				res.Fault = f
				return blockRef{}, false, f
			}
			emit(0, false, 0)
			setReg(regs, in.Rd, v)
		}
	}
	// Fall-through block.
	if len(b.Succs) != 1 {
		return blockRef{}, false, fmt.Errorf("sim: block B%d of %s ends without successor", b.ID, p.Name)
	}
	return blockRef{p, b.Succs[0]}, false, nil
}

// firstInstID returns the ID of the first instruction that will execute in
// or after block b (following fall-through chains), for indirect-jump
// target prediction.
func firstInstID(b *prog.Block) int {
	for hops := 0; b != nil && hops < 64; hops++ {
		if len(b.Insts) > 0 {
			return b.Insts[0].ID
		}
		if len(b.Succs) != 1 {
			return 0
		}
		b = b.Succs[0]
	}
	return 0
}

// checkAccess validates alignment; mapping is validated by the access
// itself.
func checkAccess(addr uint32, size int, store bool, p *prog.Proc, b *prog.Block, in *isa.Inst) *Fault {
	if size > 1 && addr%uint32(size) != 0 {
		return &Fault{Kind: FaultAlign, Addr: addr, Proc: p.Name, Block: b.ID, InstID: in.ID}
	}
	_ = store
	return nil
}

// setReg writes a register, discarding writes to R0.
func setReg(regs []uint32, r isa.Reg, v uint32) {
	if r != isa.R0 {
		regs[r] = v
	}
}
