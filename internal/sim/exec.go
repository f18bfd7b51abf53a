package sim

import (
	"fmt"

	"boosting/internal/isa"
	"boosting/internal/machine"
	"boosting/internal/memhier"
	"boosting/internal/prog"
)

// ExecConfig parameterizes the scheduled-code cycle simulator.
type ExecConfig struct {
	// MaxCycles bounds execution (0 = default of 500M cycles).
	MaxCycles int64
	// OnFault is consulted on a *precise* (sequential) fault; returning
	// true retries the faulting instruction. Boosted faults never reach
	// this handler directly — they are postponed by the exception shift
	// buffer and re-raised precisely by recovery code.
	OnFault func(m *Memory, f *Fault) bool
	// OnStore, if non-nil, observes every architectural memory write
	// (sequential stores immediately, boosted stores at commit), for
	// debugging and differential testing.
	OnStore func(addr uint32, size int, val uint32)
	// OnBlock, if non-nil, observes every executed block (debug aid).
	OnBlock func(proc string, blockID int)
	// OnSquash, if non-nil, observes every mispredicted-branch squash.
	// The differential oracle asserts Leaked == 0 on every event: after a
	// squash the machine must hold no speculative state whatsoever, or
	// precise exceptions are lost.
	OnSquash func(SquashInfo)
	// Inject deliberately breaks the boosting hardware; it exists so the
	// differential oracle can prove (in its own tests) that it detects
	// and minimizes real bugs. Production paths leave it zero.
	Inject FaultInjection
	// Mem, if non-nil, models a finite memory hierarchy: every memory
	// access (speculative or not) touches it and misses stall the
	// machine (the paper assumes a perfect memory system; this knob
	// quantifies that assumption). The hierarchy perturbs only timing —
	// architectural results stay byte-identical to a perfect-memory run.
	// Each execution builds a fresh hierarchy from this config.
	Mem *memhier.Config
}

// SquashInfo describes one mispredicted-branch squash.
type SquashInfo struct {
	// BranchID is the static instruction ID of the mispredicted branch.
	BranchID int
	// Regs and Stores count the discarded shadow-register entries and
	// buffered stores.
	Regs, Stores int
	// Leaked counts speculative entries still outstanding after the
	// squash. Correct hardware always reports 0; fault injection makes it
	// observable.
	Leaked int
}

// FaultInjection selects an intentional hardware bug for oracle
// self-tests. The zero value injects nothing.
type FaultInjection struct {
	// SkipStoreSquash leaves the shadow store buffer intact on a
	// mispredicted branch, so wrong-path boosted stores can later commit.
	SkipStoreSquash bool
	// SkipShadowSquash leaves the shadow register file intact on a
	// mispredicted branch.
	SkipShadowSquash bool
}

// Enabled reports whether any bug is injected.
func (fi FaultInjection) Enabled() bool {
	return fi.SkipStoreSquash || fi.SkipShadowSquash
}

// ExecResult reports the outcome and cost of a scheduled execution.
type ExecResult struct {
	// Out is the observable output stream; must equal the reference run.
	Out []uint32
	// MemHash digests final memory; must equal the reference run.
	MemHash uint64
	// Cycles is the total machine cycles consumed.
	Cycles int64
	// Insts counts useful (non-NOP) instructions issued, including
	// speculative ones later squashed.
	Insts int64
	// Squashed counts boosted register/store effects discarded on
	// mispredictions.
	Squashed int64
	// BoostedExec counts boosted instructions executed.
	BoostedExec int64
	// Branches, Correct count conditional branches and correct static
	// predictions.
	Branches int64
	Correct  int64
	// Recoveries counts boosted-exception recovery invocations.
	Recoveries int64
	// Stalls counts cycles lost to operand interlocks.
	Stalls int64
	// MemStalls counts cycles lost to memory-hierarchy misses (zero with
	// the default perfect memory system).
	MemStalls int64
	// BoostedMemStalls counts the subset of MemStalls incurred by boosted
	// (speculative) accesses.
	BoostedMemStalls int64
	// SquashedMemStalls counts memory-stall cycles spent on speculative
	// accesses whose work was later squashed — the cost of boosting loads
	// past branches on a real memory system.
	SquashedMemStalls int64
	// Mem holds the memory-hierarchy counters when a hierarchy was
	// modeled (nil with perfect memory). Populated on normal completion.
	Mem *memhier.Stats
	// Fault is the terminating precise fault, if any.
	Fault *Fault
}

// Exec runs a scheduled program to completion on its model, applying full
// boosting hardware semantics and counting cycles. The program is lowered
// once by Predecode and run on the allocation-free fast core.
func Exec(sp *machine.SchedProgram, cfg ExecConfig) (*ExecResult, error) {
	pd, err := Predecode(sp)
	if err != nil {
		return nil, err
	}
	return pd.Exec(cfg)
}

// The rest of this file is the oracle: the original interpreter, which
// walks the machine.SchedProgram structures directly instead of a
// predecoded form. It models the same boosting hardware as the fast core,
// about ten times more slowly, and exists so tests can hold the fast core
// to it byte for byte.

// execState is the machine state of one oracle execution.
type execState struct {
	sprog *machine.SchedProgram
	cfg   *ExecConfig
	model *machine.Model

	regs     []uint32
	regReady []int64
	mem      *Memory
	shadow   *shadowFile
	stores   *storeBuffer
	excbuf   *exceptionBuffer
	lt       *linkTable

	res       *ExecResult
	maxCycles int64

	mh   *memhier.Hierarchy
	spec specStallTracker
}

// ExecOracle runs sp on the original interpreter. It is the fast core's
// test oracle: Exec(sp, cfg) must return exactly what it returns — result,
// error and every callback event, in order — which the engine-identity
// tests, the golden traces, FuzzFastCore and the difftest "/legacy"
// configurations check. No production path calls it, so the linker
// leaves the interpreter out of every binary that never does.
func ExecOracle(sp *machine.SchedProgram, cfg ExecConfig) (*ExecResult, error) {
	mainSP := sp.Procs["main"]
	if mainSP == nil {
		return nil, fmt.Errorf("sim: scheduled program has no main")
	}
	st := &execState{
		sprog:     sp,
		cfg:       &cfg,
		model:     sp.Model,
		regs:      make([]uint32, int(maxRegProgram(sp.Prog))+1),
		mem:       newImage(sp.Prog).newMemory(),
		shadow:    newShadowFile(sp.Model.Boost),
		stores:    &storeBuffer{cap: sp.Model.Boost.StoreBufferSize},
		excbuf:    newExceptionBuffer(sp.Model.Boost.MaxLevel),
		lt:        buildLinkTable(sp.Prog),
		res:       &ExecResult{},
		maxCycles: cfg.MaxCycles,
	}
	st.regReady = make([]int64, len(st.regs))
	if st.maxCycles == 0 {
		st.maxCycles = 500_000_000
	}
	if cfg.Mem != nil {
		mh, err := memhier.New(*cfg.Mem)
		if err != nil {
			return nil, err
		}
		st.mh = mh
		st.spec.reset(sp.Model.Boost.MaxLevel)
	}
	st.regs[isa.SP] = prog.StackTop

	curProc := mainSP
	cur := mainSP.Blocks[mainSP.Proc.Entry.ID]
	for {
		next, done, err := st.runBlock(curProc, cur)
		if err != nil {
			return st.res, err
		}
		if done {
			if st.shadow.outstanding() || st.stores.outstanding() {
				return st.res, fmt.Errorf("sim: speculative state outstanding at halt")
			}
			st.res.MemHash = st.mem.Snapshot()
			if st.mh != nil {
				stats := st.mh.Stats()
				st.res.Mem = &stats
			}
			return st.res, nil
		}
		if st.res.Cycles > st.maxCycles {
			return st.res, fmt.Errorf("sim: exceeded %d cycles", st.maxCycles)
		}
		curProc = st.sprog.Procs[next.proc.Name]
		if curProc == nil {
			return st.res, fmt.Errorf("sim: no schedule for proc %s", next.proc.Name)
		}
		cur = curProc.Blocks[next.block.ID]
		if cur == nil {
			return st.res, fmt.Errorf("sim: no schedule for %s block B%d", next.proc.Name, next.block.ID)
		}
	}
}

// pendingCtl records the control decision made by the block's terminator.
type pendingCtl struct {
	kind  isa.Op
	taken bool // conditional branches
	// target for J/JAL (callee entry) and JR (resolved)
	target blockRef
	inst   *isa.Inst
}

// runBlock executes one scheduled block, returning the dynamic successor.
func (st *execState) runBlock(sp *machine.SchedProc, sb *machine.SchedBlock) (next blockRef, done bool, err error) {
	b := sb.Block
	if st.cfg.OnBlock != nil {
		st.cfg.OnBlock(procOf(sp).Name, b.ID)
	}
	var ctl *pendingCtl
	var uses, defs []isa.Reg

	for ci := range sb.Cycles {
		cy := &sb.Cycles[ci]
		insts := cy.Insts()

		// Operand interlock: the whole issue cycle stalls until every
		// operand of every instruction in it is ready.
		need := st.res.Cycles
		for _, in := range insts {
			uses = in.Uses(uses[:0])
			for _, r := range uses {
				if t := st.regReady[r]; t > need {
					need = t
				}
			}
		}
		if need > st.res.Cycles {
			st.res.Stalls += need - st.res.Cycles
			st.res.Cycles = need
		}

		// Register reads happen at issue for every slot, before any
		// writes of this cycle (same-cycle instructions are independent
		// by schedule construction; reading first makes violations
		// deterministic and testable).
		vals := make([][2]uint32, len(insts))
		for i, in := range insts {
			vals[i][0] = st.readReg(in.Rs, in.Boost)
			vals[i][1] = st.readReg(in.Rt, in.Boost)
		}

		for i, in := range insts {
			if in.Op != isa.NOP {
				st.res.Insts++
			}
			if in.IsBoosted() {
				st.res.BoostedExec++
			}
			c, err := st.execute(sp, b, in, vals[i][0], vals[i][1])
			if err != nil {
				return blockRef{}, false, err
			}
			if c != nil {
				if ctl != nil {
					return blockRef{}, false, fmt.Errorf("sim: two control ops in block B%d", b.ID)
				}
				ctl = c
			}
			// Result ready time.
			defs = in.Defs(defs[:0])
			for _, r := range defs {
				st.regReady[r] = st.res.Cycles + int64(isa.Latency(in.Op))
			}
		}
		st.res.Cycles++
	}

	return st.finishBlock(sp, b, ctl)
}

// readReg reads a register as seen by an instruction boosted to the given
// level (0 = sequential).
func (st *execState) readReg(r isa.Reg, level int) uint32 {
	if r == isa.R0 {
		return 0
	}
	if v, ok := st.shadow.read(r, level); ok {
		return v
	}
	return st.regs[r]
}

// writeReg writes a register sequentially or into the shadow file.
func (st *execState) writeReg(r isa.Reg, level int, v uint32) error {
	if r == isa.R0 {
		return nil
	}
	if level > 0 {
		return st.shadow.write(r, level, v)
	}
	st.regs[r] = v
	return nil
}

// execute performs one instruction's function. Control ops return a
// pendingCtl; the transfer happens at block end (after the delay cycle).
func (st *execState) execute(sp *machine.SchedProc, b *prog.Block, in *isa.Inst, a, c uint32) (*pendingCtl, error) {
	switch {
	case in.Op == isa.NOP:
		return nil, nil
	case in.Op == isa.HALT:
		return &pendingCtl{kind: isa.HALT, inst: in}, nil
	case in.Op == isa.OUT:
		if in.IsBoosted() {
			return nil, fmt.Errorf("sim: boosted OUT is not supported by any model")
		}
		st.res.Out = append(st.res.Out, a)
		return nil, nil
	case in.Op == isa.J:
		return &pendingCtl{kind: isa.J, inst: in}, nil
	case in.Op == isa.JAL:
		if st.shadow.outstanding() || st.stores.outstanding() {
			return nil, fmt.Errorf("sim: speculative state outstanding at call in B%d", b.ID)
		}
		callee := st.sprog.Prog.Procs[in.Sym]
		if callee == nil {
			return nil, fmt.Errorf("sim: call to undefined %q", in.Sym)
		}
		if err := st.writeReg(in.Rd, 0, st.lt.token(procOf(sp), b.Succs[0])); err != nil {
			return nil, err
		}
		return &pendingCtl{kind: isa.JAL, inst: in, target: blockRef{callee, callee.Entry}}, nil
	case in.Op == isa.JR:
		if st.shadow.outstanding() || st.stores.outstanding() {
			return nil, fmt.Errorf("sim: speculative state outstanding at return in B%d", b.ID)
		}
		ref, ok := st.lt.resolve(a)
		if !ok {
			return nil, fmt.Errorf("sim: jr to invalid token %#x", a)
		}
		return &pendingCtl{kind: isa.JR, inst: in, target: ref}, nil
	case isa.IsCondBranch(in.Op):
		return &pendingCtl{kind: in.Op, taken: branchTaken(in.Op, a, c), inst: in}, nil
	case isa.IsLoad(in.Op):
		addr := a + uint32(in.Imm)
		size, signExt := memAccess(in.Op)
		st.touchMem(in.ID, addr, false, in.Boost)
		v, f := st.loadValue(sp, b, in, addr, size)
		if f != nil {
			if in.IsBoosted() {
				st.excbuf.set(in.Boost)
				return nil, st.writeReg(in.Rd, in.Boost, 0)
			}
			if st.cfg.OnFault != nil && st.cfg.OnFault(st.mem, f) {
				v2, f2 := st.loadValue(sp, b, in, addr, size)
				if f2 != nil {
					st.res.Fault = f2
					return nil, f2
				}
				return nil, st.writeReg(in.Rd, 0, extend(v2, size, signExt))
			}
			st.res.Fault = f
			return nil, f
		}
		return nil, st.writeReg(in.Rd, in.Boost, extend(v, size, signExt))
	case isa.IsStore(in.Op):
		addr := a + uint32(in.Imm)
		size, _ := memAccess(in.Op)
		st.touchMem(in.ID, addr, true, in.Boost)
		if in.IsBoosted() {
			if !st.model.Boost.StoreBuffer {
				return nil, fmt.Errorf("sim: boosted store without store buffer in B%d", b.ID)
			}
			// Alignment/mapping faults on boosted stores are postponed.
			if size > 1 && addr%uint32(size) != 0 || !st.mem.Mapped(addr) || !st.mem.Mapped(addr+uint32(size)-1) {
				st.excbuf.set(in.Boost)
				return nil, nil
			}
			if err := st.stores.write(in.Boost, addr, size, c); err != nil {
				return nil, fmt.Errorf("sim: B%d of %s: %w", b.ID, procOf(sp).Name, err)
			}
			return nil, nil
		}
		if size > 1 && addr%uint32(size) != 0 {
			f := &Fault{Kind: FaultAlign, Addr: addr, Proc: procOf(sp).Name, Block: b.ID, InstID: in.ID}
			return nil, st.preciseFault(f, func() *Fault {
				if !st.mem.Store(addr, size, c) {
					return &Fault{Kind: FaultStore, Addr: addr, Proc: procOf(sp).Name, Block: b.ID, InstID: in.ID}
				}
				return nil
			})
		}
		if !st.mem.Store(addr, size, c) {
			f := &Fault{Kind: FaultStore, Addr: addr, Proc: procOf(sp).Name, Block: b.ID, InstID: in.ID}
			return nil, st.preciseFault(f, func() *Fault {
				if !st.mem.Store(addr, size, c) {
					return f
				}
				return nil
			})
		}
		if st.cfg.OnStore != nil {
			st.cfg.OnStore(addr, size, c)
		}
		return nil, nil
	default:
		v, ok := evalALU(in.Op, a, c, in.Imm)
		if !ok {
			if in.IsBoosted() {
				st.excbuf.set(in.Boost)
				return nil, st.writeReg(in.Rd, in.Boost, 0)
			}
			f := &Fault{Kind: FaultDivZero, Proc: procOf(sp).Name, Block: b.ID, InstID: in.ID}
			st.res.Fault = f
			return nil, f
		}
		return nil, st.writeReg(in.Rd, in.Boost, v)
	}
}

// touchMem charges memory-hierarchy stall cycles when a hierarchy is
// modeled. Stalls incurred by boosted accesses are additionally tracked
// per level so cycles wasted on later-squashed speculation are reported.
func (st *execState) touchMem(id int, addr uint32, store bool, level int) {
	if st.mh == nil {
		return
	}
	if p := st.mh.Access(st.res.Cycles, id, addr, store); p > 0 {
		st.res.Cycles += p
		st.res.MemStalls += p
		if level > 0 {
			st.res.BoostedMemStalls += p
			st.spec.add(level, p)
		}
	}
}

// loadValue reads memory through the level-bounded store buffer view.
func (st *execState) loadValue(sp *machine.SchedProc, b *prog.Block, in *isa.Inst, addr uint32, size int) (uint32, *Fault) {
	if size > 1 && addr%uint32(size) != 0 {
		return 0, &Fault{Kind: FaultAlign, Addr: addr, Proc: procOf(sp).Name,
			Block: b.ID, InstID: in.ID, Boosted: in.IsBoosted()}
	}
	v, ok := st.stores.read(in.Boost, addr, size, st.mem)
	if !ok {
		return 0, &Fault{Kind: FaultLoad, Addr: addr, Proc: procOf(sp).Name,
			Block: b.ID, InstID: in.ID, Boosted: in.IsBoosted()}
	}
	return v, nil
}

// preciseFault routes a sequential fault through the user handler; retry
// re-runs the failing action.
func (st *execState) preciseFault(f *Fault, retry func() *Fault) error {
	if st.cfg.OnFault != nil && st.cfg.OnFault(st.mem, f) {
		if f2 := retry(); f2 != nil {
			st.res.Fault = f2
			return f2
		}
		return nil
	}
	st.res.Fault = f
	return f
}

// finishBlock resolves the block's control decision: commit or squash
// speculative state at conditional branches, dispatch recovery code on
// postponed exceptions, and compute the successor block.
func (st *execState) finishBlock(sp *machine.SchedProc, b *prog.Block, ctl *pendingCtl) (next blockRef, done bool, err error) {
	p := procOf(sp)
	switch {
	case ctl == nil:
		// Fall-through block.
		if len(b.Succs) != 1 {
			return blockRef{}, false, fmt.Errorf("sim: block B%d has no successor", b.ID)
		}
		return blockRef{p, b.Succs[0]}, false, nil
	case ctl.kind == isa.HALT:
		return blockRef{}, true, nil
	case ctl.kind == isa.J:
		return blockRef{p, b.Succs[0]}, false, nil
	case ctl.kind == isa.JAL, ctl.kind == isa.JR:
		return ctl.target, false, nil
	default: // conditional branch
		st.res.Branches++
		predictedTaken := ctl.inst.Pred
		correct := ctl.taken == predictedTaken
		var succ *prog.Block
		if ctl.taken {
			succ = b.Succs[1]
		} else {
			succ = b.Succs[0]
		}
		if correct {
			st.res.Correct++
			var commitFault *Fault
			st.shadow.commit(func(r isa.Reg, v uint32) { st.regs[r] = v })
			if f := st.stores.commit(st.mem, st.cfg.OnStore); f != nil {
				commitFault = f
			}
			if st.mh != nil {
				st.spec.commit()
			}
			if st.excbuf.shift() || commitFault != nil {
				return st.recover(sp, b, ctl, succ)
			}
			return blockRef{p, succ}, false, nil
		}
		// Incorrect prediction: discard all speculative state.
		droppedStores := len(st.stores.entries)
		droppedRegs := 0
		for _, es := range st.shadow.entries {
			droppedRegs += len(es)
		}
		st.res.Squashed += int64(droppedStores + droppedRegs)
		if !st.cfg.Inject.SkipShadowSquash {
			st.shadow.squash()
		}
		if !st.cfg.Inject.SkipStoreSquash {
			st.stores.squash()
		}
		st.excbuf.clear()
		if st.mh != nil {
			st.res.SquashedMemStalls += st.spec.squash()
		}
		if st.cfg.OnSquash != nil {
			leaked := len(st.stores.entries)
			for _, es := range st.shadow.entries {
				leaked += len(es)
			}
			st.cfg.OnSquash(SquashInfo{
				BranchID: ctl.inst.ID,
				Regs:     droppedRegs,
				Stores:   droppedStores,
				Leaked:   leaked,
			})
		}
		return blockRef{p, succ}, false, nil
	}
}

// recover implements the boosted exception handler of paper §2.3: discard
// all speculative state, charge the handler overhead, re-execute the
// compiler's recovery code for the committing branch (boosted levels
// already decremented by the compiler), and continue at the predicted
// target. A fault raised by a now-sequential instruction is precise and
// routed to the user fault handler.
func (st *execState) recover(sp *machine.SchedProc, b *prog.Block, ctl *pendingCtl, succ *prog.Block) (blockRef, bool, error) {
	p := procOf(sp)
	st.res.Recoveries++
	st.shadow.squash()
	st.stores.squash()
	st.excbuf.clear()
	if st.mh != nil {
		st.res.SquashedMemStalls += st.spec.squash()
	}
	st.res.Cycles += int64(st.model.ExceptionOverhead)

	rec := sp.Recovery[ctl.inst.ID]
	if rec == nil {
		return blockRef{}, false, fmt.Errorf(
			"sim: boosted exception at branch %d in B%d of %s but no recovery code",
			ctl.inst.ID, b.ID, p.Name)
	}
	var defs []isa.Reg
	for i := range rec {
		in := &rec[i]
		st.res.Cycles++
		st.res.Insts++
		a := st.readReg(in.Rs, in.Boost)
		c := st.readReg(in.Rt, in.Boost)
		// execute consults the user fault handler itself for sequential
		// faults; an error here means the fault went unhandled.
		ctl2, err := st.execute(sp, b, in, a, c)
		if err != nil {
			return blockRef{}, false, err
		}
		if ctl2 != nil {
			return blockRef{}, false, fmt.Errorf("sim: control op in recovery code")
		}
		defs = in.Defs(defs[:0])
		for _, r := range defs {
			st.regReady[r] = st.res.Cycles + int64(isa.Latency(in.Op))
		}
	}
	// Recovery ends with an unconditional jump to the predicted target.
	st.res.Cycles++
	return blockRef{p, succ}, false, nil
}

func procOf(sp *machine.SchedProc) *prog.Proc { return sp.Proc }
