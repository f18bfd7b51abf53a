package sim

import (
	"fmt"

	"boosting/internal/isa"
	"boosting/internal/machine"
	"boosting/internal/prog"
)

// This file is the Lower/Predecode pass behind the fast execution core:
// it flattens a machine.SchedProgram into dense arrays the executor in
// fast.go can walk without pointer chasing, map lookups or per-cycle
// allocation. Every block of every procedure gets a dense index (assigned
// in the same order buildLinkTable assigns return tokens, so a return
// token IS a dense block index plus retTokenBase), control targets are
// resolved to those indices, operands become small ints, and per-op
// facts the oracle's loop recomputes every cycle — functional-unit kind,
// memory access size/extension, result latency, use/def registers — are
// computed once here.

// Operation kinds the fast executor dispatches on. They collapse the
// per-instruction switch of the oracle's loop into a dense jump. The kinds
// are pre-specialized at predecode so the threaded inner loop does no
// per-instruction re-classification: ALU operations that can never fault
// (everything but the divide family) get their own kind and execute
// inline in the dispatch loop without touching the exception machinery.
const (
	fkALUSafe uint8 = iota // ALU op that cannot fault — inline fast path
	fkALU                  // ALU op that may fault (DIV/DIVU/REM)
	fkLoad
	fkStore
	fkBranch
	fkJ
	fkJAL
	fkJR
	fkOut
	fkHalt
	fkNop
)

// fastInst is one pre-decoded instruction. It holds only the fields the
// threaded dispatch loop touches every execution — 36 bytes, so nearly
// two instructions share a cache line. Cold facts (fault identity, call
// targets, recovery bounds) live in the parallel fastExt array and are
// only loaded on slow paths.
type fastInst struct {
	op      isa.Op
	kind    uint8
	boost   uint8
	size    uint8 // memory access size in bytes
	signExt bool  // loads: sign-extend
	pred    bool  // branches: static prediction
	lat     int8  // result latency
	rd      int32 // destination register (0 = R0/none for value writes)
	rs, rt  int32 // source registers (0 = R0)
	imm     int32
	// use0/use1/def drive the interlock and ready bookkeeping. -1 means
	// "no register in this role"; R0 is a valid (if architecturally
	// inert) participant, exactly as in the oracle's loop.
	use0, use1, def int32
}

// fastExt is the cold half of a pre-decoded instruction, indexed in
// lockstep with the fastInst arrays (Predecoded.insts/exts and
// rec/recExts). Nothing here is read by the hot dispatch loop.
type fastExt struct {
	id int32 // stable instruction ID (fault reports, squash info)
	// target is the dense block index of the control transfer: the
	// callee entry for JAL (-1 = undefined callee). J/branch successors
	// live on the block instead.
	target int32
	link   uint32 // JAL: return token to write into rd
	// recLo/recHi bound this branch's boosted-exception recovery code in
	// Predecoded.rec (-1 = no recovery code emitted for this branch).
	recLo, recHi int32
	sym          string // JAL: callee name (error reporting)
}

// fastCycle is one issue cycle: insts[lo:hi] issue together. NOPs and
// empty slots are dropped at predecode (they read R0 and write nothing),
// but the cycle itself still costs one machine cycle. nInsts and nBoosted
// are the cycle's static contribution to the Insts/BoostedExec counters,
// so the executor adds once per cycle instead of branching per
// instruction.
type fastCycle struct {
	lo, hi   int32
	nInsts   uint8
	nBoosted uint8
	// rawFree means no slot reads a register defined by an earlier slot of
	// the same cycle, so issue-time reads and in-order execution observe
	// the same values and the executor can skip the operand buffer.
	// Schedulers never co-issue a producer with its consumer (results have
	// latency), so effectively every cycle qualifies.
	rawFree bool
}

// fastBlock is one pre-decoded basic block.
type fastBlock struct {
	proc         string
	id           int
	procSched    bool // the owning procedure has a schedule
	scheduled    bool // this block has a schedule
	cycLo, cycHi int32
	nsucc        uint8
	succ0, succ1 int32 // dense successor indices (-1 = none)

	// Whole-block totals of the per-cycle static counters: the executor
	// adds them once per block and repairs the tail from the per-cycle
	// counts on an error return.
	nInsts   int32
	nBoosted int32

	// Superblock chaining, computed once all blocks are lowered. chain is
	// the dense successor of a statically-unconditional control edge
	// (fall-through or J) whose target is pre-validated as scheduled: the
	// executor transfers to it without returning to top-level dispatch or
	// re-checking schedules. predChain is the same for the profile-
	// predicted direction of a conditional terminator — the
	// overwhelmingly-taken path of the superblock — taken after a correct
	// prediction commits cleanly. -1 = no chain (the generic, fully
	// checked dispatch path runs instead, preserving every error message).
	chain     int32
	predChain int32
}

// Predecoded is a scheduled program lowered for the fast execution core.
// It is immutable after Predecode and safe for concurrent Exec calls.
type Predecoded struct {
	sprog   *machine.SchedProgram
	img     *Image // initial memory, shared by every run
	blocks  []fastBlock
	cycles  []fastCycle
	insts   []fastInst
	exts    []fastExt  // cold half of insts, same indexing
	rec     []fastInst // recovery-code pool, indexed by fastExt.recLo/recHi
	recExts []fastExt  // cold half of rec, same indexing

	entry       int32 // dense index of main's entry block
	numRegs     int
	maxPerCycle int // widest issue cycle after NOP dropping

	// Boosting-hardware configuration, copied out of the model.
	maxLevel    int
	multiShadow bool
	storeBuffer bool
	storeCap    int
	excOverhead int

	// Superblock-chaining statistics (see fastBlock.chain).
	nChained     int // blocks with a pre-validated unconditional chain
	nPredChained int // blocks with a pre-validated predicted-path chain
}

// ChainStats reports how many blocks predecode fused into superblock
// chains: unconditional (fall-through/J) edges and profile-predicted
// conditional edges with pre-validated, schedule-checked targets.
func (pd *Predecoded) ChainStats() (unconditional, predicted int) {
	return pd.nChained, pd.nPredChained
}

// Predecode lowers a scheduled program for the fast execution core. The
// result may be reused across many Exec calls (each run gets its own
// pooled machine state).
func Predecode(sp *machine.SchedProgram) (*Predecoded, error) {
	mainSP := sp.Procs["main"]
	if mainSP == nil {
		return nil, fmt.Errorf("sim: scheduled program has no main")
	}
	pd := &Predecoded{
		sprog:       sp,
		img:         newImage(sp.Prog),
		numRegs:     int(maxRegProgram(sp.Prog)) + 1,
		maxLevel:    sp.Model.Boost.MaxLevel,
		multiShadow: sp.Model.Boost.MultiShadow,
		storeBuffer: sp.Model.Boost.StoreBuffer,
		storeCap:    sp.Model.Boost.StoreBufferSize,
		excOverhead: sp.Model.ExceptionOverhead,
	}

	// Pass 1: assign dense block indices in link-table order, so return
	// tokens resolve by arithmetic (token - retTokenBase = dense index).
	idx := map[blockKey]int32{}
	for _, p := range sp.Prog.ProcList() {
		for _, b := range p.Blocks {
			idx[blockKey{p.Name, b.ID}] = int32(len(pd.blocks))
			pd.blocks = append(pd.blocks, fastBlock{proc: p.Name, id: b.ID})
		}
	}
	pd.entry = idx[blockKey{"main", mainSP.Proc.Entry.ID}]

	// Pass 2: lower every scheduled block.
	for _, p := range sp.Prog.ProcList() {
		schedProc := sp.Procs[p.Name]
		for _, b := range p.Blocks {
			fb := &pd.blocks[idx[blockKey{p.Name, b.ID}]]
			fb.nsucc = uint8(len(b.Succs))
			fb.succ0, fb.succ1 = -1, -1
			if len(b.Succs) > 0 {
				fb.succ0 = idx[blockKey{p.Name, b.Succs[0].ID}]
			}
			if len(b.Succs) > 1 {
				fb.succ1 = idx[blockKey{p.Name, b.Succs[1].ID}]
			}
			if schedProc == nil {
				continue
			}
			fb.procSched = true
			sb := schedProc.Blocks[b.ID]
			if sb == nil {
				continue
			}
			fb.scheduled = true
			fb.cycLo = int32(len(pd.cycles))
			for ci := range sb.Cycles {
				lo := int32(len(pd.insts))
				for _, in := range sb.Cycles[ci].Slots {
					// Empty slots and sequential NOPs have no architectural
					// or statistical effect and are dropped; a boosted NOP
					// still counts toward BoostedExec, so it stays.
					if in == nil || (in.Op == isa.NOP && in.Boost == 0) {
						continue
					}
					fi, ext, err := pd.lowerInst(sp, schedProc, p.Name, b, in, idx)
					if err != nil {
						return nil, err
					}
					pd.insts = append(pd.insts, fi)
					pd.exts = append(pd.exts, ext)
				}
				hi := int32(len(pd.insts))
				if w := int(hi - lo); w > pd.maxPerCycle {
					pd.maxPerCycle = w
				}
				cy := fastCycle{lo: lo, hi: hi, rawFree: true}
				for j := lo; j < hi; j++ {
					fi := &pd.insts[j]
					if fi.kind != fkNop {
						cy.nInsts++
					}
					if fi.boost > 0 {
						cy.nBoosted++
					}
					// R0 defs are suppressed by the register file, so only
					// real registers create intra-cycle hazards.
					for k := lo; k < j; k++ {
						if d := pd.insts[k].def; d > 0 && (fi.rs == d || fi.rt == d) {
							cy.rawFree = false
						}
					}
				}
				pd.cycles = append(pd.cycles, cy)
				fb.nInsts += int32(cy.nInsts)
				fb.nBoosted += int32(cy.nBoosted)
			}
			fb.cycHi = int32(len(pd.cycles))
		}
	}
	pd.buildChains()
	return pd, nil
}

// buildChains fuses blocks into superblocks: for every scheduled block it
// finds the terminator among the lowered instructions and, when the
// control edge is statically certain — fall-through, unconditional J, or
// the profile-predicted direction of a conditional branch — pre-validates
// the target (owning procedure and block both scheduled) and records it
// as a chain. The executor follows chains without returning to top-level
// dispatch; unvalidated edges keep -1 and take the generic, fully checked
// path so error behavior is byte-identical.
func (pd *Predecoded) buildChains() {
	valid := func(next int32) bool {
		if next < 0 {
			return false
		}
		nb := &pd.blocks[next]
		return nb.procSched && nb.scheduled
	}
	for i := range pd.blocks {
		fb := &pd.blocks[i]
		fb.chain, fb.predChain = -1, -1
		if !fb.scheduled {
			continue
		}
		// Find the block's terminator. More than one control op is a
		// malformed schedule the executor reports at run time; never chain
		// those.
		var term *fastInst
		ctlOps := 0
		for ci := fb.cycLo; ci < fb.cycHi; ci++ {
			cy := &pd.cycles[ci]
			for ii := cy.lo; ii < cy.hi; ii++ {
				switch pd.insts[ii].kind {
				case fkBranch, fkJ, fkJAL, fkJR, fkHalt:
					term = &pd.insts[ii]
					ctlOps++
				}
			}
		}
		if ctlOps > 1 {
			continue
		}
		switch {
		case term == nil:
			// Fall-through: chain only the well-formed single-successor
			// shape; anything else must raise the runtime error.
			if fb.nsucc == 1 && valid(fb.succ0) {
				fb.chain = fb.succ0
				pd.nChained++
			}
		case term.kind == fkJ:
			if valid(fb.succ0) {
				fb.chain = fb.succ0
				pd.nChained++
			}
		case term.kind == fkBranch:
			next := fb.succ0
			if term.pred {
				next = fb.succ1
			}
			if valid(next) {
				fb.predChain = next
				pd.nPredChained++
			}
		}
	}
}

// lowerInst pre-decodes one instruction of block b in procedure proc.
func (pd *Predecoded) lowerInst(sp *machine.SchedProgram, schedProc *machine.SchedProc,
	proc string, b *prog.Block, in *isa.Inst, idx map[blockKey]int32) (fastInst, fastExt, error) {
	fi, ext := lowerCommon(in)
	switch fi.kind {
	case fkJAL:
		ext.sym = in.Sym
		if callee := sp.Prog.Procs[in.Sym]; callee != nil {
			ext.target = idx[blockKey{callee.Name, callee.Entry.ID}]
		}
		// The return continuation is the calling block's first successor;
		// its token is retTokenBase plus the dense block index, exactly as
		// buildLinkTable assigns it.
		if len(b.Succs) > 0 {
			ext.link = retTokenBase + uint32(idx[blockKey{proc, b.Succs[0].ID}])
		}
	case fkBranch:
		if rec := schedProc.Recovery[in.ID]; rec != nil {
			ext.recLo = int32(len(pd.rec))
			for i := range rec {
				rfi, rext := lowerCommon(&rec[i])
				pd.rec = append(pd.rec, rfi)
				pd.recExts = append(pd.recExts, rext)
			}
			ext.recHi = int32(len(pd.rec))
		}
	}
	return fi, ext, nil
}

// lowerCommon fills the operand/classification fields shared by block and
// recovery instructions.
func lowerCommon(in *isa.Inst) (fastInst, fastExt) {
	fi := fastInst{
		op:    in.Op,
		boost: uint8(in.Boost),
		pred:  in.Pred,
		lat:   int8(isa.Latency(in.Op)),
		rd:    int32(in.Rd),
		rs:    int32(in.Rs),
		rt:    int32(in.Rt),
		imm:   in.Imm,
		use0:  -1,
		use1:  -1,
		def:   -1,
	}
	ext := fastExt{
		id:     int32(in.ID),
		target: -1,
		recLo:  -1,
		recHi:  -1,
	}
	switch {
	case in.Op == isa.NOP:
		fi.kind = fkNop
	case in.Op == isa.HALT:
		fi.kind = fkHalt
	case in.Op == isa.OUT:
		fi.kind = fkOut
	case in.Op == isa.J:
		fi.kind = fkJ
	case in.Op == isa.JAL:
		fi.kind = fkJAL
	case in.Op == isa.JR:
		fi.kind = fkJR
	case isa.IsCondBranch(in.Op):
		fi.kind = fkBranch
	case isa.IsLoad(in.Op):
		fi.kind = fkLoad
		size, signExt := memAccess(in.Op)
		fi.size, fi.signExt = uint8(size), signExt
	case isa.IsStore(in.Op):
		fi.kind = fkStore
		size, _ := memAccess(in.Op)
		fi.size = uint8(size)
	case in.Op == isa.DIV || in.Op == isa.DIVU || in.Op == isa.REM:
		fi.kind = fkALU // divide family: the only ALU ops that can fault
	default:
		fi.kind = fkALUSafe
	}
	var buf [2]isa.Reg
	uses := in.Uses(buf[:0])
	if len(uses) > 0 {
		fi.use0 = int32(uses[0])
	}
	if len(uses) > 1 {
		fi.use1 = int32(uses[1])
	}
	defs := in.Defs(buf[:0])
	if len(defs) > 0 {
		fi.def = int32(defs[0])
	}
	return fi, ext
}
