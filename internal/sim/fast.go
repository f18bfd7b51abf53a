package sim

import (
	"fmt"
	"math/bits"
	"sync"

	"boosting/internal/isa"
	"boosting/internal/memhier"
)

// This file is the fast execution core: the executor for programs lowered
// by Predecode. Its steady-state loop is allocation-free — the machine
// state (register files, shadow file, store buffer, exception buffer,
// issue-cycle scratch) lives in a pooled fastState whose pieces are reset
// by generation counter or slice truncation rather than reallocation, and
// no map lookups or string hashing happen per cycle. It mirrors the
// semantics of the interpreter behind ExecOracle (exec.go) instruction for
// instruction: both must produce byte-identical ExecResults, which the
// golden-trace suite and the difftest oracle enforce.

// fastShadow is the boosting shadow register file in dense form, keyed by
// *maturity epoch* rather than by boost level: a write at level L during
// commit epoch E matures (reaches the sequential file) at epoch E+L, and
// each commit just bumps the epoch and applies the bucket of entries that
// mature now — O(applied), with no per-commit value shifting. The boost
// level of an outstanding entry is maturity−epoch, so the level-indexed
// views the paper semantics need (read "largest level ≤ n wins", the
// single-shadow conflict check) are recovered by rotating the per-register
// bitmask by epoch mod 16. Slots alias mod 16, which is safe because
// maxLevel ≤ 15 keeps the live window inside one rotation. Squash is
// O(1)+O(window): bump the generation counter and truncate the buckets; a
// register's mask is only meaningful when its generation matches.
type fastShadow struct {
	mask []uint16 // per register: bit (E mod 16) set = an entry matures at epoch E
	gen  []uint64 // generation at which mask is valid
	vals []uint32 // value per (register, maturity slot), stride 16
	// buckets[E mod 16] lists the registers with an entry maturing at E.
	// Invariant: every listed register has its bit set in the current
	// generation — commit drains a whole bucket and squash/reset truncate
	// them all, so no stale entries survive. occ mirrors which buckets are
	// non-empty so squash/count/outstanding touch only live ones.
	buckets [16][]int32
	occ     uint16

	epoch    uint64 // commits so far; rotation origin for mask/vals slots
	curGen   uint64
	maxLevel int
	multi    bool
}

func (sh *fastShadow) reset(maxLevel int, multi bool, numRegs int) {
	sh.maxLevel = maxLevel
	sh.multi = multi
	if cap(sh.mask) < numRegs {
		sh.mask = make([]uint16, numRegs)
		sh.gen = make([]uint64, numRegs)
	}
	sh.mask = sh.mask[:numRegs]
	sh.gen = sh.gen[:numRegs]
	if need := numRegs * 16; cap(sh.vals) < need {
		sh.vals = make([]uint32, need)
	} else {
		sh.vals = sh.vals[:need]
	}
	sh.squash()
	// One further bump isolates this run from whatever a previous pooled
	// run left in gen; the counter never resets, so stale entries can't
	// collide.
	sh.curGen++
}

// levels returns the outstanding-level mask of r (bit n set = level n has
// an uncommitted value; 0 if none): the maturity mask rotated back by the
// current epoch.
func (sh *fastShadow) levels(r int32) uint16 {
	if sh.gen[r] != sh.curGen {
		return 0
	}
	return bits.RotateLeft16(sh.mask[r], -int(sh.epoch&15))
}

// read returns the value of r seen from the given boost level, or ok=false
// if the sequential register file should be used. Mirrors shadowFile.read:
// the outstanding value with the largest level ≤ level wins.
func (sh *fastShadow) read(r int32, level int) (uint32, bool) {
	m := sh.levels(r) & (1<<(uint(level)+1) - 2)
	if m == 0 {
		return 0, false
	}
	lv := bits.Len16(m) - 1
	return sh.vals[int(r)*16+int((sh.epoch+uint64(lv))&15)], true
}

// write records a boosted def of r. Mirrors shadowFile.write, including the
// single-shadow conflict check and its error text.
func (sh *fastShadow) write(r int32, level int, v uint32) error {
	if level <= 0 || level > sh.maxLevel {
		return fmt.Errorf("shadow write level %d outside hardware range 1..%d", level, sh.maxLevel)
	}
	if r == int32(isa.R0) {
		return nil
	}
	if sh.gen[r] != sh.curGen {
		sh.gen[r] = sh.curGen
		sh.mask[r] = 0
	}
	if !sh.multi {
		if other := sh.levels(r) &^ (1 << uint(level)); other != 0 {
			return fmt.Errorf("single-shadow conflict on %s: outstanding level %d, new level %d",
				isa.Reg(r), bits.TrailingZeros16(other), level)
		}
	}
	slot := (sh.epoch + uint64(level)) & 15
	if b := uint16(1) << slot; sh.mask[r]&b == 0 {
		sh.mask[r] |= b
		sh.buckets[slot] = append(sh.buckets[slot], r)
		sh.occ |= b
	}
	sh.vals[int(r)*16+int(slot)] = v // newest same-level def wins
	return nil
}

// commit applies level-1 values to the sequential register file; deeper
// levels "shift down" implicitly because their level is measured against
// the advanced epoch. Matches shadowFile.commit observably.
func (sh *fastShadow) commit(regs []uint32) {
	sh.epoch++
	slot := sh.epoch & 15
	if sh.occ&(1<<slot) == 0 {
		return
	}
	for _, r := range sh.buckets[slot] {
		// Bucket entries are never stale (see the invariant above), so the
		// bit is set and the generation current; R0 writes were suppressed
		// at write time.
		sh.mask[r] &^= 1 << slot
		regs[r] = sh.vals[int(r)*16+int(slot)]
	}
	sh.buckets[slot] = sh.buckets[slot][:0]
	sh.occ &^= 1 << slot
}

// count returns the number of outstanding (register, level) entries; it
// matches the per-entry squash accounting of the oracle's shadow file.
func (sh *fastShadow) count() int {
	n := 0
	for occ := sh.occ; occ != 0; occ &= occ - 1 {
		n += len(sh.buckets[bits.TrailingZeros16(occ)])
	}
	return n
}

// squash discards all speculative register state.
func (sh *fastShadow) squash() {
	sh.curGen++
	for occ := sh.occ; occ != 0; occ &= occ - 1 {
		slot := bits.TrailingZeros16(occ)
		sh.buckets[slot] = sh.buckets[slot][:0]
	}
	sh.occ = 0
}

func (sh *fastShadow) outstanding() bool { return sh.occ != 0 }

// fastExcBuf is the paper's one-bit exception shift buffer as a bitmask:
// bit n set means a boosted instruction of level n raised a postponed
// exception. Mirrors exceptionBuffer observably (maxLevel ≤ 15).
type fastExcBuf uint16

// set records a postponed exception at the given level.
func (e *fastExcBuf) set(level int) { *e |= 1 << uint(level) }

// shift performs the commit-time shift and returns the out-shifted bit.
func (e *fastExcBuf) shift() bool {
	out := *e&2 != 0
	*e = (*e >> 1) &^ 1
	return out
}

// clear wipes the buffer (incorrect prediction).
func (e *fastExcBuf) clear() { *e = 0 }

// fastState is the pooled machine state of one fast-core execution.
type fastState struct {
	pd  *Predecoded
	cfg *ExecConfig
	res *ExecResult
	mem *Memory

	regs     []uint32
	regReady []int64
	vals     [][2]uint32 // issue-cycle operand scratch
	shadow   fastShadow
	stores   storeBuffer
	excbuf   fastExcBuf

	// One-entry page cache for the hot memory path. Only successful
	// lookups are cached, so pages mapped later (e.g. by an OnFault
	// handler) are picked up naturally. cacheOwn records whether the run
	// owns the cached page (cacheOwn implies cachePage != nil): loads may
	// read a shared image or zero page through the cache, but the inline
	// store path writes only an owned one. A write through Memory may
	// replace a shared page with the run's copy, so the store-buffer
	// commit and every OnFault callback drop a shared page (dropShared).
	cachePN   uint32
	cachePage *page
	cacheOwn  bool

	mh   *memhier.Hierarchy
	spec specStallTracker

	maxCycles int64
	// maxReady is a watermark over regReady: once res.Cycles reaches it no
	// register write is still in flight, so the per-operand interlock scan
	// is provably a no-op and the hot loop skips it.
	maxReady int64

	// The fields above hold the primary lane: res carries the functional
	// counters every lane shares plus the primary's own timing. lanes holds
	// the timing of every further config of a shared run (ExecBatch); it is
	// empty for Exec. timed reports whether any lane models a hierarchy (it
	// may stay set after such a lane retires; touchMem then charges none).
	lanes []fastLane
	timed bool
	// slot is the primary's index in results/errs, where each lane's
	// outcome is written when it retires; one/oneErr back them for Exec.
	slot    int
	results []*ExecResult
	errs    []error
	one     [1]*ExecResult
	oneErr  [1]error
	// noSucc is the block whose successor was missing when runBlock
	// returns a negative successor.
	noSucc int
}

var fastStatePool = sync.Pool{New: func() any { return new(fastState) }}

// getFastState returns a pooled state, reset so that its primary lane
// runs cfg under the hierarchy mh (nil = perfect memory) and reports into
// slot.
func getFastState(pd *Predecoded, cfg *ExecConfig, mh *memhier.Hierarchy, slot int) *fastState {
	fs := fastStatePool.Get().(*fastState)
	fs.reset(pd, cfg, mh, slot)
	return fs
}

func putFastState(fs *fastState) {
	// Drop per-run pointers so the pool doesn't retain programs, memories,
	// hierarchies or results; the flat slices are the point of pooling and
	// stay.
	fs.pd = nil
	fs.cfg = nil
	fs.res = nil
	fs.mem = nil
	fs.cachePage = nil
	fs.mh = nil
	fs.lanes = fs.lanes[:cap(fs.lanes)]
	for k := range fs.lanes {
		fs.lanes[k].mh = nil
	}
	fs.lanes = fs.lanes[:0]
	fs.results, fs.errs = nil, nil
	fs.one[0], fs.oneErr[0] = nil, nil
	fastStatePool.Put(fs)
}

// Exec runs the pre-decoded program to completion, applying full boosting
// hardware semantics. It is safe to call concurrently on the same
// Predecoded value.
func (pd *Predecoded) Exec(cfg ExecConfig) (*ExecResult, error) {
	var mh *memhier.Hierarchy
	if cfg.Mem != nil {
		var err error
		if mh, err = memhier.New(*cfg.Mem); err != nil {
			return nil, err
		}
	}
	fs := getFastState(pd, &cfg, mh, 0)
	defer putFastState(fs)
	fs.results, fs.errs = fs.one[:], fs.oneErr[:]
	fs.run()
	return fs.one[0], fs.oneErr[0]
}

// run executes the program once for every lane and writes each lane's
// result and error to its slot. Each round runs one superblock, then
// retires the lanes over the cycle budget and checks the successor's
// schedule, or finalizes every lane at halt.
func (fs *fastState) run() {
	pd := fs.pd
	cur := pd.entry
	if fb := &pd.blocks[cur]; !fb.scheduled {
		fs.finish(fmt.Errorf("sim: no schedule for %s block B%d", fb.proc, fb.id))
		return
	}
	for {
		next, validated, done, err := fs.runBlock(&pd.blocks[cur])
		if err != nil {
			fs.finish(err)
			return
		}
		if done {
			if fs.shadow.outstanding() || fs.stores.outstanding() {
				fs.finish(fmt.Errorf("sim: speculative state outstanding at halt"))
				return
			}
			fs.res.MemHash = fs.mem.Snapshot()
			fs.finish(nil)
			return
		}
		// The exceeded-cycles error takes precedence over a missing
		// successor, lane by lane.
		if fs.retireOverBudget() {
			return
		}
		if next < 0 {
			fs.finish(fmt.Errorf("sim: block B%d has no successor", fs.noSucc))
			return
		}
		// Chained (pre-validated) edges skip the schedule checks.
		if !validated {
			nb := &pd.blocks[next]
			if !nb.procSched {
				fs.finish(fmt.Errorf("sim: no schedule for proc %s", nb.proc))
				return
			}
			if !nb.scheduled {
				fs.finish(fmt.Errorf("sim: no schedule for %s block B%d", nb.proc, nb.id))
				return
			}
		}
		cur = next
	}
}

// fastCtl is the pending control decision of a block's terminator.
type fastCtl struct {
	fi     *fastInst
	ext    *fastExt // cold half of fi (squash info, recovery bounds)
	taken  bool
	target int32 // resolved successor for JAL/JR
}

// failCycle repairs the batched counters when execution aborts at slot i
// of cycle ci: the whole block's Insts/BoostedExec were added up front, so
// the unexecuted tail (later slots of this cycle plus all later cycles) is
// subtracted, and the locally-mirrored cycle counter and ready watermark
// are written back. The partial result is then byte-identical to
// per-instruction counting, which is what the oracle reports.
func (fs *fastState) failCycle(fb *fastBlock, ci int32, insts []fastInst, i int, cycles, maxReady int64) {
	res := fs.res
	for j := i + 1; j < len(insts); j++ {
		if insts[j].kind != fkNop {
			res.Insts--
		}
		if insts[j].boost > 0 {
			res.BoostedExec--
		}
	}
	for cj := ci + 1; cj < fb.cycHi; cj++ {
		cy := &fs.pd.cycles[cj]
		res.Insts -= int64(cy.nInsts)
		res.BoostedExec -= int64(cy.nBoosted)
	}
	res.Cycles = cycles
	fs.maxReady = maxReady
}

// runBlock executes a superblock starting at fb: the block itself, then —
// as long as control resolves onto an edge pre-validated at predecode
// (fastBlock.chain for unconditional edges, fastBlock.predChain for a
// correctly-predicted branch that committed cleanly) — its fused
// successors, without returning to top-level dispatch. The inner loop is
// switch-threaded: operand shape and faultability are pre-specialized
// into fastInst.kind, so the hot kinds (safe ALU, branch, resident
// aligned load/store, J, halt) execute inline and only cold kinds
// (divides, calls, returns, OUT, cache-miss or buffered memory ops) pay
// the execute() call.
//
// It returns the dense successor once control leaves the chain;
// validated=true means the successor was pre-checked at predecode and
// the caller may skip schedule validation. Recovery, mispredicted
// squash, calls, and returns always leave the chain, which keeps
// squash/recovery semantics byte-identical to the oracle.
func (fs *fastState) runBlock(fb *fastBlock) (next int32, validated, done bool, err error) {
	pd, res := fs.pd, fs.res
	regs, regReady := fs.regs, fs.regReady
	vals := fs.vals
	onBlock := fs.cfg.OnBlock
	// The further lanes of a shared run are updated only behind multi, so
	// the one-lane path pays one predictable branch per site.
	lanes := fs.lanes
	multi, timed := len(lanes) > 0, fs.timed
	// The cycle counter and ready watermark are mirrored in locals so the
	// hot loop keeps them in registers; they are written back after each
	// block's cycles, around every execute() call, and in failCycle.
	cycles := res.Cycles
	maxReady := fs.maxReady

chain:
	for {
		if onBlock != nil {
			onBlock(fb.proc, fb.id)
		}
		var ctl *fastCtl
		var ctlBuf fastCtl

		// Whole-block instruction statistics were pre-summed at predecode
		// and are added up front; failCycle subtracts the unexecuted tail
		// if the block aborts mid-cycle.
		res.Insts += int64(fb.nInsts)
		res.BoostedExec += int64(fb.nBoosted)

		for ci := fb.cycLo; ci < fb.cycHi; ci++ {
			cy := &pd.cycles[ci]
			insts := pd.insts[cy.lo:cy.hi]

			// Operand interlock: the whole issue cycle stalls until every
			// operand of every instruction in it is ready. When the ready
			// watermark has passed, no write is in flight and the scan is
			// provably a no-op.
			if maxReady > cycles {
				need := cycles
				for i := range insts {
					fi := &insts[i]
					if fi.use0 >= 0 {
						if t := regReady[fi.use0]; t > need {
							need = t
						}
					}
					if fi.use1 >= 0 {
						if t := regReady[fi.use1]; t > need {
							need = t
						}
					}
				}
				if need > cycles {
					res.Stalls += need - cycles
					cycles = need
				}
			}
			if multi {
				for k := range lanes {
					if l := &lanes[k]; l.maxReady > l.cycles {
						l.stall(insts)
					}
				}
			}

			// Register reads happen at issue for every slot, before any
			// writes of this cycle. RAW-free cycles (effectively all of
			// them) read operands directly in the dispatch loop instead of
			// staging them in the operand buffer; non-boosted operands read
			// the sequential file directly (writes to R0 are suppressed, so
			// regs[0] stays 0).
			direct := cy.rawFree
			if !direct {
				for i := range insts {
					fi := &insts[i]
					if fi.boost == 0 {
						vals[i][0], vals[i][1] = regs[fi.rs], regs[fi.rt]
					} else {
						vals[i][0] = fs.readReg(fi.rs, int(fi.boost))
						vals[i][1] = fs.readReg(fi.rt, int(fi.boost))
					}
				}
			}

			for i := range insts {
				fi := &insts[i]
				var a, c uint32
				if direct {
					if fi.boost == 0 {
						a, c = regs[fi.rs], regs[fi.rt]
					} else {
						a = fs.readReg(fi.rs, int(fi.boost))
						c = fs.readReg(fi.rt, int(fi.boost))
					}
				} else {
					a, c = vals[i][0], vals[i][1]
				}

				switch fi.kind {
				case fkALUSafe:
					// Pre-classified as unable to fault: no exception
					// machinery on this path.
					v, _ := evalALU(fi.op, a, c, fi.imm)
					if fi.boost == 0 {
						if fi.rd != 0 {
							regs[fi.rd] = v
						}
					} else if werr := fs.shadow.write(fi.rd, int(fi.boost), v); werr != nil {
						fs.failCycle(fb, ci, insts, i, cycles, maxReady)
						return 0, false, false, werr
					}
				case fkBranch:
					if ctl != nil {
						fs.failCycle(fb, ci, insts, i, cycles, maxReady)
						return 0, false, false, fmt.Errorf("sim: two control ops in block B%d", fb.id)
					}
					ctlBuf = fastCtl{fi: fi, ext: &pd.exts[int(cy.lo)+i], taken: branchTaken(fi.op, a, c)}
					ctl = &ctlBuf
				case fkLoad:
					addr := a + uint32(fi.imm)
					size := int(fi.size)
					// Access sizes are powers of two, so alignment is a mask.
					if len(fs.stores.entries) == 0 &&
						addr&uint32(size-1) == 0 &&
						fs.cachePage != nil && fs.cachePN == addr/pageSize &&
						int(addr%pageSize)+size <= pageSize {
						// Resident aligned load with no buffered stores:
						// touch the timed lanes, then read the cached page
						// inline.
						if timed {
							res.Cycles = cycles
							fs.touchMem(int(pd.exts[int(cy.lo)+i].id), addr, false, int(fi.boost))
							cycles = res.Cycles
						}
						p, off := fs.cachePage, addr%pageSize
						var v uint32
						switch size {
						case 1:
							v = uint32(p[off])
						case 2:
							v = uint32(p[off]) | uint32(p[off+1])<<8
						default:
							v = uint32(p[off]) | uint32(p[off+1])<<8 |
								uint32(p[off+2])<<16 | uint32(p[off+3])<<24
						}
						v = extend(v, size, fi.signExt)
						if fi.boost == 0 {
							if fi.rd != 0 {
								regs[fi.rd] = v
							}
						} else if werr := fs.shadow.write(fi.rd, int(fi.boost), v); werr != nil {
							fs.failCycle(fb, ci, insts, i, cycles, maxReady)
							return 0, false, false, werr
						}
					} else {
						res.Cycles = cycles
						_, eerr := fs.execute(fb, fi, &pd.exts[int(cy.lo)+i], a, c, &ctlBuf)
						cycles = res.Cycles
						if eerr != nil {
							fs.failCycle(fb, ci, insts, i, cycles, maxReady)
							return 0, false, false, eerr
						}
					}
				case fkStore:
					addr := a + uint32(fi.imm)
					size := int(fi.size)
					if fi.boost == 0 &&
						addr&uint32(size-1) == 0 &&
						fs.cacheOwn && fs.cachePN == addr/pageSize &&
						int(addr%pageSize)+size <= pageSize {
						// Sequential stores write memory directly even with
						// buffered boosted stores outstanding, exactly as
						// the generic path does. The run owns the page.
						if timed {
							res.Cycles = cycles
							fs.touchMem(int(pd.exts[int(cy.lo)+i].id), addr, true, 0)
							cycles = res.Cycles
						}
						p, off := fs.cachePage, addr%pageSize
						switch size {
						case 1:
							p[off] = byte(c)
						case 2:
							p[off] = byte(c)
							p[off+1] = byte(c >> 8)
						default:
							p[off] = byte(c)
							p[off+1] = byte(c >> 8)
							p[off+2] = byte(c >> 16)
							p[off+3] = byte(c >> 24)
						}
						if fs.cfg.OnStore != nil {
							fs.cfg.OnStore(addr, size, c)
						}
					} else {
						res.Cycles = cycles
						_, eerr := fs.execute(fb, fi, &pd.exts[int(cy.lo)+i], a, c, &ctlBuf)
						cycles = res.Cycles
						if eerr != nil {
							fs.failCycle(fb, ci, insts, i, cycles, maxReady)
							return 0, false, false, eerr
						}
					}
				case fkJ, fkHalt:
					if ctl != nil {
						fs.failCycle(fb, ci, insts, i, cycles, maxReady)
						return 0, false, false, fmt.Errorf("sim: two control ops in block B%d", fb.id)
					}
					ctlBuf = fastCtl{fi: fi}
					ctl = &ctlBuf
				case fkNop:
					// Boosted NOP: counted via the block totals, no
					// architectural effect.
				default:
					res.Cycles = cycles
					isCtl, eerr := fs.execute(fb, fi, &pd.exts[int(cy.lo)+i], a, c, &ctlBuf)
					cycles = res.Cycles
					if eerr != nil {
						fs.failCycle(fb, ci, insts, i, cycles, maxReady)
						return 0, false, false, eerr
					}
					if isCtl {
						if ctl != nil {
							fs.failCycle(fb, ci, insts, i, cycles, maxReady)
							return 0, false, false, fmt.Errorf("sim: two control ops in block B%d", fb.id)
						}
						ctl = &ctlBuf
					}
				}
				if fi.def >= 0 {
					t := cycles + int64(fi.lat)
					regReady[fi.def] = t
					if t > maxReady {
						maxReady = t
					}
					if multi {
						for k := range lanes {
							lanes[k].ready(fi.def, int64(fi.lat))
						}
					}
				}
			}
			cycles++
			if multi {
				for k := range lanes {
					lanes[k].cycles++
				}
			}
		}

		// The cycle counter and watermark mirrors are written back before
		// control resolution, which may run commit/recovery code that
		// reads them.
		res.Cycles = cycles
		fs.maxReady = maxReady

		// Resolve the block's control transfer; chain edges continue the
		// superblock as long as the cycle budget holds.
		if ctl == nil {
			// Fall-through block.
			if fb.nsucc != 1 {
				return 0, false, false, fmt.Errorf("sim: block B%d has no successor", fb.id)
			}
			if fb.chain >= 0 && res.Cycles <= fs.maxCycles && (!multi || fs.inBudget()) {
				fb = &pd.blocks[fb.chain]
				continue chain
			}
			return fb.succ0, fb.chain >= 0, false, nil
		}
		switch ctl.fi.kind {
		case fkHalt:
			return 0, false, true, nil
		case fkJ:
			if fb.chain >= 0 && res.Cycles <= fs.maxCycles && (!multi || fs.inBudget()) {
				fb = &pd.blocks[fb.chain]
				continue chain
			}
			next, validated = fb.succ0, fb.chain >= 0
		case fkJAL, fkJR:
			next = ctl.target
		default: // conditional branch
			res.Branches++
			correct := ctl.taken == ctl.fi.pred
			succ := fb.succ0
			if ctl.taken {
				succ = fb.succ1
			}
			if correct {
				res.Correct++
				var commitFault *Fault
				fs.shadow.commit(regs)
				if fs.stores.outstanding() {
					fs.dropShared()
					commitFault = fs.stores.commit(fs.mem, fs.cfg.OnStore)
				}
				if timed {
					fs.specCommit()
				}
				if fs.excbuf.shift() || commitFault != nil {
					n, d, rerr := fs.recover(fb, ctl.fi, ctl.ext, succ)
					return n, false, d, rerr
				}
				if fb.predChain >= 0 && res.Cycles <= fs.maxCycles && (!multi || fs.inBudget()) {
					fb = &pd.blocks[fb.predChain]
					continue chain
				}
				next, validated = succ, fb.predChain >= 0
			} else {
				// Incorrect prediction: discard all speculative state.
				droppedStores := len(fs.stores.entries)
				droppedRegs := fs.shadow.count()
				res.Squashed += int64(droppedStores + droppedRegs)
				if !fs.cfg.Inject.SkipShadowSquash {
					fs.shadow.squash()
				}
				if !fs.cfg.Inject.SkipStoreSquash {
					fs.stores.squash()
				}
				fs.excbuf.clear()
				if timed {
					fs.specSquash()
				}
				if fs.cfg.OnSquash != nil {
					leaked := len(fs.stores.entries) + fs.shadow.count()
					fs.cfg.OnSquash(SquashInfo{
						BranchID: int(ctl.ext.id),
						Regs:     droppedRegs,
						Stores:   droppedStores,
						Leaked:   leaked,
					})
				}
				next = succ
			}
		}
		// A missing successor is reported at top level, after the
		// exceeded-cycles check of every lane.
		if next < 0 {
			fs.noSucc = fb.id
		}
		return next, validated, false, nil
	}
}

// readReg reads a register as seen from the given boost level.
func (fs *fastState) readReg(r int32, level int) uint32 {
	if r == int32(isa.R0) {
		return 0
	}
	if level > 0 {
		if v, ok := fs.shadow.read(r, level); ok {
			return v
		}
	}
	return fs.regs[r]
}

// writeReg writes a register sequentially or into the shadow file.
func (fs *fastState) writeReg(r int32, level int, v uint32) error {
	if r == int32(isa.R0) {
		return nil
	}
	if level > 0 {
		return fs.shadow.write(r, level, v)
	}
	fs.regs[r] = v
	return nil
}

// dropShared empties the page cache if it holds a page the run does not
// own, which a write through Memory may just have replaced with the
// run's own copy.
func (fs *fastState) dropShared() {
	if !fs.cacheOwn {
		fs.cachePage = nil
	}
}

// onFault consults the user fault handler, reporting whether to retry.
// The handler may write the run's Memory, so a shared cached page is
// dropped.
func (fs *fastState) onFault(f *Fault) bool {
	if fs.cfg.OnFault == nil {
		return false
	}
	retry := fs.cfg.OnFault(fs.mem, f)
	fs.dropShared()
	return retry
}

// memLoad reads through the one-entry page cache; cross-page accesses fall
// back to the Memory path.
func (fs *fastState) memLoad(addr uint32, size int) (uint32, bool) {
	off := addr % pageSize
	if int(off)+size <= pageSize {
		pn := addr / pageSize
		p := fs.cachePage
		if p == nil || fs.cachePN != pn {
			var own, ok bool
			if p, own, ok = fs.mem.lookup(pn); !ok {
				return 0, false
			}
			fs.cachePage, fs.cachePN, fs.cacheOwn = p, pn, own
		}
		switch size {
		case 1:
			return uint32(p[off]), true
		case 2:
			return uint32(p[off]) | uint32(p[off+1])<<8, true
		default:
			return uint32(p[off]) | uint32(p[off+1])<<8 |
				uint32(p[off+2])<<16 | uint32(p[off+3])<<24, true
		}
	}
	return fs.mem.Load(addr, size)
}

// memStore writes through the page cache, copying the page on the run's
// first write to it. The cross-page fallback keeps Memory.Store's
// partial-write-then-fail behavior on unmapped tails.
func (fs *fastState) memStore(addr uint32, size int, v uint32) bool {
	off := addr % pageSize
	if int(off)+size <= pageSize {
		pn := addr / pageSize
		p := fs.cachePage
		if !fs.cacheOwn || fs.cachePN != pn {
			if p = fs.mem.writable(pn); p == nil {
				return false
			}
			fs.cachePage, fs.cachePN, fs.cacheOwn = p, pn, true
		}
		switch size {
		case 1:
			p[off] = byte(v)
		case 2:
			p[off] = byte(v)
			p[off+1] = byte(v >> 8)
		default:
			p[off] = byte(v)
			p[off+1] = byte(v >> 8)
			p[off+2] = byte(v >> 16)
			p[off+3] = byte(v >> 24)
		}
		return true
	}
	return fs.mem.Store(addr, size, v)
}

// touchMem charges every timed lane the memory-hierarchy stall cycles of
// one access; it mirrors execState.touchMem exactly.
func (fs *fastState) touchMem(id int, addr uint32, store bool, level int) {
	if fs.mh != nil {
		if p := fs.mh.Access(fs.res.Cycles, id, addr, store); p > 0 {
			fs.res.Cycles += p
			fs.res.MemStalls += p
			if level > 0 {
				fs.res.BoostedMemStalls += p
				fs.spec.add(level, p)
			}
		}
	}
	for k := range fs.lanes {
		l := &fs.lanes[k]
		if l.mh == nil {
			continue
		}
		if p := l.mh.Access(l.cycles, id, addr, store); p > 0 {
			l.cycles += p
			l.memStalls += p
			if level > 0 {
				l.boostedMemStalls += p
				l.spec.add(level, p)
			}
		}
	}
}

// specCommit resolves one correctly predicted branch in every timed
// lane's speculative-stall tracker.
func (fs *fastState) specCommit() {
	if fs.mh != nil {
		fs.spec.commit()
	}
	for k := range fs.lanes {
		if l := &fs.lanes[k]; l.mh != nil {
			l.spec.commit()
		}
	}
}

// specSquash charges every timed lane's outstanding speculative stall
// cycles to its SquashedMemStalls.
func (fs *fastState) specSquash() {
	if fs.mh != nil {
		fs.res.SquashedMemStalls += fs.spec.squash()
	}
	for k := range fs.lanes {
		if l := &fs.lanes[k]; l.mh != nil {
			l.squashedMemStalls += l.spec.squash()
		}
	}
}

// advance adds n cycles to every further lane.
func (fs *fastState) advance(n int64) {
	for k := range fs.lanes {
		fs.lanes[k].cycles += n
	}
}

// loadValue reads memory through the level-bounded store-buffer view,
// bypassing the buffer entirely when it is empty (the common case).
func (fs *fastState) loadValue(fb *fastBlock, fi *fastInst, ext *fastExt, addr uint32, size int) (uint32, *Fault) {
	if size > 1 && addr%uint32(size) != 0 {
		return 0, &Fault{Kind: FaultAlign, Addr: addr, Proc: fb.proc,
			Block: fb.id, InstID: int(ext.id), Boosted: fi.boost > 0}
	}
	var v uint32
	var ok bool
	if len(fs.stores.entries) == 0 {
		v, ok = fs.memLoad(addr, size)
	} else {
		v, ok = fs.stores.read(int(fi.boost), addr, size, fs.mem)
	}
	if !ok {
		return 0, &Fault{Kind: FaultLoad, Addr: addr, Proc: fb.proc,
			Block: fb.id, InstID: int(ext.id), Boosted: fi.boost > 0}
	}
	return v, nil
}

// preciseFault routes a sequential fault through the user handler; retry
// re-runs the failing action.
func (fs *fastState) preciseFault(f *Fault, retry func() *Fault) error {
	if fs.onFault(f) {
		if f2 := retry(); f2 != nil {
			fs.res.Fault = f2
			return f2
		}
		return nil
	}
	fs.res.Fault = f
	return f
}

// execute performs one instruction's function; a and c are the issued
// operand values and ext is the instruction's cold half. Control
// decisions are written to *ctl (isCtl=true); the transfer happens at
// block end.
func (fs *fastState) execute(fb *fastBlock, fi *fastInst, ext *fastExt, a, c uint32, ctl *fastCtl) (isCtl bool, err error) {
	switch fi.kind {
	case fkALU, fkALUSafe:
		v, ok := evalALU(fi.op, a, c, fi.imm)
		if !ok {
			if fi.boost > 0 {
				fs.excbuf.set(int(fi.boost))
				return false, fs.writeReg(fi.rd, int(fi.boost), 0)
			}
			f := &Fault{Kind: FaultDivZero, Proc: fb.proc, Block: fb.id, InstID: int(ext.id)}
			fs.res.Fault = f
			return false, f
		}
		return false, fs.writeReg(fi.rd, int(fi.boost), v)
	case fkLoad:
		addr := a + uint32(fi.imm)
		size := int(fi.size)
		if fs.timed {
			fs.touchMem(int(ext.id), addr, false, int(fi.boost))
		}
		v, f := fs.loadValue(fb, fi, ext, addr, size)
		if f != nil {
			if fi.boost > 0 {
				fs.excbuf.set(int(fi.boost))
				return false, fs.writeReg(fi.rd, int(fi.boost), 0)
			}
			if fs.onFault(f) {
				v2, f2 := fs.loadValue(fb, fi, ext, addr, size)
				if f2 != nil {
					fs.res.Fault = f2
					return false, f2
				}
				return false, fs.writeReg(fi.rd, 0, extend(v2, size, fi.signExt))
			}
			fs.res.Fault = f
			return false, f
		}
		return false, fs.writeReg(fi.rd, int(fi.boost), extend(v, size, fi.signExt))
	case fkStore:
		addr := a + uint32(fi.imm)
		size := int(fi.size)
		if fs.timed {
			fs.touchMem(int(ext.id), addr, true, int(fi.boost))
		}
		if fi.boost > 0 {
			if !fs.pd.storeBuffer {
				return false, fmt.Errorf("sim: boosted store without store buffer in B%d", fb.id)
			}
			// Alignment/mapping faults on boosted stores are postponed.
			if size > 1 && addr%uint32(size) != 0 || !fs.mem.Mapped(addr) || !fs.mem.Mapped(addr+uint32(size)-1) {
				fs.excbuf.set(int(fi.boost))
				return false, nil
			}
			if err := fs.stores.write(int(fi.boost), addr, size, c); err != nil {
				return false, fmt.Errorf("sim: B%d of %s: %w", fb.id, fb.proc, err)
			}
			return false, nil
		}
		if size > 1 && addr%uint32(size) != 0 {
			f := &Fault{Kind: FaultAlign, Addr: addr, Proc: fb.proc, Block: fb.id, InstID: int(ext.id)}
			return false, fs.preciseFault(f, func() *Fault {
				if !fs.memStore(addr, size, c) {
					return &Fault{Kind: FaultStore, Addr: addr, Proc: fb.proc, Block: fb.id, InstID: int(ext.id)}
				}
				return nil
			})
		}
		if !fs.memStore(addr, size, c) {
			f := &Fault{Kind: FaultStore, Addr: addr, Proc: fb.proc, Block: fb.id, InstID: int(ext.id)}
			return false, fs.preciseFault(f, func() *Fault {
				if !fs.memStore(addr, size, c) {
					return f
				}
				return nil
			})
		}
		if fs.cfg.OnStore != nil {
			fs.cfg.OnStore(addr, size, c)
		}
		return false, nil
	case fkBranch:
		*ctl = fastCtl{fi: fi, ext: ext, taken: branchTaken(fi.op, a, c)}
		return true, nil
	case fkJ:
		*ctl = fastCtl{fi: fi, ext: ext}
		return true, nil
	case fkJAL:
		if fs.shadow.outstanding() || fs.stores.outstanding() {
			return false, fmt.Errorf("sim: speculative state outstanding at call in B%d", fb.id)
		}
		if ext.target < 0 {
			return false, fmt.Errorf("sim: call to undefined %q", ext.sym)
		}
		if err := fs.writeReg(fi.rd, 0, ext.link); err != nil {
			return false, err
		}
		*ctl = fastCtl{fi: fi, ext: ext, target: ext.target}
		return true, nil
	case fkJR:
		if fs.shadow.outstanding() || fs.stores.outstanding() {
			return false, fmt.Errorf("sim: speculative state outstanding at return in B%d", fb.id)
		}
		idx := a - retTokenBase
		if a < retTokenBase || int(idx) >= len(fs.pd.blocks) {
			return false, fmt.Errorf("sim: jr to invalid token %#x", a)
		}
		*ctl = fastCtl{fi: fi, ext: ext, target: int32(idx)}
		return true, nil
	case fkOut:
		if fi.boost > 0 {
			return false, fmt.Errorf("sim: boosted OUT is not supported by any model")
		}
		fs.res.Out = append(fs.res.Out, a)
		return false, nil
	case fkHalt:
		*ctl = fastCtl{fi: fi, ext: ext}
		return true, nil
	default: // fkNop
		return false, nil
	}
}

// recover implements the boosted exception handler (paper §2.3) on the
// pre-decoded recovery stream; see execState.recover for the semantics.
// bi/bext are the committing branch whose exception buffer fired.
func (fs *fastState) recover(fb *fastBlock, bi *fastInst, bext *fastExt, succ int32) (int32, bool, error) {
	res := fs.res
	res.Recoveries++
	fs.shadow.squash()
	fs.stores.squash()
	fs.excbuf.clear()
	if fs.timed {
		fs.specSquash()
	}
	res.Cycles += int64(fs.pd.excOverhead)
	fs.advance(int64(fs.pd.excOverhead))

	if bext.recLo < 0 {
		return 0, false, fmt.Errorf(
			"sim: boosted exception at branch %d in B%d of %s but no recovery code",
			bext.id, fb.id, fb.proc)
	}
	var ctlBuf fastCtl
	for ri := bext.recLo; ri < bext.recHi; ri++ {
		fi := &fs.pd.rec[ri]
		res.Cycles++
		fs.advance(1)
		res.Insts++
		a := fs.readReg(fi.rs, int(fi.boost))
		c := fs.readReg(fi.rt, int(fi.boost))
		// execute consults the user fault handler itself for sequential
		// faults; an error here means the fault went unhandled.
		isCtl, err := fs.execute(fb, fi, &fs.pd.recExts[ri], a, c, &ctlBuf)
		if err != nil {
			return 0, false, err
		}
		if isCtl {
			return 0, false, fmt.Errorf("sim: control op in recovery code")
		}
		if fi.def >= 0 {
			t := res.Cycles + int64(fi.lat)
			fs.regReady[fi.def] = t
			if t > fs.maxReady {
				fs.maxReady = t
			}
			for k := range fs.lanes {
				fs.lanes[k].ready(fi.def, int64(fi.lat))
			}
		}
	}
	// Recovery ends with an unconditional jump to the predicted target.
	res.Cycles++
	fs.advance(1)
	return succ, false, nil
}
