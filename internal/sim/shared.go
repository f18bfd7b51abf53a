package sim

import (
	"fmt"
	"slices"

	"boosting/internal/isa"
	"boosting/internal/memhier"
	"boosting/internal/prog"
)

// This file holds the timing lanes of a shared run (ExecBatch): the
// program executes once on the fast core's functional state, and every
// config after the first carries only what depends on its cycle count.
// Each lane retires into its own result slot, with exactly what a solo
// Exec of its config returns. It also holds the reset of a pooled state,
// whose buffers the lanes fill.

// reset readies fs for a run of pd whose primary lane runs cfg under the
// hierarchy mh and reports into slot, reusing whatever buffers fs holds.
// regs and regReady are always sized together.
func (fs *fastState) reset(pd *Predecoded, cfg *ExecConfig, mh *memhier.Hierarchy, slot int) {
	fs.pd = pd
	fs.cfg = cfg
	fs.res = &ExecResult{}
	fs.mem = pd.img.newMemory()
	if cap(fs.regs) < pd.numRegs {
		fs.regs = make([]uint32, pd.numRegs)
		fs.regReady = make([]int64, pd.numRegs)
	} else {
		fs.regs = fs.regs[:pd.numRegs]
		fs.regReady = fs.regReady[:pd.numRegs]
		clear(fs.regs)
		clear(fs.regReady)
	}
	if cap(fs.vals) < pd.maxPerCycle {
		fs.vals = make([][2]uint32, pd.maxPerCycle)
	} else {
		fs.vals = fs.vals[:pd.maxPerCycle]
	}
	fs.shadow.reset(pd.maxLevel, pd.multiShadow, pd.numRegs)
	fs.stores.entries = fs.stores.entries[:0]
	fs.stores.cap = pd.storeCap
	fs.excbuf.clear()
	fs.cachePage = nil
	fs.cachePN = 0
	fs.cacheOwn = false
	fs.mh = mh
	fs.timed = mh != nil
	// Always reset the speculative-stall tracker, not only when this run
	// models a memory hierarchy: a pooled state may come from a memhier run
	// and its pending counters must never leak into the next run.
	fs.spec.reset(pd.maxLevel)
	fs.maxReady = 0
	fs.maxCycles = cfg.MaxCycles
	if fs.maxCycles == 0 {
		fs.maxCycles = 500_000_000
	}
	fs.regs[isa.SP] = prog.StackTop
	fs.lanes = fs.lanes[:0]
	fs.slot = slot
}

// fastLane is the timing state of one further config of a shared run:
// everything that depends on its cycle count. The functional state
// (registers, shadow file, store buffer, memory, control flow) is the
// primary's and is not repeated.
type fastLane struct {
	cycles, stalls                                 int64
	memStalls, boostedMemStalls, squashedMemStalls int64
	regReady                                       []int64
	maxReady                                       int64
	mh                                             *memhier.Hierarchy
	spec                                           specStallTracker
	slot                                           int
}

// ready records a register write of latency lat issued now.
func (l *fastLane) ready(r int32, lat int64) {
	t := l.cycles + lat
	l.regReady[r] = t
	if t > l.maxReady {
		l.maxReady = t
	}
}

// stall applies one issue cycle's operand interlock.
func (l *fastLane) stall(insts []fastInst) {
	need := l.cycles
	for i := range insts {
		fi := &insts[i]
		if fi.use0 >= 0 {
			if t := l.regReady[fi.use0]; t > need {
				need = t
			}
		}
		if fi.use1 >= 0 {
			if t := l.regReady[fi.use1]; t > need {
				need = t
			}
		}
	}
	if need > l.cycles {
		l.stalls += need - l.cycles
		l.cycles = need
	}
}

// addLane adds a timing lane that runs under the hierarchy mh (nil =
// perfect memory) and reports into slot.
func (fs *fastState) addLane(mh *memhier.Hierarchy, slot int) {
	if len(fs.lanes) == cap(fs.lanes) {
		fs.lanes = append(fs.lanes, fastLane{})
	} else {
		fs.lanes = fs.lanes[:len(fs.lanes)+1]
	}
	l := &fs.lanes[len(fs.lanes)-1]
	regReady, spec := l.regReady, l.spec
	*l = fastLane{mh: mh, spec: spec, slot: slot}
	if cap(regReady) < fs.pd.numRegs {
		l.regReady = make([]int64, fs.pd.numRegs)
	} else {
		l.regReady = regReady[:fs.pd.numRegs]
		clear(l.regReady)
	}
	l.spec.reset(fs.pd.maxLevel)
	fs.timed = fs.timed || mh != nil
}

// laneResult is lane l's result so far: the shared functional counters,
// its own copy of the output and its own timing.
func (fs *fastState) laneResult(l *fastLane) *ExecResult {
	r := *fs.res
	r.Out = slices.Clone(r.Out)
	r.Cycles, r.Stalls = l.cycles, l.stalls
	r.MemStalls, r.BoostedMemStalls, r.SquashedMemStalls = l.memStalls, l.boostedMemStalls, l.squashedMemStalls
	r.Mem = nil
	return &r
}

// finish retires every lane with its result so far and err. At a clean
// halt (err == nil) each result also carries its own hierarchy's
// counters.
func (fs *fastState) finish(err error) {
	for k := range fs.lanes {
		l := &fs.lanes[k]
		r := fs.laneResult(l)
		if err == nil && l.mh != nil {
			stats := l.mh.Stats()
			r.Mem = &stats
		}
		fs.results[l.slot], fs.errs[l.slot] = r, err
	}
	if err == nil && fs.mh != nil {
		stats := fs.mh.Stats()
		fs.res.Mem = &stats
	}
	fs.results[fs.slot], fs.errs[fs.slot] = fs.res, err
}

// retireOverBudget retires every lane whose cycles passed the budget,
// with its partial result and the exceeded-cycles error, and reports
// whether no lane is left. A retiring primary hands the run to another
// lane, so the others run on.
func (fs *fastState) retireOverBudget() bool {
	for k := 0; k < len(fs.lanes); {
		l := &fs.lanes[k]
		if l.cycles <= fs.maxCycles {
			k++
			continue
		}
		fs.results[l.slot], fs.errs[l.slot] = fs.laneResult(l), fs.exceeded()
		last := len(fs.lanes) - 1
		fs.lanes[k], fs.lanes[last] = fs.lanes[last], fs.lanes[k]
		fs.lanes = fs.lanes[:last]
	}
	if fs.res.Cycles <= fs.maxCycles {
		return false
	}
	fs.results[fs.slot], fs.errs[fs.slot] = fs.res, fs.exceeded()
	if len(fs.lanes) == 0 {
		return true
	}
	// Promote the last lane: it takes over the shared counters (with its
	// own copy of the output), and its timing is copied into the primary's
	// buffers. Buffers never change hands: the primary's ready times stay
	// sized with its registers, which a pooled state relies on.
	last := len(fs.lanes) - 1
	l := &fs.lanes[last]
	fs.res = fs.laneResult(l)
	copy(fs.regReady, l.regReady)
	copy(fs.spec.pending, l.spec.pending)
	fs.maxReady, fs.mh, fs.slot = l.maxReady, l.mh, l.slot
	l.mh = nil
	fs.lanes = fs.lanes[:last]
	return false
}

func (fs *fastState) exceeded() error {
	return fmt.Errorf("sim: exceeded %d cycles", fs.maxCycles)
}

// inBudget reports whether every lane is within the cycle budget. A
// superblock chain continues only while it holds, so a lane over budget
// leaves the chain at the same block as a solo run and retires there.
func (fs *fastState) inBudget() bool {
	if fs.res.Cycles > fs.maxCycles {
		return false
	}
	for k := range fs.lanes {
		if fs.lanes[k].cycles > fs.maxCycles {
			return false
		}
	}
	return true
}
