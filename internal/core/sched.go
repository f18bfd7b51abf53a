// Package core implements the paper's primary contribution: a trace-based
// global instruction scheduler with boosting (Smith, Horowitz, Lam,
// "Efficient Superscalar Performance Through Boosting", ASPLOS 1992, §3).
//
// The top-level structure follows the paper's Figure 4:
//
//	foreach PROCEDURE {
//	    generate CFG and compute global data-flow info;
//	    foreach REGION (innermost loop out to procedure level) {
//	        while (exists unscheduled TRACE) {
//	            select next best TRACE;
//	            foreach BB in TRACE {
//	                list schedule BB;
//	                fill in the holes through upward code motion;
//	            }
//	        }
//	        collapse REGION;
//	    }
//	}
//
// Boosting augments upward code motion: a speculative motion that is
// unsafe (the instruction can raise an exception) or illegal (its
// destination is live into a non-predicted successor of a crossed branch)
// is performed anyway by labelling the instruction with a boosting level
// equal to the number of conditional branches it crossed. Compensation
// for crossed join blocks is inserted by splitting the off-trace edges
// ("on-demand creation of basic blocks to hold duplicated instructions",
// §3.2.2), and control/data-equivalent block pairs move instructions
// without any compensation at all.
//
// All data-dependence edges (including anti and output) are honored in
// absolute schedule order; boosting removes only control-dependence
// constraints. This matches the paper's dependence-graph construction and
// also guarantees that sequential compensation copies on off-trace edges
// can never be observed out of order.
package core

import (
	"fmt"
	"slices"

	"boosting/internal/dataflow"
	"boosting/internal/isa"
	"boosting/internal/machine"
	"boosting/internal/prog"
)

// Options tunes the scheduler; the zero value is the paper's full
// configuration for whatever model is passed.
type Options struct {
	// LocalOnly restricts scheduling to single basic blocks (no global
	// code motion); used for the paper's "basic block scheduling" bars
	// and for the scalar baseline.
	LocalOnly bool
	// DisableEquivalence turns off the control/data-equivalence shortcut,
	// forcing duplication-based bookkeeping everywhere (ablation).
	DisableEquivalence bool
	// NoDisambiguation builds maximally conservative memory dependences
	// (ablation).
	NoDisambiguation bool
	// NoBoostedLoads forbids boosting loads above branches (stores and
	// ALU ops still boost). On a finite memory hierarchy a speculative
	// load can stall the machine on a miss whose work is later squashed;
	// this knob isolates that cost (the memhier ablation).
	NoBoostedLoads bool
	// MaxTraceBlocks bounds trace length (0 = default 32).
	MaxTraceBlocks int

	// uncachedAnalyses restores the pre-pass-manager behavior of
	// invalidating every analysis before each trace, forcing full
	// recomputation. Schedules are identical either way (the analyses
	// are deterministic); TestAnalysisCacheRatio flips this to measure
	// what the caching saves.
	uncachedAnalyses bool
	// checkLiveness compares every liveness result the scheduler reads
	// with a full computation, and fails the schedule on a difference.
	// Tests set it to prove the incremental recomputation exact.
	checkLiveness bool
}

// Schedule compiles a program for the given machine model. The program is
// modified in place (compensation blocks are added to its CFG); callers
// who need the original should prog.Clone first. Branch prediction bits
// must already be set (package profile).
func Schedule(pr *prog.Program, model *machine.Model, opts Options) (*machine.SchedProgram, error) {
	sprog, _, err := ScheduleWithStats(pr, model, opts)
	return sprog, err
}

// ScheduleWithStats is Schedule plus the scheduler's observability
// counters: per-stage wall time, motion attempts/placements/rejections,
// boosting depth and analysis-cache activity. Collecting them never
// changes scheduling decisions.
func ScheduleWithStats(pr *prog.Program, model *machine.Model, opts Options) (*machine.SchedProgram, *Stats, error) {
	if opts.MaxTraceBlocks == 0 {
		opts.MaxTraceBlocks = 32
	}
	stats := NewStats()
	sprog := &machine.SchedProgram{
		Prog:  pr,
		Model: model,
		Procs: map[string]*machine.SchedProc{},
	}
	// Only the equivalence shortcut looks inside calls.
	var calls map[string]callSet
	if !opts.LocalOnly && !opts.DisableEquivalence {
		calls = callSets(pr)
	}
	for _, p := range pr.ProcList() {
		sp, err := scheduleProc(pr, p, model, opts, stats, calls)
		if err != nil {
			return nil, nil, fmt.Errorf("core: scheduling %s: %w", p.Name, err)
		}
		sprog.Procs[p.Name] = sp
	}
	if err := sprog.Verify(); err != nil {
		return nil, nil, fmt.Errorf("core: schedule verification: %w", err)
	}
	return sprog, stats, nil
}

// scheduleProc runs region-by-region trace scheduling over one procedure.
// All dataflow analyses go through a dataflow.Manager: computed lazily,
// served from cache while the IR generation is unchanged, and invalidated
// at the scheduler's two mutation points (compensation bookkeeping and
// the trace rewrite) instead of recomputed before every trace.
func scheduleProc(pr *prog.Program, p *prog.Proc, model *machine.Model, opts Options, stats *Stats,
	calls map[string]callSet) (*machine.SchedProc, error) {
	sp := &machine.SchedProc{
		Proc:     p,
		Blocks:   map[int]*machine.SchedBlock{},
		Recovery: map[int][]isa.Inst{},
	}
	s := &scheduler{
		pr:        pr,
		p:         p,
		model:     model,
		opts:      opts,
		sp:        sp,
		stats:     stats,
		calls:     calls,
		am:        dataflow.NewManager(p),
		scheduled: map[int]bool{},
		splits:    map[splitKey]*prog.Block{},
	}

	regions := s.am.Regions()
	for _, reg := range regions {
		if err := s.scheduleRegion(reg); err != nil {
			return nil, err
		}
	}
	// Any block not covered (unreachable code) gets a local schedule so
	// the SchedProgram is total.
	for _, b := range p.Blocks {
		if b.Recovery || s.scheduled[b.ID] {
			continue
		}
		if err := s.scheduleTrace([]*prog.Block{b}); err != nil {
			return nil, err
		}
	}
	if s.livenessErr != nil {
		return nil, s.livenessErr
	}
	stats.Analysis.Add(s.am.Stats())
	return sp, nil
}

// callSet is what a call to one procedure may do to registers.
type callSet struct {
	reads, writes dataflow.BitSet
}

// callSets returns, for each procedure of pr, the registers a call to it
// may read and write: every register the procedure or its callees read
// or write, and the linkage registers RV and RA. One register file serves
// the whole program, so after allocation a callee reads and writes the
// caller's registers. The sets are taken before scheduling, which moves
// and copies instructions but adds no register access.
func callSets(pr *prog.Program) map[string]callSet {
	procs := pr.ProcList()
	n := 0
	for _, p := range procs {
		n = max(n, int(p.MaxReg())+1)
	}
	words := (n + 63) / 64
	slab := make(dataflow.BitSet, 2*len(procs)*words) // every set, in one allocation
	sets := make(map[string]callSet, len(procs))
	var calls [][2]string // caller, callee
	var buf [4]isa.Reg
	regs := buf[:0]
	for k, p := range procs {
		cs := callSet{reads: slab[2*k*words : (2*k+1)*words], writes: slab[(2*k+1)*words : (2*k+2)*words]}
		cs.writes.Set(int(isa.RV))
		cs.writes.Set(int(isa.RA))
		for _, b := range p.Blocks {
			for i := range b.Insts {
				in := &b.Insts[i]
				if in.Op == isa.JAL {
					calls = append(calls, [2]string{p.Name, in.Sym})
				}
				regs = in.Uses(regs[:0])
				for _, r := range regs {
					cs.reads.Set(int(r))
				}
				regs = in.Defs(regs[:0])
				for _, r := range regs {
					cs.writes.Set(int(r))
				}
			}
		}
		cs.reads.Clear(int(isa.R0))
		cs.writes.Clear(int(isa.R0))
		sets[p.Name] = cs
	}
	for changed := true; changed; {
		changed = false
		for _, c := range calls {
			caller, callee := sets[c[0]], sets[c[1]]
			r := caller.reads.Union(callee.reads)
			w := caller.writes.Union(callee.writes)
			changed = changed || r || w
		}
	}
	return sets
}

// scheduleRegion selects and schedules traces until every block of the
// region is scheduled (paper: "while (exists unscheduled TRACE)").
// Compensation blocks created inside the region join it and are scheduled
// too.
func (s *scheduler) scheduleRegion(reg *dataflow.Region) error {
	s.region = reg
	for {
		if s.opts.uncachedAnalyses {
			s.am.Invalidate(dataflow.KindAll)
		}
		stop := stageTimer(&s.stats.TraceSelectSeconds)
		trace := s.selectTrace(reg)
		stop()
		if trace == nil {
			return nil
		}
		if err := s.scheduleTrace(trace); err != nil {
			return err
		}
	}
}

// selectTrace picks the next unscheduled block in reverse postorder as the
// seed and grows the trace along predicted successors (paper §3.2.1),
// stopping at: a block outside the region or ending in a call/return/halt,
// a block already in the trace (loop edge), or an already-scheduled block.
func (s *scheduler) selectTrace(reg *dataflow.Region) []*prog.Block {
	var seed *prog.Block
	for _, b := range s.am.CFG().RPO {
		if !b.Recovery && !s.scheduled[b.ID] && s.inRegion(reg, b) {
			seed = b
			break
		}
	}
	if seed == nil {
		return nil
	}
	trace := []*prog.Block{seed}
	if s.opts.LocalOnly {
		return trace
	}
	for len(trace) < s.opts.MaxTraceBlocks {
		cur := trace[len(trace)-1]
		t := cur.Terminator()
		if t != nil && (t.Op == isa.JAL || t.Op == isa.JR || t.Op == isa.HALT) {
			break // calls, returns and halts end traces
		}
		next := cur.PredictedSucc()
		if next == nil || next.Recovery {
			break
		}
		if slices.Contains(trace, next) || s.scheduled[next.ID] || !s.inRegion(reg, next) {
			break
		}
		trace = append(trace, next)
	}
	return trace
}

// inRegion reports whether b belongs to the region. Blocks created after
// region formation (compensation blocks) belong to the innermost region
// still being scheduled, which is exactly the region whose edges spawned
// them; we approximate by set membership plus "new block" detection.
func (s *scheduler) inRegion(reg *dataflow.Region, b *prog.Block) bool {
	if reg.Blocks[b] {
		return true
	}
	// Compensation blocks are added to the region set on creation, so a
	// miss here is authoritative except for the procedure-body region,
	// which owns everything.
	return reg.Loop == nil
}
