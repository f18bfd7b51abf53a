package core

import (
	"fmt"
	"slices"

	"boosting/internal/dataflow"
	"boosting/internal/ddg"
	"boosting/internal/isa"
	"boosting/internal/prog"
)

// motionPlan describes how a foreign instruction reaches its placement
// block: the boosting level required (0 for safe-and-legal plain motion or
// an equivalence move), the committing branch's trace index, and the
// off-trace edges that need compensation copies.
type motionPlan struct {
	level    int
	endIdx   int
	dupEdges []dupEdge
}

// dupEdge names a CFG edge (from.Succs[slot] == to) that must receive a
// compensation copy.
type dupEdge struct {
	from *prog.Block
	slot int
	to   *prog.Block
}

// planMotion decides whether node n (living in trace block n.BlockIdx) may
// move up to trace block bi, and with what bookkeeping. It returns a nil
// plan and a Reject* bucket name if the motion is not allowed under the
// current machine model. shadowZone reports whether the candidate slot
// lies in the branch-issue or delay cycle of block bi (the Squashing
// model's only boosting positions).
//
// This is the paper's Figure 5 algorithm, evaluated for the whole path at
// once: equivalence pairs move without compensation; motion out of the top
// of a join block duplicates onto the off-trace edges; motion into the
// bottom of a block with multiple successors boosts when the speculation
// is unsafe (the op can fault, or is a store or an OUT) or illegal (the
// destination is live into the non-predicted successor).
func (s *scheduler) planMotion(st *traceState, n *ddg.Node, bi int, shadowZone bool) (*motionPlan, string) {
	oi := n.BlockIdx
	op := n.Inst.Op
	trace := st.trace
	dest, hasDest := n.Inst.Dest()
	lv := s.liveness()

	branches := 0
	needBoost := false
	degenerate := false
	endIdx := -1
	for k := bi; k < oi; k++ {
		t := trace[k].Terminator()
		switch {
		case t == nil || t.Op == isa.J:
			continue // unconditional flow: not a speculation boundary
		case isa.IsCondBranch(t.Op):
			branches++
			endIdx = k
			next := trace[k+1]
			if trace[k].Succs[0] == next && trace[k].Succs[1] == next {
				// Both branch targets reach the next trace block: the
				// motion is never speculative with respect to this branch,
				// but boosting across it is impossible (a "misprediction"
				// would squash state the continuing path still needs).
				degenerate = true
				continue
			}
			var off *prog.Block
			if t.Pred {
				off = trace[k].Succs[0]
			} else {
				off = trace[k].Succs[1]
			}
			if isa.CanExcept(op) || isa.IsStore(op) || op == isa.OUT {
				needBoost = true // unsafe speculative movement
			}
			if hasDest && dest != isa.R0 && lv.In[off.ID].Has(int(dest)) {
				needBoost = true // illegal speculative movement
			}
		default:
			return nil, RejectCallBoundary // calls/returns/halts are never crossed
		}
	}

	// The control/data-equivalence shortcut: the motion is not speculative
	// at all, needs no boosting and no duplication (paper Figure 5's
	// "move I to bottom of pair").
	if branches > 0 && !s.opts.DisableEquivalence &&
		s.am.CFG().ControlEquivalent(trace[bi], trace[oi]) &&
		s.dataEquivalent(st, n, bi, oi) {
		if s.shadowVisible(st, n, bi, 0) && s.flattenSafe(st, n, bi) {
			return &motionPlan{level: 0, endIdx: -1}, ""
		}
		// Otherwise fall through: the motion may still be possible as a
		// boosted motion below.
	}

	if branches > 0 && op == isa.OUT {
		return nil, RejectObservableOut // observable output is never speculated
	}

	// boostAllowed checks the machine model's constraints for boosting
	// this instruction across the crossed branches, reporting the first
	// violated constraint's rejection bucket.
	boostAllowed := func() (bool, string) {
		b := s.model.Boost
		if degenerate || branches > b.MaxLevel {
			return false, RejectShadowLimit
		}
		if s.opts.NoBoostedLoads && isa.IsLoad(op) {
			return false, RejectBoostedLoad // ablation: loads stay below branches
		}
		if isa.IsStore(op) && !b.StoreBuffer {
			return false, RejectStoreBuffer // Option 1: no shadow store buffer
		}
		if b.SquashOnly {
			// Option 3: only into the shadow of this block's own branch.
			tbi := trace[bi].Terminator()
			if !shadowZone || branches != 1 || tbi == nil || !isa.IsCondBranch(tbi.Op) {
				return false, RejectSquashZone
			}
		}
		if !b.MultiShadow && hasDest && dest != isa.R0 {
			// Option 2: one shadow location per register — reject a second
			// in-flight boosted value of the same register with a
			// different commit point (Figure 6c's output-like dependence).
			for _, br := range st.boosted {
				if br.dest == dest && br.endIdx != endIdx &&
					bi <= br.endIdx && br.startIdx <= endIdx {
					return false, RejectShadowConflict
				}
			}
		}
		return true, ""
	}
	if needBoost {
		if ok, why := boostAllowed(); !ok {
			return nil, why
		}
	}

	// Compensation: every crossed join block needs copies on its
	// off-trace entry edges. A copy placed at a join executes on every
	// path through that join, so it is only correct when the remaining
	// journey from the join to the instruction's origin block crosses no
	// further conditional branch — otherwise the copy would need to be
	// boosted itself (the paper boosts such copies; we reject the motion
	// instead, trading a little scheduling freedom for simplicity).
	var dups []dupEdge
	for k := bi + 1; k <= oi; k++ {
		b := trace[k]
		onPred := trace[k-1]
		var onCount, offCount int64
		var edges []dupEdge
		for _, x := range b.Preds {
			if x == onPred {
				onCount += x.Count
				continue
			}
			offCount += x.Count
			for slot, succ := range x.Succs {
				if succ == b {
					edges = append(edges, dupEdge{from: x, slot: slot, to: b})
				}
			}
		}
		if len(edges) == 0 {
			continue
		}
		if countCondBranches(trace[k:oi]) > 0 {
			// The copy would execute on paths that bypass the origin.
			return nil, RejectCompBoost
		}
		// Conscientious-scheduling gate (paper §3.2: "the scheduler is
		// aware of the compensation costs of each code motion"). Copies
		// appended into an existing predecessor block usually fill slack
		// and are nearly free; copies that force an edge split add a
		// block (and cycles) to the off-trace path, so they must be paid
		// for by a much hotter trace.
		needSplit := false
		for _, e := range edges {
			if !s.appendable(e.from) {
				needSplit = true
			}
		}
		if needSplit {
			if 4*offCount > onCount {
				return nil, RejectCompCost
			}
		} else if offCount > onCount {
			return nil, RejectCompCost
		}
		dups = append(dups, edges...)
	}

	level := 0
	if needBoost {
		level = branches
	}

	if level == 0 && !s.flattenSafe(st, n, bi) {
		// Upgrade to a boosted motion (shadow writes leave the branch's
		// sequential operands untouched and the linearization keeps the
		// label), or give up.
		if branches == 0 {
			return nil, RejectTermOperand
		}
		if ok, why := boostAllowed(); !ok {
			return nil, why
		}
		level = branches
	}

	if !s.shadowVisible(st, n, bi, level) {
		// A plain motion may be blocked only because a producer's value is
		// still speculative here; boosting the consumer to the crossed
		// branch count always restores visibility (its level is then at
		// least any producer's remaining level), and boosting a safe and
		// legal motion is always semantically sound.
		if level > 0 || branches == 0 {
			return nil, RejectShadowVisibility
		}
		if ok, why := boostAllowed(); !ok {
			return nil, why
		}
		level = branches
		if !s.shadowVisible(st, n, bi, level) {
			return nil, RejectShadowVisibility
		}
	}

	return &motionPlan{level: level, endIdx: endIdx, dupEdges: dups}, ""
}

// flattenSafe reports whether a sequential (level-0) placement of n in
// block bi keeps the block's linearized instruction list semantically
// faithful: n must not define a register read by bi's terminator. The
// machine would read the branch operands before n's same-cycle write, but
// Block.Insts keeps the terminator last, so the write would precede the
// read sequentially.
func (s *scheduler) flattenSafe(st *traceState, n *ddg.Node, bi int) bool {
	t := st.trace[bi].Terminator()
	if t == nil {
		return true
	}
	dest, hasDest := n.Inst.Dest()
	if !hasDest || dest == isa.R0 {
		return true
	}
	for _, u := range t.Uses(nil) {
		if u == dest {
			return false
		}
	}
	return true
}

// shadowVisible enforces the shadow-level compatibility constraints
// between an instruction placed at block bi with the given boosting level
// and its already-placed boosted dependence predecessors. With remaining =
// the predecessor's uncommitted level at bi:
//
//   - a consumer (true dependence, or a load after a buffered store) can
//     only see the speculative value if level ≥ remaining — sequential
//     instructions read only sequential state and a level-k instruction
//     reads shadow entries of level ≤ k;
//   - a redefinition (output dependence, or a store after a buffered store
//     to the same location) must not become architectural before the
//     predecessor commits, or the commit would stomp the newer value —
//     again level ≥ remaining.
//
// Placements violating either are rejected.
func (s *scheduler) shadowVisible(st *traceState, n *ddg.Node, bi, level int) bool {
	for _, e := range n.Preds {
		affected := false
		switch e.Kind {
		case ddg.DepTrue, ddg.DepOutput:
			affected = true
		case ddg.DepMem:
			// RAW forwarding and WAW stomp both matter; WAR (store after
			// load) does not, since the load read its value at execution.
			affected = isa.IsStore(e.From.Inst.Op)
		}
		if !affected {
			continue
		}
		p := st.placementOf(e.From)
		if p == nil || p.level == 0 {
			continue
		}
		remaining := p.level - countCondBranches(st.trace[p.blockIdx:bi])
		if remaining > level {
			return false
		}
	}
	return true
}

// dataEquivalent implements the paper's data-equivalence test for a
// control-equivalent block pair: the moving instruction must be free of
// data dependence with any instruction along any *off-trace* path between
// the pair (on-trace dependences are already enforced by the DDG and the
// absolute schedule order).
func (s *scheduler) dataEquivalent(st *traceState, n *ddg.Node, bi, oi int) bool {
	a, d := st.trace[bi], st.trace[oi]
	onTrace := map[*prog.Block]bool{}
	for k := bi; k <= oi; k++ {
		onTrace[st.trace[k]] = true
	}

	// Blocks on some path a → d, excluding a, d and the trace spine.
	fwd := reachAvoiding(a, d, false)
	bwd := reachAvoiding(d, a, true)
	uses := n.Inst.Uses(nil)
	dest, hasDest := n.Inst.Dest()

	for x := range fwd {
		if x == a || x == d || onTrace[x] || !bwd[x] {
			continue
		}
		if blockConflicts(x, n, uses, dest, hasDest, s.calls) {
			return false
		}
	}
	return true
}

// reachAvoiding returns blocks reachable from start (exclusive of paths
// passing through avoid) following successors, or predecessors when
// backward is true. start itself is included.
func reachAvoiding(start, avoid *prog.Block, backward bool) map[*prog.Block]bool {
	seen := map[*prog.Block]bool{start: true}
	stack := []*prog.Block{start}
	for len(stack) > 0 {
		b := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		next := b.Succs
		if backward {
			next = b.Preds
		}
		for _, s := range next {
			if s == avoid || seen[s] {
				continue
			}
			seen[s] = true
			stack = append(stack, s)
		}
	}
	return seen
}

// blockConflicts reports whether any instruction of x conflicts with the
// moving instruction n. calls maps each procedure to the registers a call
// to it may read and write.
func blockConflicts(x *prog.Block, n *ddg.Node, uses []isa.Reg, dest isa.Reg, hasDest bool,
	calls map[string]callSet) bool {
	var tmp []isa.Reg
	nIsLoad := isa.IsLoad(n.Inst.Op)
	nIsStore := isa.IsStore(n.Inst.Op)
	nIsOut := n.Inst.Op == isa.OUT
	for i := range x.Insts {
		in := &x.Insts[i]
		if in.Op == isa.JAL {
			// Calls clobber memory and output, and read and write
			// every register their callees do.
			if nIsLoad || nIsStore || nIsOut {
				return true
			}
			cs := calls[in.Sym]
			if hasDest && (cs.writes.Has(int(dest)) || cs.reads.Has(int(dest))) {
				return true
			}
			for _, u := range uses {
				if cs.writes.Has(int(u)) {
					return true
				}
			}
			continue
		}
		tmp = in.Defs(tmp[:0])
		for _, r := range tmp {
			if r == isa.R0 {
				continue
			}
			if hasDest && r == dest {
				return true
			}
			for _, u := range uses {
				if r == u {
					return true
				}
			}
		}
		if hasDest && dest != isa.R0 {
			tmp = in.Uses(tmp[:0])
			for _, r := range tmp {
				if r == dest {
					return true
				}
			}
		}
		if (nIsLoad && isa.IsStore(in.Op)) || (nIsStore && isa.IsMem(in.Op)) ||
			(nIsOut && in.Op == isa.OUT) {
			return true
		}
	}
	return false
}

// duplicate places compensation copies of n on the given off-trace edges
// and declares the mutation to the analysis manager: appending into
// existing blocks changes only their instruction lists, while a fresh
// edge split changes the CFG itself and clobbers everything.
func (s *scheduler) duplicate(n *ddg.Node, edges []dupEdge) {
	split := false
	var targets []*prog.Block
	for _, e := range edges {
		target, didSplit := s.compTarget(e)
		if didSplit {
			split = true
			s.stats.EdgeSplits++
		}
		in := n.Inst
		in.Boost = 0
		target.Insts = insertBeforeTerminator(target.Insts, in)
		targets = append(targets, target)
		s.stats.CompensationCopies++
	}
	if split {
		s.am.Invalidate(dataflow.KindAll)
	} else {
		s.am.InvalidateInsts(targets...)
	}
}

// appendable reports whether a compensation copy may be appended directly
// to the end of block x (paper: "a copy of the instruction [is placed] at
// the end of each preceding basic block"): x must be unscheduled, have a
// single successor, not end in a call, and not belong to the trace being
// scheduled (its dependence graph is already built).
func (s *scheduler) appendable(x *prog.Block) bool {
	t := x.Terminator()
	return !s.scheduled[x.ID] && len(x.Succs) == 1 &&
		(t == nil || t.Op == isa.J) && !s.inCurrentTrace(x)
}

// compTarget returns the block that receives a compensation copy for the
// edge: the predecessor itself when the copy may live at its end,
// otherwise a block freshly split into the edge (split reports the latter
// case, a structural CFG edit).
func (s *scheduler) compTarget(e dupEdge) (target *prog.Block, split bool) {
	x := e.from
	if s.appendable(x) {
		return x, false
	}
	key := splitKey{x.ID, e.slot, e.to.ID}
	if nb := s.splits[key]; nb != nil && !s.scheduled[nb.ID] {
		return nb, false
	}
	nb := s.p.NewBlockAfter(fmt.Sprintf("comp.%d.%d", x.ID, e.to.ID))
	nb.Succs = []*prog.Block{e.to}
	x.Succs[e.slot] = nb
	s.splits[key] = nb
	if s.region != nil {
		s.region.Blocks[nb] = true
	}
	return nb, true
}

// inCurrentTrace reports whether b is part of the trace being scheduled.
// Compensation copies must not be appended to unscheduled trace blocks
// (their dependence graphs are already built), so such edges are split.
func (s *scheduler) inCurrentTrace(b *prog.Block) bool {
	return slices.Contains(s.curTrace, b)
}

// insertBeforeTerminator appends in, keeping any terminator last.
func insertBeforeTerminator(insts []isa.Inst, in isa.Inst) []isa.Inst {
	n := len(insts)
	if n > 0 && isa.IsControl(insts[n-1].Op) {
		insts = append(insts, insts[n-1])
		insts[n-1] = in
		return insts
	}
	return append(insts, in)
}

// emitRecovery generates, for every conditional branch of the trace, the
// boosted-exception recovery code (paper §2.3): all boosted instructions
// in flight across that branch, in original program order, with boosting
// levels decremented by the number of branches passed (level 0 copies are
// sequential and re-raise the fault precisely).
func (s *scheduler) emitRecovery(st *traceState) {
	if len(st.boosted) == 0 {
		return
	}
	for k, b := range st.trace {
		t := b.Terminator()
		if t == nil || !isa.IsCondBranch(t.Op) {
			continue
		}
		var rec []isa.Inst
		for _, br := range sortedBySeq(st.boosted) {
			if br.startIdx > k || k > br.endIdx {
				continue
			}
			passed := countCondBranches(st.trace[br.startIdx : k+1])
			in := br.node.Inst
			in.Boost = br.level - passed
			if in.Boost < 0 {
				in.Boost = 0
			}
			rec = append(rec, in)
		}
		if len(rec) > 0 {
			s.sp.Recovery[t.ID] = rec
			s.stats.RecoverySites++
			s.stats.RecoveryInsts += int64(len(rec))
		}
	}
}

func sortedBySeq(recs []boostRec) []boostRec {
	out := append([]boostRec(nil), recs...)
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j].node.Seq < out[j-1].node.Seq; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}

func countCondBranches(blocks []*prog.Block) int {
	n := 0
	for _, b := range blocks {
		if t := b.Terminator(); t != nil && isa.IsCondBranch(t.Op) {
			n++
		}
	}
	return n
}
