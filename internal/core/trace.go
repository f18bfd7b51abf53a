package core

import (
	"cmp"
	"fmt"
	"math"
	"slices"

	"boosting/internal/dataflow"
	"boosting/internal/ddg"
	"boosting/internal/isa"
	"boosting/internal/machine"
	"boosting/internal/prog"
)

// splitKey identifies a CFG edge by source block, successor slot and
// destination; compensation blocks are shared across motions on the same
// edge.
type splitKey struct {
	fromID, slot, toID int
}

// scheduler carries per-procedure scheduling state.
type scheduler struct {
	pr    *prog.Program
	p     *prog.Proc
	model *machine.Model
	opts  Options
	sp    *machine.SchedProc
	stats *Stats
	// calls maps each procedure to the registers a call to it may read
	// and write (callSets), shared by every procedure of one schedule.
	calls map[string]callSet

	// am memoizes dominance, liveness and regions for p, keyed by the
	// procedure's IR generation; the scheduler declares its mutations
	// through am.Invalidate instead of recomputing per trace.
	am *dataflow.Manager

	scheduled map[int]bool
	splits    map[splitKey]*prog.Block
	region    *dataflow.Region
	curTrace  []*prog.Block
	// ddg keeps the dependence-graph builder's tables from trace to trace.
	ddg ddg.Builder
	// livenessErr records the first cached liveness that differed from a
	// full computation (Options.checkLiveness).
	livenessErr error
}

// liveness returns the procedure's live-variable sets from the analysis
// manager. With Options.checkLiveness it also compares them with a full
// computation and records the first difference.
func (s *scheduler) liveness() *dataflow.Liveness {
	lv := s.am.Liveness()
	if s.opts.checkLiveness && s.livenessErr == nil && !lv.Equal(dataflow.ComputeLiveness(s.p)) {
		s.livenessErr = fmt.Errorf("cached liveness differs from a full computation after %d traces", s.stats.TracesFormed)
	}
	return lv
}

// placement records where a DDG node landed.
type placement struct {
	blockIdx int // trace block index
	cycle    int // cycle within the block schedule
	abs      int // absolute cycle along the trace
	level    int // boosting level (0 = sequential)
}

// boostRec tracks an in-flight boosted value for single-shadow conflict
// checking and recovery-code generation.
type boostRec struct {
	node     *ddg.Node
	dest     isa.Reg
	startIdx int // trace block index where placed
	level    int
	endIdx   int // trace block index of the committing branch
}

// nodeState is the list scheduler's state for one DDG node.
type nodeState struct {
	// height is the node's critical-path height (latency-weighted longest
	// path to a DDG leaf), the primary list-scheduling priority.
	height int
	// pending counts the node's pred edges whose producer is still
	// unplaced; readyAt is the largest placement.abs + Latency over the
	// edges whose producer is placed. mark keeps both current.
	pending int
	readyAt int
	placed  bool
	at      placement
}

// packing is one native tryFinish fits around the terminator.
type packing struct {
	n       *ddg.Node
	inDelay bool
	slot    int
}

// traceState is the working state for one trace. Per-node state is in
// arrays indexed by ddg.Node.Seq, which is each node's index in g.Nodes.
type traceState struct {
	trace []*prog.Block
	g     *ddg.Graph
	// start[bi] is the Seq of trace block bi's first node, and
	// start[len(trace)] is len(g.Nodes).
	start   []int
	ns      []nodeState
	sblocks []*machine.SchedBlock
	nextAbs int
	boosted []boostRec

	// insts holds each placed node's instruction copy, indexed by Seq;
	// the schedule's slots point into it. slots is the unused tail of the
	// slab that cycles' slots are cut from.
	insts []isa.Inst
	slots []*isa.Inst

	// Scratch reused from cycle to cycle; the schedule keeps none of it.
	natives                  []*ddg.Node
	free, curFree, delayFree []bool
	packs                    []packing
}

// newTraceState sets up the per-node state of graph g for a machine of
// the given issue width: every node unplaced, with its height and its
// pred-edge count.
func newTraceState(trace []*prog.Block, g *ddg.Graph, width int) *traceState {
	st := &traceState{
		trace:   trace,
		g:       g,
		start:   make([]int, len(trace)+1),
		ns:      make([]nodeState, len(g.Nodes)),
		insts:   make([]isa.Inst, len(g.Nodes)),
		sblocks: make([]*machine.SchedBlock, 0, len(trace)),
	}
	free := make([]bool, 3*width)
	st.free, st.curFree, st.delayFree = free[:width], free[width:2*width], free[2*width:]
	for bi, nodes := range g.ByBlock {
		st.start[bi+1] = st.start[bi] + len(nodes)
	}
	for i := len(g.Nodes) - 1; i >= 0; i-- {
		n := g.Nodes[i]
		best := 0
		for _, e := range n.Succs {
			if v := e.Latency + st.ns[e.To.Seq].height; v > best {
				best = v
			}
		}
		st.ns[i] = nodeState{height: best, pending: len(n.Preds), readyAt: math.MinInt}
	}
	return st
}

// scheduleTrace list-schedules every block of the trace top-down, filling
// holes through upward code motion, then emits recovery code and rewrites
// the trace blocks' instruction lists to match the executed code.
func (s *scheduler) scheduleTrace(trace []*prog.Block) error {
	s.stats.TracesFormed++
	s.stats.TraceBlocks += int64(len(trace))
	s.curTrace = trace
	stop := stageTimer(&s.stats.DDGBuildSeconds)
	g := s.ddg.Build(trace, ddg.Options{NoDisambiguation: s.opts.NoDisambiguation})
	stop()
	st := newTraceState(trace, g, s.model.IssueWidth)
	stop = stageTimer(&s.stats.ListScheduleSeconds)
	for bi := range trace {
		if err := s.scheduleBlock(st, bi); err != nil {
			stop()
			return err
		}
	}
	stop()
	stop = stageTimer(&s.stats.RecoveryEmitSeconds)
	s.emitRecovery(st)
	stop()
	for bi, b := range trace {
		s.sp.Blocks[b.ID] = st.sblocks[bi]
		s.scheduled[b.ID] = true
	}
	stop = stageTimer(&s.stats.ListScheduleSeconds)
	rewriteTraceInsts(st)
	stop()
	// The rewrite replaces the trace blocks' instruction lists with the
	// scheduled code; edges are untouched, so only their liveness goes
	// stale.
	s.am.InvalidateInsts(trace...)
	return nil
}

// mark records n's placement and brings its consumers' readiness up to
// date: each succ edge is one pending edge fewer, and its consumer may
// issue no earlier than p.abs plus the edge's latency.
func (st *traceState) mark(n *ddg.Node, p placement) {
	ns := &st.ns[n.Seq]
	ns.placed, ns.at = true, p
	for _, e := range n.Succs {
		c := &st.ns[e.To.Seq]
		c.pending--
		if t := p.abs + e.Latency; t > c.readyAt {
			c.readyAt = t
		}
	}
}

// placementOf returns n's placement, or nil while n is unplaced.
func (st *traceState) placementOf(n *ddg.Node) *placement {
	if ns := &st.ns[n.Seq]; ns.placed {
		return &ns.at
	}
	return nil
}

// isPlaced reports whether n has been placed.
func (st *traceState) isPlaced(n *ddg.Node) bool { return st.ns[n.Seq].placed }

// ready reports whether node n may issue at absolute cycle abs: every
// dependence predecessor is placed and its latency satisfied.
func (st *traceState) ready(n *ddg.Node, abs int) bool {
	ns := &st.ns[n.Seq]
	return ns.pending == 0 && ns.readyAt <= abs
}

// notReadyReason buckets a failed ready() check: memory-dep if any
// unsatisfied edge is a memory dependence, plain dependence otherwise.
func (st *traceState) notReadyReason(n *ddg.Node, abs int) string {
	for _, e := range n.Preds {
		p := st.placementOf(e.From)
		if (p == nil || p.abs+e.Latency > abs) && e.Kind == ddg.DepMem {
			return RejectMemoryDep
		}
	}
	return RejectDependence
}

// newCycle returns an empty cycle of the given width. Its slots are cut
// from a slab the trace's schedule keeps.
func (st *traceState) newCycle(width int) machine.Cycle {
	if len(st.slots) < width {
		st.slots = make([]*isa.Inst, width*(len(st.g.Nodes)+4))
	}
	cy := machine.Cycle{Slots: st.slots[:width:width]}
	st.slots = st.slots[width:]
	return cy
}

// scheduleBlock emits the machine schedule for trace block bi.
func (s *scheduler) scheduleBlock(st *traceState, bi int) error {
	b := st.trace[bi]
	width := s.model.IssueWidth

	// Natives of this block that are still unplaced, terminator separate.
	natives := st.natives[:0]
	var term *ddg.Node
	for _, n := range st.g.ByBlock[bi] {
		if st.isPlaced(n) {
			continue
		}
		if n.IsTerm {
			term = n
		} else {
			natives = append(natives, n)
		}
	}
	st.byPriority(natives)
	sb := &machine.SchedBlock{Block: b, Cycles: make([]machine.Cycle, 0, len(natives)+2)}
	st.sblocks = append(st.sblocks, sb)

	absBase := st.nextAbs
	cycle := 0
	finished := false
	for !finished {
		if cycle > 100000 {
			return fmt.Errorf("block B%d: scheduler did not converge (dependence cycle?)", b.ID)
		}
		abs := absBase + cycle
		cy := st.newCycle(width)
		free := st.free
		for i := range free {
			free[i] = true
		}

		natives = st.unplaced(natives)
		remaining := natives

		// Try to finish the block: place the terminator here if its
		// dependences allow and every remaining native provably fits into
		// this cycle's leftover slots or the delay cycle.
		if term != nil && st.ready(term, abs) {
			if done, err := s.tryFinish(st, bi, sb, &cy, free, remaining, term, cycle, abs); err != nil {
				return err
			} else if done {
				finished = true
				continue
			}
		}
		if term == nil && len(remaining) == 0 {
			break // fall-through block complete
		}

		// Fill with ready natives by priority. Memory operations go first:
		// the base superscalar has a single memory port, so an ALU
		// instruction placed into the memory-capable slot can crowd out a
		// critical load. Once every slot is taken, nothing more fits.
		open := width
		for _, memFirst := range []bool{true, false} {
			for _, n := range remaining {
				if open == 0 {
					break
				}
				if st.isPlaced(n) || isa.ClassOf(n.Inst.Op) == isa.ClassMem != memFirst {
					continue
				}
				if !st.ready(n, abs) {
					continue
				}
				slot := s.model.SlotFor(isa.ClassOf(n.Inst.Op), free)
				if slot < 0 {
					continue
				}
				s.place(st, n, bi, &cy, slot, cycle, abs, 0)
				free[slot] = false
				open--
			}
		}

		// Fill remaining holes with foreign instructions from later trace
		// blocks (global code motion).
		s.fillForeign(st, bi, &cy, free, cycle, abs, false)

		sb.Cycles = append(sb.Cycles, cy)
		cycle++
	}
	st.natives = natives[:0]

	st.nextAbs = absBase + len(sb.Cycles)
	return nil
}

// unplaced drops the nodes placed since the last call, in place,
// preserving priority order.
func (st *traceState) unplaced(nodes []*ddg.Node) []*ddg.Node {
	out := nodes[:0]
	for _, n := range nodes {
		if !st.isPlaced(n) {
			out = append(out, n)
		}
	}
	return out
}

// byPriority sorts nodes by descending critical-path height, then original
// order.
func (st *traceState) byPriority(nodes []*ddg.Node) {
	slices.SortStableFunc(nodes, func(a, b *ddg.Node) int {
		if ha, hb := st.ns[a.Seq].height, st.ns[b.Seq].height; ha != hb {
			return cmp.Compare(hb, ha)
		}
		return cmp.Compare(a.Seq, b.Seq)
	})
}

// tryFinish attempts to place the terminator in the current cycle, packing
// all remaining natives into the leftover slots of this cycle and the
// delay cycle. On success it appends the final cycle(s), fills leftover
// slots with foreign instructions (the Squashing model's shadow zone), and
// returns done=true. On failure nothing is mutated.
func (s *scheduler) tryFinish(st *traceState, bi int, sb *machine.SchedBlock,
	cy *machine.Cycle, free []bool, remaining []*ddg.Node, term *ddg.Node,
	cycle, abs int) (bool, error) {

	width := s.model.IssueWidth
	// The terminator needs a slot in the current cycle.
	termSlot := s.model.SlotFor(isa.ClassOf(term.Inst.Op), free)
	if termSlot < 0 {
		return false, nil
	}
	hasDelay := isa.HasDelaySlot(term.Inst.Op)

	// Tentatively pack remaining natives: current-cycle leftovers first
	// (must be ready now), then delay-cycle slots (ready next cycle).
	curFree := st.curFree
	copy(curFree, free)
	curFree[termSlot] = false
	delayFree := st.delayFree
	for i := range delayFree {
		delayFree[i] = hasDelay
	}
	packs := st.packs[:0]
	for _, n := range remaining {
		c := isa.ClassOf(n.Inst.Op)
		if st.ready(n, abs) {
			if slot := s.model.SlotFor(c, curFree); slot >= 0 {
				curFree[slot] = false
				packs = append(packs, packing{n, false, slot})
				continue
			}
		}
		if hasDelay && st.ready(n, abs+1) {
			if slot := s.model.SlotFor(c, delayFree); slot >= 0 {
				delayFree[slot] = false
				packs = append(packs, packing{n, true, slot})
				continue
			}
		}
		st.packs = packs
		return false, nil // cannot finish this cycle
	}
	st.packs = packs

	// Commit: terminator, then packed natives. curFree and delayFree now
	// hold exactly the slots the commit leaves free.
	s.place(st, term, bi, cy, termSlot, cycle, abs, 0)
	var delay machine.Cycle
	if hasDelay {
		delay = st.newCycle(width)
	}
	for _, pk := range packs {
		if pk.inDelay {
			s.place(st, pk.n, bi, &delay, pk.slot, cycle+1, abs+1, 0)
		} else {
			s.place(st, pk.n, bi, cy, pk.slot, cycle, abs, 0)
		}
	}

	// The branch-issue cycle and the delay cycle are the Squashing
	// model's shadow zone: fill leftovers with foreign instructions.
	s.fillForeign(st, bi, cy, curFree, cycle, abs, true)
	sb.Cycles = append(sb.Cycles, *cy)
	if hasDelay {
		s.fillForeign(st, bi, &delay, delayFree, cycle+1, abs+1, true)
		sb.Cycles = append(sb.Cycles, delay)
	}
	return true, nil
}

// place records node n at (blockIdx bi, cycle) in slot slot with the given
// boosting level and writes the instruction into the cycle.
func (s *scheduler) place(st *traceState, n *ddg.Node, bi int,
	cy *machine.Cycle, slot, cycle, abs, level int) {
	in := &st.insts[n.Seq]
	*in = n.Inst
	in.Boost = level
	cy.Slots[slot] = in
	st.mark(n, placement{blockIdx: bi, cycle: cycle, abs: abs, level: level})
}

// fillForeign fills the free slots of cy with instructions moved up from
// later trace blocks. shadowZone marks the branch-issue and delay cycles
// (the only positions the Squashing model may boost into).
func (s *scheduler) fillForeign(st *traceState, bi int, cy *machine.Cycle,
	free []bool, cycle, abs int, shadowZone bool) {

	if s.opts.LocalOnly {
		return
	}
	for slot := 0; slot < len(free); slot++ {
		if !free[slot] {
			continue
		}
		n, plan := s.bestForeign(st, bi, slot, abs, shadowZone)
		if n == nil {
			continue
		}
		// Perform bookkeeping: duplication on off-trace edges of crossed
		// joins (unless the move is between control/data-equivalent
		// blocks).
		if len(plan.dupEdges) > 0 {
			s.duplicate(n, plan.dupEdges)
		}
		s.place(st, n, bi, cy, slot, cycle, abs, plan.level)
		free[slot] = false
		s.stats.placed(plan.level)
		if plan.level > 0 {
			st.boosted = append(st.boosted, boostRec{
				node:     n,
				dest:     destOf(&n.Inst),
				startIdx: bi,
				level:    plan.level,
				endIdx:   plan.endIdx,
			})
		}
	}
}

// bestForeign returns the best foreign node that is ready,
// class-compatible with the slot, and legally movable to block bi, with
// its motion plan, or a nil node.
//
// Priority is critical-path height minus a boosting-level penalty: a
// deeply boosted instruction commits only if several predictions hold
// (mostly wasted work under imperfect prediction) and its uncommitted
// shadow level constrains where its consumers may be placed, so between
// candidates of similar height the shallower motion wins. When the slot
// can execute memory operations — the machine's single memory port —
// memory candidates are preferred over anything else, since an ALU
// instruction can issue from the other side but a load cannot.
// Candidates are walked in Seq order and the first of equal score wins.
func (s *scheduler) bestForeign(st *traceState, bi, slot, abs int, shadowZone bool) (*ddg.Node, *motionPlan) {
	var best *ddg.Node
	var bestPlan *motionPlan
	bestScore := -1 << 30
	bestMem := false
	memSlot := s.model.Slots[slot].Has(isa.ClassMem)
	for _, n := range st.g.Nodes[st.start[bi+1]:] {
		if st.isPlaced(n) || n.IsTerm {
			continue
		}
		c := isa.ClassOf(n.Inst.Op)
		if c != isa.ClassNone && !s.model.Slots[slot].Has(c) {
			s.stats.reject(RejectSlotLegality)
			continue
		}
		isMem := c == isa.ClassMem
		if memSlot && bestMem && !isMem {
			continue // never displace a memory candidate from the memory port
		}
		if !st.ready(n, abs) {
			s.stats.reject(st.notReadyReason(n, abs))
			continue
		}
		s.stats.MotionsAttempted++
		plan, why := s.planMotion(st, n, bi, shadowZone)
		if plan == nil {
			s.stats.reject(why)
			continue
		}
		score := st.ns[n.Seq].height - 3*plan.level
		if best != nil && bestMem == isMem && score <= bestScore {
			continue
		}
		if best == nil || (memSlot && isMem && !bestMem) || (bestMem == isMem && score > bestScore) {
			best, bestPlan = n, plan
			bestScore = score
			bestMem = isMem
		}
	}
	return best, bestPlan
}

func destOf(in *isa.Inst) isa.Reg {
	if d, ok := in.Dest(); ok {
		return d
	}
	return isa.R0
}

// rewriteTraceInsts rebuilds each trace block's instruction list from its
// final schedule so that later analyses (liveness, equivalence checks for
// later traces) see the executed code, and so that a schedule without
// boosting labels remains a valid *sequential* program (used by the
// dynamic-scheduler prescheduling experiment). Instructions appear in
// schedule order with their boosting labels; within one issue cycle they
// are ordered by original program sequence — the hardware reads all
// operands before any same-cycle write, so a same-cycle anti-dependent
// pair is only sequentially faithful with the reader first. The
// terminator moves to the end (delay-slot instructions execute before the
// transfer, so this linearization is semantically faithful).
//
// The order comes from the placements: every node is placed by the end of
// its trace, and sorting the nodes by (placement block, cycle, Seq) gives
// each block's issue order.
func rewriteTraceInsts(st *traceState) {
	order := slices.Clone(st.g.Nodes)
	slices.SortFunc(order, func(x, y *ddg.Node) int {
		px, py := &st.ns[x.Seq].at, &st.ns[y.Seq].at
		if c := cmp.Compare(px.blockIdx, py.blockIdx); c != 0 {
			return c
		}
		if c := cmp.Compare(px.cycle, py.cycle); c != 0 {
			return c
		}
		return cmp.Compare(x.Seq, y.Seq)
	})
	arena := make([]isa.Inst, 0, len(order))
	for bi, b := range st.trace {
		lo := len(arena)
		var term *isa.Inst
		for ; len(order) > 0 && st.ns[order[0].Seq].at.blockIdx == bi; order = order[1:] {
			in := &st.insts[order[0].Seq]
			if in.Op == isa.NOP {
				continue
			}
			if isa.IsControl(in.Op) {
				term = in
				continue
			}
			arena = append(arena, *in)
		}
		if term != nil {
			arena = append(arena, *term)
		}
		if len(arena) == lo {
			b.Insts = nil
			continue
		}
		b.Insts = arena[lo:len(arena):len(arena)]
	}
}
