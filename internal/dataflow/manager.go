package dataflow

import (
	"boosting/internal/prog"
)

// AnalysisKind names one cached analysis product managed by Manager.
// Kinds combine as bit sets for Invalidate's clobber declarations.
type AnalysisKind uint8

const (
	// KindCFG covers orderings and dominance (Analyze): RPO, dominators,
	// postdominators. It depends only on the CFG edge structure.
	KindCFG AnalysisKind = 1 << iota
	// KindLiveness covers live-variable sets (ComputeLiveness). It
	// depends on instruction contents and the CFG edge structure.
	KindLiveness
	// KindLoops covers natural loops and scheduling regions (Regions).
	// It depends on the CFG edge structure via dominance.
	KindLoops

	// KindAll is every analysis the manager caches.
	KindAll = KindCFG | KindLiveness | KindLoops
	// KindStructural is every analysis derived from the CFG edge
	// structure; an edit that adds blocks or rewires Succs clobbers it
	// (and, because liveness flows along edges, KindLiveness too — use
	// KindAll for such edits).
	KindStructural = KindCFG | KindLoops
)

// ManagerStats counts what a Manager computed versus served from cache.
// The scheduler's regression tests pin these: recomputations must scale
// with IR mutations, not with the number of traces scheduled.
type ManagerStats struct {
	// CFGComputes and LoopComputes count recomputations of the
	// respective analysis. LivenessComputes counts computations, full
	// or incremental.
	CFGComputes      int64 `json:"cfg_computes"`
	LivenessComputes int64 `json:"liveness_computes"`
	LoopComputes     int64 `json:"loop_computes"`
	// Hits counts queries answered from a generation-valid cache.
	Hits int64 `json:"hits"`
	// Invalidations counts Invalidate and InvalidateInsts calls
	// (declared IR mutations).
	Invalidations int64 `json:"invalidations"`
}

// Add accumulates other into s (aggregation across procedures).
func (s *ManagerStats) Add(other ManagerStats) {
	s.CFGComputes += other.CFGComputes
	s.LivenessComputes += other.LivenessComputes
	s.LoopComputes += other.LoopComputes
	s.Hits += other.Hits
	s.Invalidations += other.Invalidations
}

// cached pairs an analysis value with the IR generation it was computed
// at (valid reports whether it may be served when generations match).
type cached[T any] struct {
	value T
	gen   uint64
	valid bool
}

func (c *cached[T]) get(gen uint64) (T, bool) {
	if c.valid && c.gen == gen {
		return c.value, true
	}
	var zero T
	return zero, false
}

func (c *cached[T]) put(v T, gen uint64) {
	c.value, c.gen, c.valid = v, gen, true
}

// retag extends a currently-valid entry's validity from generation old
// to generation now (a mutation declared not to clobber it).
func (c *cached[T]) retag(old, now uint64) {
	if c.valid && c.gen == old {
		c.gen = now
	}
}

// Manager memoizes the per-procedure dataflow analyses — dominance
// (CFG), liveness and natural loops/regions — keyed by the procedure's
// IR generation counter. It replaces the schedulers' recompute-
// everything-per-trace refresh: analyses are computed lazily on first
// query, served from cache while the IR is unchanged, and selectively
// invalidated when a pass declares what it clobbered.
//
// Contract: every IR mutation (editing Insts, rewiring Succs, adding
// blocks) must be followed by Invalidate with the clobbered kinds, or,
// for an edit of instruction lists only, by InvalidateInsts naming the
// edited blocks, before the next query. Mutations the manager cannot
// see are otherwise only caught if something else bumped the
// generation; these two calls are the choke points passes must use. Preds are maintained here
// too: a structural invalidation recomputes them before any analysis
// runs, so direct Preds consumers stay consistent with the caches.
type Manager struct {
	proc *prog.Proc

	info    cached[*CFGInfo]
	live    cached[*Liveness]
	regions cached[[]*Region]
	// edited lists the blocks whose instruction lists changed since
	// live.value was computed. While it is non-empty live.value is not
	// served; the next query updates it for these blocks alone.
	edited []*prog.Block

	stats ManagerStats
}

// NewManager returns a manager for p with empty caches. It normalizes
// Preds once so both the analyses and direct Preds consumers start from
// a consistent CFG (the scheduler previously did this in its first
// refresh).
func NewManager(p *prog.Proc) *Manager {
	p.RecomputePreds()
	return &Manager{proc: p}
}

// Proc returns the managed procedure.
func (m *Manager) Proc() *prog.Proc { return m.proc }

// Stats returns a snapshot of the recompute/hit counters.
func (m *Manager) Stats() ManagerStats { return m.stats }

// CFG returns orderings and dominance for the current IR, computing
// them only if no generation-valid cache exists.
func (m *Manager) CFG() *CFGInfo {
	gen := m.proc.Generation()
	if v, ok := m.info.get(gen); ok {
		m.stats.Hits++
		return v
	}
	v := Analyze(m.proc)
	m.info.put(v, gen)
	m.stats.CFGComputes++
	return v
}

// Liveness returns live-variable sets for the current IR, computing
// them only if no generation-valid cache exists. After InvalidateInsts
// it rescans only the edited blocks; the update is a new value, equal to
// what ComputeLiveness would return.
func (m *Manager) Liveness() *Liveness {
	gen := m.proc.Generation()
	if v, ok := m.live.get(gen); ok && len(m.edited) == 0 {
		m.stats.Hits++
		return v
	}
	var v *Liveness
	if m.live.valid && m.live.gen == gen {
		v = m.live.value.update(m.proc, m.edited)
	}
	if v == nil {
		v = ComputeLiveness(m.proc)
	}
	m.live.put(v, gen)
	m.edited = m.edited[:0]
	m.stats.LivenessComputes++
	return v
}

// Regions returns the scheduling regions (innermost loops first, then
// the procedure body) for the current IR, computing them only if no
// generation-valid cache exists.
func (m *Manager) Regions() []*Region {
	gen := m.proc.Generation()
	if v, ok := m.regions.get(gen); ok {
		m.stats.Hits++
		return v
	}
	v := Regions(m.CFG())
	m.regions.put(v, gen)
	m.stats.LoopComputes++
	return v
}

// Invalidate declares an IR mutation: the procedure's generation is
// bumped, analyses in clobbered go stale, and every other currently-
// valid cache is retagged to the new generation (the mutation was
// declared not to affect it). A structural clobber (any kind in
// KindStructural) also recomputes Preds immediately, since dominance,
// loops and the schedulers' own edge walks all read them.
func (m *Manager) Invalidate(clobbered AnalysisKind) {
	old := m.proc.Generation()
	m.proc.NoteMutation()
	now := m.proc.Generation()
	m.stats.Invalidations++

	if clobbered&KindCFG != 0 {
		m.info.valid = false
	} else {
		m.info.retag(old, now)
	}
	if clobbered&KindLiveness != 0 {
		m.live.valid = false
	} else {
		m.live.retag(old, now)
	}
	if clobbered&KindLoops != 0 {
		m.regions.valid = false
	} else {
		m.regions.retag(old, now)
	}

	if clobbered&KindStructural != 0 {
		m.proc.RecomputePreds()
	}
}

// InvalidateInsts declares an edit of the named blocks' instruction
// lists, and of nothing else: no edge, no block added or removed. Like
// Invalidate it bumps the generation, and dominance and regions stay
// valid. The next Liveness query recomputes Use and Def for these
// blocks only and copies every other block's from the last result.
func (m *Manager) InvalidateInsts(blocks ...*prog.Block) {
	old := m.proc.Generation()
	m.proc.NoteMutation()
	now := m.proc.Generation()
	m.stats.Invalidations++

	m.info.retag(old, now)
	m.regions.retag(old, now)
	if m.live.valid && m.live.gen == old {
		m.live.gen = now
		m.edited = append(m.edited, blocks...)
	} else {
		m.live.valid = false
	}
}
