package sim

import (
	"fmt"

	"boosting/internal/isa"
	"boosting/internal/machine"
)

// shadowFile models the boosting shadow register file for the oracle
// interpreter (ExecOracle); the fast core's dense form is fastShadow.
// Each register may hold uncommitted boosted values, one per outstanding
// boosting level.
//
//   - Full/multi-shadow hardware (Boost7, paper §4.1): every level has its
//     own physical location, implemented there with register/counter pools;
//     here as a per-register list of (level, value) entries.
//   - Single-shadow hardware (Boost1/MinBoost3, Option 2 / Figure 7): one
//     shadow location per register with a level counter. At most one
//     uncommitted boosted value per register may exist; the scheduler must
//     honor the resulting output-like dependence, and this model *checks*
//     the constraint, reporting a hardware-conflict error on violation.
type shadowFile struct {
	cfg machine.BoostConfig
	// entries[r] holds outstanding boosted values of register r, sorted
	// by ascending level, at most one entry per level.
	entries map[isa.Reg][]shadowEntry
}

type shadowEntry struct {
	level int
	val   uint32
}

func newShadowFile(cfg machine.BoostConfig) *shadowFile {
	return &shadowFile{cfg: cfg, entries: map[isa.Reg][]shadowEntry{}}
}

// write records a boosted def of r at the given level.
func (s *shadowFile) write(r isa.Reg, level int, v uint32) error {
	if level <= 0 || level > s.cfg.MaxLevel {
		return fmt.Errorf("shadow write level %d outside hardware range 1..%d", level, s.cfg.MaxLevel)
	}
	if r == isa.R0 {
		return nil
	}
	es := s.entries[r]
	if !s.cfg.MultiShadow {
		// Single shadow location: any outstanding entry at a *different*
		// level is a conflict the hardware cannot represent.
		for _, e := range es {
			if e.level != level {
				return fmt.Errorf("single-shadow conflict on %s: outstanding level %d, new level %d",
					r, e.level, level)
			}
		}
	}
	for i := range es {
		if es[i].level == level {
			es[i].val = v // newest same-level def wins
			return nil
		}
	}
	es = append(es, shadowEntry{level, v})
	// Keep sorted by level (lists are tiny).
	for i := len(es) - 1; i > 0 && es[i].level < es[i-1].level; i-- {
		es[i], es[i-1] = es[i-1], es[i]
	}
	s.entries[r] = es
	return nil
}

// read returns the value of r as seen by an instruction boosted to the
// given level: the outstanding shadow value with the largest level ≤
// level, or ok=false if the sequential value should be used. Sequential
// instructions (level 0) never see shadow state.
func (s *shadowFile) read(r isa.Reg, level int) (uint32, bool) {
	if level <= 0 {
		return 0, false
	}
	es := s.entries[r]
	for i := len(es) - 1; i >= 0; i-- {
		if es[i].level <= level {
			return es[i].val, true
		}
	}
	return 0, false
}

// commit processes a correctly predicted branch: level-1 entries move to
// the sequential register file (via the apply callback) and deeper entries
// decrement. Commit order across registers is irrelevant because at most
// one committed value exists per register.
func (s *shadowFile) commit(apply func(r isa.Reg, v uint32)) {
	for r, es := range s.entries {
		out := es[:0]
		for _, e := range es {
			if e.level == 1 {
				apply(r, e.val)
			} else {
				e.level--
				out = append(out, e)
			}
		}
		if len(out) == 0 {
			delete(s.entries, r)
		} else {
			s.entries[r] = out
		}
	}
}

// squash discards all speculative register state (incorrect prediction or
// boosted-exception recovery).
func (s *shadowFile) squash() {
	for r := range s.entries {
		delete(s.entries, r)
	}
}

// outstanding reports whether any speculative register state exists.
func (s *shadowFile) outstanding() bool { return len(s.entries) > 0 }

// storeBuffer models the shadow store buffer holding boosted stores until
// their dependent branches commit. Entries preserve program (execution)
// order within and across levels; commit applies level-1 entries to memory
// in order.
type storeBuffer struct {
	entries []storeEntry
	// cap bounds the number of simultaneously buffered stores
	// (0 = unbounded). Real hardware has a small fixed buffer; the
	// checked model reports overflow instead of silently dropping.
	cap int
}

type storeEntry struct {
	level int
	addr  uint32
	size  int
	val   uint32
}

// write buffers a boosted store, reporting a hardware conflict when a
// finite buffer is already full.
func (sb *storeBuffer) write(level int, addr uint32, size int, val uint32) error {
	if sb.cap > 0 && len(sb.entries) >= sb.cap {
		return fmt.Errorf("shadow store buffer overflow: %d entries outstanding (capacity %d)",
			len(sb.entries), sb.cap)
	}
	sb.entries = append(sb.entries, storeEntry{level, addr, size, val})
	return nil
}

// read services a boosted load at the given level. Forwarding is resolved
// byte-wise: each byte comes from the newest buffered store with level ≤
// level covering it, falling back to memory, so partially overlapping
// stores still yield a coherent view.
func (sb *storeBuffer) read(level int, addr uint32, size int, mem *Memory) (uint32, bool) {
	var v uint32
	for i := 0; i < size; i++ {
		b, ok := sb.readByte(level, addr+uint32(i), mem)
		if !ok {
			return 0, false
		}
		v |= uint32(b) << (8 * uint(i))
	}
	return v, true
}

// readByte returns one byte as seen by a level-bounded speculative load.
func (sb *storeBuffer) readByte(level int, addr uint32, mem *Memory) (byte, bool) {
	for i := len(sb.entries) - 1; i >= 0; i-- {
		e := &sb.entries[i]
		if e.level <= level && addr >= e.addr && addr < e.addr+uint32(e.size) {
			return byte(e.val >> (8 * (addr - e.addr))), true
		}
	}
	return mem.LoadByte(addr)
}

// commit applies level-1 entries to memory in buffer order and decrements
// the rest. It reports a store fault if a committed store hits an unmapped
// page — at commit time the branch has resolved, so the fault is precise.
// onStore, if non-nil, observes each committed write.
func (sb *storeBuffer) commit(mem *Memory, onStore func(addr uint32, size int, val uint32)) *Fault {
	out := sb.entries[:0]
	for _, e := range sb.entries {
		if e.level == 1 {
			if !mem.Store(e.addr, e.size, e.val) {
				sb.entries = out
				return &Fault{Kind: FaultStore, Addr: e.addr}
			}
			if onStore != nil {
				onStore(e.addr, e.size, e.val)
			}
		} else {
			e.level--
			out = append(out, e)
		}
	}
	sb.entries = out
	return nil
}

// squash discards all buffered stores.
func (sb *storeBuffer) squash() { sb.entries = sb.entries[:0] }

// outstanding reports whether any buffered stores exist.
func (sb *storeBuffer) outstanding() bool { return len(sb.entries) > 0 }

// exceptionBuffer is the paper's one-bit shift buffer: bit n is set when a
// boosted instruction of level n raises an exception. A correct prediction
// shifts the buffer and exposes the out-shifted bit; an incorrect
// prediction clears it.
type exceptionBuffer struct {
	bits []bool // index 1..MaxLevel used
}

func newExceptionBuffer(maxLevel int) *exceptionBuffer {
	return &exceptionBuffer{bits: make([]bool, maxLevel+1)}
}

// set records a postponed exception at the given level.
func (e *exceptionBuffer) set(level int) { e.bits[level] = true }

// shift performs the commit-time shift and returns the out-shifted bit.
func (e *exceptionBuffer) shift() bool {
	out := false
	if len(e.bits) > 1 {
		out = e.bits[1]
		copy(e.bits[1:], e.bits[2:])
		e.bits[len(e.bits)-1] = false
	}
	return out
}

// clear wipes the buffer (incorrect prediction).
func (e *exceptionBuffer) clear() {
	for i := range e.bits {
		e.bits[i] = false
	}
}
