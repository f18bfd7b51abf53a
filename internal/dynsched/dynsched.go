// Package dynsched implements the paper's dynamically-scheduled
// superscalar comparison machine (§4.3.2): a trace-driven timing model of
// an out-of-order processor that is functionally equivalent to the base
// 2-issue superscalar.
//
// Parameters follow the paper: it "fetches and decodes two instructions
// per cycle. It uses a total of 30 reservation station locations and a
// 16-entry reorder buffer to implement out-of-order execution with
// speculation, and it uses a 2048-entry, 4-way set associative branch
// target buffer to predict branches. It has the same number of functional
// units as our statically-scheduled machine, but since the
// dynamically-scheduled machine uses reservation stations, it can issue up
// to 6 instructions per cycle."
//
// The lower/upper bars of Figure 9 correspond to Renaming=false/true:
// without register renaming at most one in-flight producer per
// architectural register is allowed (write-after-write stalls dispatch);
// with renaming, reservation stations carry tags and any number of defs
// may be in flight.
//
// A dynamic instruction costs no heap allocation and no map operation.
// Its opcode is decoded once, through a 256-entry table built from isa's
// own definitions, into a compact record written in place into a
// fixed-size ring indexed by trace sequence number. The reorder buffer and
// the fetch queue are two adjacent windows of that ring, so dispatch moves
// nothing, and each register's newest producer lives in a dense table
// indexed by register number. docs/SIMCORE.md ("Dynamic machine") covers
// the layout and why the bounded fetch queue leaves every timing
// unchanged.
package dynsched

import (
	"fmt"
	"math/bits"

	"boosting/internal/isa"
	"boosting/internal/memhier"
	"boosting/internal/prog"
	"boosting/internal/sim"
)

// Config parameterizes the machine. The zero value is invalid; use
// Default().
type Config struct {
	FetchWidth  int // instructions fetched/decoded/dispatched per cycle
	RetireWidth int // instructions retired per cycle
	NumRS       int // total reservation station entries
	ROBSize     int // reorder buffer entries
	BTBSets     int // branch target buffer sets
	BTBWays     int // branch target buffer associativity
	Renaming    bool
	// MaxCycles bounds the simulation (0 = 2G cycles). A run that has not
	// drained by then is an error.
	MaxCycles int64
	// Mem, if non-nil, models a finite memory hierarchy; misses extend
	// memory-operation latency. A fresh hierarchy is built per run.
	Mem *memhier.Config
}

// Default returns the paper's configuration (without renaming).
func Default() Config {
	return Config{
		FetchWidth:  2,
		RetireWidth: 2,
		NumRS:       30,
		ROBSize:     16,
		BTBSets:     512,
		BTBWays:     4,
	}
}

// Result reports the timing outcome.
type Result struct {
	Cycles      int64
	Insts       int64
	Branches    int64
	Mispredicts int64
	// MemStalls counts extra latency cycles charged by the memory
	// hierarchy; Mem holds its counters (nil with perfect memory).
	MemStalls int64
	Mem       *memhier.Stats
	// Out and MemHash come from the functional execution that produced
	// the trace (the timing model does not change semantics).
	Out     []uint32
	MemHash uint64
}

// Simulate runs the program functionally and feeds its dynamic instruction
// stream through the out-of-order timing model.
func Simulate(pr *prog.Program, cfg Config) (*Result, error) {
	if cfg.FetchWidth == 0 {
		return nil, fmt.Errorf("dynsched: zero config; use Default()")
	}
	if cfg.ROBSize > 64 {
		return nil, fmt.Errorf("dynsched: ROBSize %d exceeds the 64-entry scoreboard window", cfg.ROBSize)
	}
	p := newPipeline(cfg)
	for _, proc := range pr.ProcList() {
		p.reserveRegs(proc.MaxReg())
	}
	if cfg.Mem != nil {
		mh, err := memhier.New(*cfg.Mem)
		if err != nil {
			return nil, fmt.Errorf("dynsched: %w", err)
		}
		p.mh = mh
	}
	ref, err := sim.Run(pr, sim.RefConfig{OnInst: p.feed})
	if err != nil {
		return nil, fmt.Errorf("dynsched: functional run: %w", err)
	}
	p.drainAll()
	if p.dropped || p.tail != p.head {
		return nil, fmt.Errorf("dynsched: exceeded %d cycles", p.maxCycles)
	}
	res := p.result()
	res.Out = ref.Out
	res.MemHash = ref.MemHash
	return res, nil
}

// Register operand fields an opcode reads or writes. The values double as
// the register numbers of the probe instruction buildOpTable decodes, so
// isa's Defs and Uses report fields directly.
const (
	fieldNone = iota // no operand (R0)
	fieldRd
	fieldRs
	fieldRt
)

// Opcode flags.
const (
	flagLoad = 1 << iota
	flagStore
	flagCondBranch
	flagJR
)

// opInfo is everything the timing model needs to know about an opcode.
type opInfo struct {
	latency int64
	class   isa.Class
	size    uint8    // memory access size in bytes (0 for non-memory ops)
	flags   uint8    // flagLoad, flagStore, flagCondBranch, flagJR
	def     uint8    // field written (fieldNone if none)
	uses    [2]uint8 // fields read, in isa.Inst.Uses order
}

// opTable decodes every opcode byte once.
var opTable = buildOpTable()

// buildOpTable derives each opcode's entry from isa's own functions, so
// isa stays the single source of truth: Defs and Uses on a probe
// instruction whose Rd, Rs and Rt are the field codes, ClassOf, Latency
// and the load/store/branch predicates.
func buildOpTable() (t [256]opInfo) {
	var tmp []isa.Reg
	for i := range t {
		op := isa.Op(i)
		info := &t[i]
		info.latency = int64(isa.Latency(op))
		info.class = isa.ClassOf(op)
		info.size = memSize(op)
		if isa.IsLoad(op) {
			info.flags |= flagLoad
		}
		if isa.IsStore(op) {
			info.flags |= flagStore
		}
		if isa.IsCondBranch(op) {
			info.flags |= flagCondBranch
		}
		if op == isa.JR {
			info.flags |= flagJR
		}
		probe := isa.Inst{Op: op, Rd: fieldRd, Rs: fieldRs, Rt: fieldRt}
		if tmp = probe.Defs(tmp[:0]); len(tmp) > 0 {
			info.def = uint8(tmp[0])
		}
		for j, r := range probe.Uses(tmp[:0]) {
			if j < len(info.uses) {
				info.uses[j] = uint8(r)
			}
		}
	}
	return t
}

func memSize(op isa.Op) uint8 {
	switch op {
	case isa.LW, isa.SW:
		return 4
	case isa.LH, isa.LHU, isa.SH:
		return 2
	case isa.LB, isa.LBU, isa.SB:
		return 1
	}
	return 0
}

// rec is one dynamic instruction: what feed decodes from the trace, plus
// its pipeline state once dispatched.
type rec struct {
	deps    uint64     // producer mask: ROB positions this entry waits on
	doneAt  int64      // cycle the result is available (issued entries)
	id      int        // static instruction ID (the "PC" for the BTB)
	nextID  int        // dynamic target ID for JR
	addr    uint32     // effective address of a load or store
	dst     isa.Reg    // register written (R0 = none)
	srcs    [2]isa.Reg // registers read (R0 = none)
	op      isa.Op
	taken   bool // conditional branch outcome
	mispred bool
}

// pipeline is the out-of-order machine state.
//
// Every traced instruction lives in ring, at its trace sequence number
// modulo the ring's power-of-two size, from the moment feed decodes it
// until it retires. [head, dispatched) is the reorder buffer, oldest
// first, and [dispatched, tail) is the fetch queue; dispatch advances the
// boundary between them and retirement advances head. The window never
// spans more than ROBSize + fetchBound + 1 entries, which the ring covers.
//
// Ready/wakeup tracking is a bitmap scoreboard over ROB positions (bit i
// = sequence number head+i, bit 0 = oldest; the window is capped at 64
// entries). Each entry carries a one-word producer mask (rec.deps) and
// the pipeline keeps one-word occupancy bitmaps; an entry is ready
// exactly when deps &^ done == 0, a producer's completion wakes every
// dependent with a single OR into the done bitmap, and issue selection
// walks the ready bitmap oldest-first with find-first-set. Retirement
// shifts every bitmap right, so positions stay age-ordered and retired
// producers drain out of the masks for free.
type pipeline struct {
	cfg   Config
	cycle int64

	ring                   []rec
	mask                   int64 // len(ring) - 1
	head, dispatched, tail int64 // sequence-number window bounds
	// fetchBound caps the fetch queue: feed advances the machine while
	// more than fetchBound instructions wait to dispatch.
	fetchBound int64

	// Scoreboard bitmaps over ROB positions.
	issuedM uint64 // issued (execution started)
	doneM   uint64 // result available (doneAt <= current cycle)
	storeM  uint64 // stores
	memM    uint64 // loads and stores
	muldivM uint64 // multiply/divide entries (non-pipelined unit)

	// producer holds, per register, the sequence number of its newest
	// dispatched def, or -1. Retirement is in order, so that def is still
	// in flight exactly when the number is >= head, and then so is every
	// in-flight def of the register: the no-renaming WAW check and the
	// operand lookup both read this one entry.
	producer []int64

	rsUsed    int
	btb       *btb
	mh        *memhier.Hierarchy
	memStalls int64

	// fetchBlockedBy is the sequence number of an unresolved mispredicted
	// branch (fetch stalls until it resolves), or -1.
	fetchBlockedBy int64

	// dropped records that feed discarded trace instructions because the
	// run had already reached maxCycles.
	dropped bool

	branches    int64
	mispredicts int64
	maxCycles   int64
}

// fetchQueueMin is the smallest fetch-queue bound. Any bound of at least
// FetchWidth gives identical timing (see feed); a larger one only batches
// the switches between the functional run and the timing model.
const fetchQueueMin = 32

func newPipeline(cfg Config) *pipeline {
	mc := cfg.MaxCycles
	if mc == 0 {
		mc = 2_000_000_000
	}
	bound := max(cfg.FetchWidth, fetchQueueMin)
	size := 1 << bits.Len(uint(max(cfg.ROBSize, 0)+bound)) // > ROBSize+bound
	p := &pipeline{
		cfg:            cfg,
		ring:           make([]rec, size),
		mask:           int64(size - 1),
		fetchBound:     int64(bound),
		btb:            newBTB(cfg.BTBSets, cfg.BTBWays),
		fetchBlockedBy: -1,
		maxCycles:      mc,
	}
	p.reserveRegs(isa.NumArchRegs - 1)
	return p
}

// reserveRegs grows the producer table to cover register r. Simulate
// sizes it from the program up front; feed grows it on demand for
// instruction streams that come without a program.
func (p *pipeline) reserveRegs(r isa.Reg) {
	for int(r) >= len(p.producer) {
		p.producer = append(p.producer, -1)
	}
}

// at returns the ROB entry at position i (0 = oldest).
func (p *pipeline) at(i int) *rec {
	return &p.ring[(p.head+int64(i))&p.mask]
}

// robLen is the number of dispatched, unretired instructions.
func (p *pipeline) robLen() int { return int(p.dispatched - p.head) }

// feed decodes one traced instruction into the tail of the fetch queue,
// then advances the machine while the queue holds more than fetchBound
// instructions. Dispatch reads only the queue's head and takes at most
// FetchWidth <= fetchBound instructions a cycle, so no cycle stepped here
// ever finds the queue short: every cycle sees what it would with the
// whole trace queued, and the timing is independent of the bound. Once
// the run reaches maxCycles the rest of the trace is dropped.
func (p *pipeline) feed(ev sim.InstEvent) {
	if p.cycle >= p.maxCycles {
		p.dropped = true
		return
	}
	in := ev.Inst
	info := &opTable[in.Op]
	fields := [4]isa.Reg{isa.R0, in.Rd, in.Rs, in.Rt}
	// Field by field rather than from a composite literal, which the
	// compiler builds on the stack and copies in wide words that stall on
	// store forwarding.
	e := &p.ring[p.tail&p.mask]
	e.deps, e.doneAt, e.mispred = 0, 0, false
	e.id, e.nextID, e.addr = in.ID, ev.NextID, ev.Addr
	e.dst = fields[info.def]
	e.srcs[0], e.srcs[1] = fields[info.uses[0]], fields[info.uses[1]]
	e.op, e.taken = in.Op, ev.Taken
	if r := max(e.dst, e.srcs[0], e.srcs[1]); int(r) >= len(p.producer) {
		p.reserveRegs(r)
	}
	p.tail++
	for p.tail-p.dispatched > p.fetchBound && p.cycle < p.maxCycles {
		p.step()
	}
}

// drainAll runs the pipeline until empty (or out of cycles).
func (p *pipeline) drainAll() {
	for p.tail != p.head && p.cycle < p.maxCycles {
		p.step()
	}
}

func (p *pipeline) result() *Result {
	r := &Result{
		Cycles:      p.cycle,
		Insts:       p.dispatched,
		Branches:    p.branches,
		Mispredicts: p.mispredicts,
		MemStalls:   p.memStalls,
	}
	if p.mh != nil {
		stats := p.mh.Stats()
		r.Mem = &stats
	}
	return r
}

// step advances one cycle: retire, issue/execute, dispatch.
func (p *pipeline) step() {
	p.retire()
	p.issue()
	p.dispatch()
	p.cycle++
}

// retire removes completed instructions in order, up to RetireWidth,
// then shifts the scoreboard bitmaps so bit 0 is the new oldest entry.
// Retired producers thereby drain out of every waiter's deps mask.
func (p *pipeline) retire() {
	n := 0
	for n < p.cfg.RetireWidth && n < p.robLen() {
		if p.doneM>>uint(n)&1 == 0 || p.at(n).doneAt > p.cycle {
			break
		}
		n++
	}
	if n == 0 {
		return
	}
	p.head += int64(n)
	p.issuedM >>= uint(n)
	p.doneM >>= uint(n)
	p.storeM >>= uint(n)
	p.memM >>= uint(n)
	p.muldivM >>= uint(n)
	for s := p.head; s < p.dispatched; s++ {
		p.ring[s&p.mask].deps >>= uint(n)
	}
}

// fuState tracks per-cycle functional unit availability. The FU mix
// matches the static machine: 2 integer ALUs, 1 shifter, 1 multiply/divide
// unit, 1 memory port, 1 branch unit. ALU/shift/mem/branch are pipelined;
// multiply/divide is not.
type fuState struct {
	alu, shift, mem, branch int
}

// issue starts execution of ready reservation-station entries: the
// completion sweep folds finished producers into the done bitmap (one OR
// wakes every dependent), readiness is one AND per unissued entry, and
// selection walks the ready bitmap oldest-first via find-first-set.
func (p *pipeline) issue() {
	// Completion sweep over issued-but-pending entries.
	for m := p.issuedM &^ p.doneM; m != 0; m &= m - 1 {
		i := bits.TrailingZeros64(m)
		e := p.at(i)
		if e.doneAt <= p.cycle {
			p.doneM |= 1 << uint(i)
			if e.mispred && p.fetchBlockedBy == p.head+int64(i) {
				p.fetchBlockedBy = -1 // redirect complete; fetch resumes
			}
		}
	}
	// Busy horizon of the non-pipelined multiply/divide unit.
	var muldivBusy int64 = -1
	for m := p.muldivM & p.issuedM &^ p.doneM; m != 0; m &= m - 1 {
		if e := p.at(bits.TrailingZeros64(m)); e.doneAt > muldivBusy {
			muldivBusy = e.doneAt
		}
	}
	// Ready = dispatched, unissued, every producer drained from deps
	// (retired producers shifted out at retire, finished ones in doneM).
	var ready uint64
	for m := p.activeM() &^ p.issuedM; m != 0; m &= m - 1 {
		i := bits.TrailingZeros64(m)
		if p.at(i).deps&^p.doneM == 0 {
			ready |= 1 << uint(i)
		}
	}
	fu := fuState{}
	for m := ready; m != 0; m &= m - 1 {
		i := bits.TrailingZeros64(m)
		e := p.at(i)
		info := &opTable[e.op]
		older := uint64(1)<<uint(i) - 1
		// Memory ordering: a load may not issue before every earlier
		// store has executed (addresses unknown until then); a store may
		// not issue before earlier memory operations to overlapping
		// addresses have issued.
		if info.flags&flagLoad != 0 && !p.earlierStoresDone(older, e) {
			continue
		}
		if info.flags&flagStore != 0 && !p.earlierMemIssued(older, e) {
			continue
		}
		// Functional unit availability.
		switch info.class {
		case isa.ClassALU, isa.ClassNone:
			if fu.alu >= 2 {
				continue
			}
			fu.alu++
		case isa.ClassShift:
			if fu.shift >= 1 {
				continue
			}
			fu.shift++
		case isa.ClassMem:
			if fu.mem >= 1 {
				continue
			}
			fu.mem++
		case isa.ClassBranch:
			if fu.branch >= 1 {
				continue
			}
			fu.branch++
		case isa.ClassMulDiv:
			if muldivBusy > p.cycle {
				continue
			}
			muldivBusy = p.cycle + info.latency
		}
		p.issuedM |= 1 << uint(i)
		e.doneAt = p.cycle + info.latency
		if info.flags&(flagLoad|flagStore) != 0 && p.mh != nil {
			s := p.mh.Access(p.cycle, e.id, e.addr, info.flags&flagStore != 0)
			e.doneAt += s
			p.memStalls += s
		}
		p.rsUsed--
	}
}

// activeM is the occupancy bitmap: one bit per current ROB entry.
func (p *pipeline) activeM() uint64 {
	if n := p.robLen(); n < 64 {
		return uint64(1)<<uint(n) - 1
	}
	return ^uint64(0)
}

// earlierStoresDone reports whether all stores in older (a position
// bitmap) have issued and produced their addresses, and forwards
// conservatively: the load must also wait for an overlapping older
// store's completion.
func (p *pipeline) earlierStoresDone(older uint64, e *rec) bool {
	if p.storeM&older&^p.issuedM != 0 {
		return false // an older store has not produced its address
	}
	// Issued-but-pending older stores block only on address overlap.
	for m := p.storeM & older &^ p.doneM; m != 0; m &= m - 1 {
		if overlaps(p.at(bits.TrailingZeros64(m)), e) {
			return false
		}
	}
	return true
}

// earlierMemIssued reports whether all older overlapping memory operations
// have issued (write-after-read and write-after-write ordering).
func (p *pipeline) earlierMemIssued(older uint64, e *rec) bool {
	for m := p.memM & older &^ p.issuedM; m != 0; m &= m - 1 {
		if overlaps(p.at(bits.TrailingZeros64(m)), e) {
			return false
		}
	}
	return true
}

func overlaps(a, b *rec) bool {
	return a.addr < b.addr+uint32(opTable[b.op].size) && b.addr < a.addr+uint32(opTable[a.op].size)
}

// dispatch moves instructions from the fetch queue into the ROB and
// reservation stations, up to FetchWidth per cycle, respecting structural
// limits, the no-renaming WAW restriction, and mispredict fetch stalls.
// The queue's head becomes the ROB's newest entry where it stands.
func (p *pipeline) dispatch() {
	for n := 0; n < p.cfg.FetchWidth; n++ {
		if p.dispatched == p.tail || p.fetchBlockedBy >= 0 {
			return
		}
		if p.robLen() >= p.cfg.ROBSize || p.rsUsed >= p.cfg.NumRS {
			return
		}
		seq := p.dispatched
		e := &p.ring[seq&p.mask]
		if !p.cfg.Renaming && e.dst != isa.R0 && p.producer[e.dst] >= p.head {
			return // WAW: wait for the previous def of this register
		}
		p.dispatched++

		// Source operands: a producer still in flight is one bit in the
		// entry's producer mask; a producer whose result is already
		// available contributes nothing.
		for _, s := range e.srcs {
			if s == isa.R0 {
				continue
			}
			if q := p.producer[s]; q >= p.head {
				if pos := uint(q - p.head); p.doneM>>pos&1 == 0 {
					e.deps |= 1 << pos
				}
			}
		}
		if e.dst != isa.R0 {
			p.producer[e.dst] = seq
		}

		// Branch prediction.
		info := &opTable[e.op]
		if info.flags&flagCondBranch != 0 {
			p.branches++
			pred := p.btb.predictCond(e.id)
			p.btb.updateCond(e.id, e.taken)
			if pred != e.taken {
				p.mispredicts++
				e.mispred = true
				p.fetchBlockedBy = seq
			}
		} else if info.flags&flagJR != 0 {
			target, hit := p.btb.predictTarget(e.id)
			p.btb.updateTarget(e.id, e.nextID)
			if !hit || target != e.nextID {
				p.mispredicts++
				e.mispred = true
				p.fetchBlockedBy = seq
			}
		}

		bit := uint64(1) << uint(seq-p.head)
		if info.flags&flagStore != 0 {
			p.storeM |= bit
		}
		if info.flags&(flagLoad|flagStore) != 0 {
			p.memM |= bit
		}
		if info.class == isa.ClassMulDiv {
			p.muldivM |= bit
		}
		p.rsUsed++
	}
}

// btb is a set-associative branch target buffer with 2-bit counters.
type btb struct {
	sets    int
	ways    int
	entries []btbEntry // set-major: entries[set*ways+way]
	tick    int64
}

type btbEntry struct {
	tag     int // branch PC, -1 when empty
	target  int
	lru     int64
	counter uint8
}

func newBTB(sets, ways int) *btb {
	b := &btb{sets: sets, ways: ways, entries: make([]btbEntry, sets*ways)}
	for i := range b.entries {
		b.entries[i].tag = -1
	}
	return b
}

// set returns pc's set.
func (b *btb) set(pc int) []btbEntry {
	s := pc % b.sets * b.ways
	return b.entries[s : s+b.ways]
}

// find returns pc's entry, or nil on a miss.
func (b *btb) find(pc int) *btbEntry {
	set := b.set(pc)
	for w := range set {
		if set[w].tag == pc {
			return &set[w]
		}
	}
	return nil
}

// predictCond predicts a conditional branch: taken iff the 2-bit counter
// is ≥ 2; a miss predicts not-taken.
func (b *btb) predictCond(pc int) bool {
	if e := b.find(pc); e != nil {
		return e.counter >= 2
	}
	return false
}

// updateCond trains the counter (allocating on first sight).
func (b *btb) updateCond(pc int, taken bool) {
	e := b.allocate(pc)
	if taken && e.counter < 3 {
		e.counter++
	}
	if !taken && e.counter > 0 {
		e.counter--
	}
	e.lru = b.tick
	b.tick++
}

// predictTarget predicts an indirect target by last-seen target.
func (b *btb) predictTarget(pc int) (int, bool) {
	if e := b.find(pc); e != nil {
		return e.target, true
	}
	return 0, false
}

// updateTarget records the latest indirect target.
func (b *btb) updateTarget(pc, target int) {
	e := b.allocate(pc)
	e.target = target
	e.lru = b.tick
	b.tick++
}

// allocate returns pc's entry, evicting the set's LRU way on a miss.
func (b *btb) allocate(pc int) *btbEntry {
	if e := b.find(pc); e != nil {
		return e
	}
	set := b.set(pc)
	victim := 0
	for w := 1; w < len(set); w++ {
		if set[w].lru < set[victim].lru {
			victim = w
		}
	}
	set[victim] = btbEntry{tag: pc, counter: 1, lru: b.tick} // weakly not-taken
	b.tick++
	return &set[victim]
}
