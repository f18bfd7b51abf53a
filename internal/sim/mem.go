// Package sim implements the simulators of the reproduction:
//
//   - Run: a reference instruction-level interpreter that executes a
//     prog.Program sequentially (the paper's "instruction-level simulator
//     that verifies that the scheduled code is correct" plays this role,
//     and it also drives the branch profiler);
//   - Exec: a trace-driven cycle simulator that executes machine schedules
//     with full boosting hardware semantics — shadow register file with
//     level counters (paper Figure 7), shadow store buffer, one-bit
//     exception shift buffer, commit/squash at branches, and dispatch to
//     compiler-generated recovery code on boosted exceptions. It runs
//     on the predecoded fast core (Predecode, ExecBatch for lockstep
//     lanes);
//   - ExecOracle: the original interpreter of the same hardware, kept
//     only as the fast core's test oracle.
//
// All of them share the paged memory model and fault taxonomy here.
package sim

import "fmt"

// FaultKind enumerates the architectural exceptions.
type FaultKind uint8

const (
	// FaultNone means no fault.
	FaultNone FaultKind = iota
	// FaultLoad is a load from an unmapped address.
	FaultLoad
	// FaultStore is a store to an unmapped address.
	FaultStore
	// FaultAlign is a misaligned word or halfword access.
	FaultAlign
	// FaultDivZero is an integer division by zero.
	FaultDivZero
)

// String names the fault kind.
func (k FaultKind) String() string {
	switch k {
	case FaultNone:
		return "none"
	case FaultLoad:
		return "load-fault"
	case FaultStore:
		return "store-fault"
	case FaultAlign:
		return "align-fault"
	case FaultDivZero:
		return "div-zero"
	}
	return "?"
}

// Fault describes an architectural exception.
type Fault struct {
	Kind FaultKind
	// Addr is the faulting address for memory faults.
	Addr uint32
	// Proc and Block locate the faulting instruction.
	Proc  string
	Block int
	// InstID is the stable identity of the faulting instruction.
	InstID int
	// Boosted reports whether the fault was raised by a boosted
	// instruction (and therefore postponed).
	Boosted bool
}

// Error implements the error interface.
func (f *Fault) Error() string {
	return fmt.Sprintf("%s at addr %#x (proc %s block %d inst %d, boosted=%v)",
		f.Kind, f.Addr, f.Proc, f.Block, f.InstID, f.Boosted)
}

const pageSize = 4096

type page [pageSize]byte

// Memory is a paged sparse memory. Accesses to unmapped pages fault;
// Map makes pages accessible.
type Memory struct {
	pages map[uint32]*page
}

// NewMemory returns an empty memory.
func NewMemory() *Memory { return &Memory{pages: map[uint32]*page{}} }

// Map makes [addr, addr+size) accessible (zero-filled), rounding outward
// to page boundaries.
func (m *Memory) Map(addr, size uint32) {
	if size == 0 {
		return
	}
	first := addr / pageSize
	last := (addr + size - 1) / pageSize
	for p := first; ; p++ {
		if m.pages[p] == nil {
			m.pages[p] = new(page)
		}
		if p == last {
			break
		}
	}
}

// Mapped reports whether addr is accessible.
func (m *Memory) Mapped(addr uint32) bool { return m.pages[addr/pageSize] != nil }

// WriteBytes copies bs to addr, mapping pages as needed (loader use only).
func (m *Memory) WriteBytes(addr uint32, bs []byte) {
	m.Map(addr, uint32(len(bs)))
	for i, b := range bs {
		a := addr + uint32(i)
		m.pages[a/pageSize][a%pageSize] = b
	}
}

// LoadByte reads one byte; ok=false on unmapped address.
func (m *Memory) LoadByte(addr uint32) (byte, bool) {
	p := m.pages[addr/pageSize]
	if p == nil {
		return 0, false
	}
	return p[addr%pageSize], true
}

// StoreByte writes one byte; ok=false on unmapped address.
func (m *Memory) StoreByte(addr uint32, v byte) bool {
	p := m.pages[addr/pageSize]
	if p == nil {
		return false
	}
	p[addr%pageSize] = v
	return true
}

// Load reads size (1, 2 or 4) bytes little-endian.
func (m *Memory) Load(addr uint32, size int) (uint32, bool) {
	var v uint32
	for i := 0; i < size; i++ {
		b, ok := m.LoadByte(addr + uint32(i))
		if !ok {
			return 0, false
		}
		v |= uint32(b) << (8 * uint(i))
	}
	return v, true
}

// Store writes size (1, 2 or 4) bytes little-endian.
func (m *Memory) Store(addr uint32, size int, v uint32) bool {
	for i := 0; i < size; i++ {
		if !m.StoreByte(addr+uint32(i), byte(v>>(8*uint(i)))) {
			return false
		}
	}
	return true
}

// Snapshot returns a deterministic digest of memory contents, used by
// tests to compare final states. It XOR-folds address/value pairs, which
// is order-independent and cheap.
func (m *Memory) Snapshot() uint64 {
	var h uint64
	for pn, p := range m.pages {
		for i, b := range p {
			if b != 0 {
				a := uint64(pn)*pageSize + uint64(i)
				h ^= (a + 0x9E3779B97F4A7C15) * uint64(b)
			}
		}
	}
	return h
}
