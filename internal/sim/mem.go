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
//     on the predecoded fast core (Predecode);
//   - ExecOracle: the original interpreter of the same hardware, kept
//     only as the fast core's test oracle.
//
// All of them share the paged memory model and fault taxonomy here.
package sim

import (
	"encoding/binary"
	"fmt"

	"boosting/internal/prog"
)

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

// numPages is the number of pages in the 32-bit address space.
const numPages = (1 << 32) / pageSize

type page [pageSize]byte

// zeroPage backs every BSS and stack page a run has not written. All runs
// share it and none writes it: a store copies it first.
var zeroPage page

// pageRange is an inclusive range of page numbers.
type pageRange struct{ lo, hi uint32 }

// Image is a program's initial memory: the data segment in pages, and the
// BSS and the stack as ranges of pages that read as zero. It is immutable
// once built, so every run of the program — concurrent Exec calls
// included — reads the same pages, and a run copies a page
// only on its first write to it. digest is the image's Snapshot.
type Image struct {
	pages  map[uint32]*page
	zero   []pageRange
	digest uint64
}

// noImage is the empty image behind NewMemory.
var noImage = &Image{}

// newImage builds pr's initial memory: Data at DataBase, BSS+4 zero bytes
// after it, and StackSize zero bytes below StackTop.
func newImage(pr *prog.Program) *Image {
	img := &Image{pages: map[uint32]*page{}}
	for off := 0; off < len(pr.Data); {
		a := prog.DataBase + uint32(off)
		p := new(page)
		off += copy(p[a%pageSize:], pr.Data[off:])
		img.pages[a/pageSize] = p
		img.digest ^= foldPage(a/pageSize, p)
	}
	if pr.BSS > 0 {
		img.addZero(prog.DataBase+uint32(len(pr.Data)), uint32(pr.BSS)+4)
	}
	img.addZero(prog.StackTop-prog.StackSize, prog.StackSize)
	return img
}

// addZero adds the pages of [addr, addr+size) as a zero range, rounding
// outward to page boundaries as Map does; a range that runs past the top
// of the address space wraps to page zero.
func (img *Image) addZero(addr, size uint32) {
	if size == 0 {
		return
	}
	first, last := addr/pageSize, (addr+size-1)/pageSize
	if last < first {
		img.zero = append(img.zero, pageRange{first, numPages - 1})
		first = 0
	}
	img.zero = append(img.zero, pageRange{first, last})
}

// inZero reports whether page pn lies in a zero range.
func (img *Image) inZero(pn uint32) bool {
	for _, r := range img.zero {
		if pn >= r.lo && pn <= r.hi {
			return true
		}
	}
	return false
}

// newMemory returns a run's memory over img. Its page table starts with
// the image's data pages, not owned; BSS and stack pages stay ranges.
func (img *Image) newMemory() *Memory {
	m := &Memory{img: img, pages: make(map[uint32]pte, len(img.pages))}
	for pn, p := range img.pages {
		m.pages[pn] = pte{p: p}
	}
	return m
}

// pte is one page-table entry of a run's memory.
type pte struct {
	p *page
	// own means the run may write p in place. Otherwise p belongs to the
	// image and a store copies it first.
	own bool
}

// Memory is one run's view of a paged sparse memory: an Image plus the
// pages the run has written or mapped. Accesses to unmapped pages fault;
// Map makes pages accessible.
type Memory struct {
	img   *Image
	pages map[uint32]pte
}

// NewMemory returns an empty memory.
func NewMemory() *Memory { return noImage.newMemory() }

// lookup resolves page pn for reading: the run's page table entry, else
// the shared zero page if pn lies in a zero range. ok=false means pn is
// unmapped.
func (m *Memory) lookup(pn uint32) (p *page, own, ok bool) {
	if e, hit := m.pages[pn]; hit {
		return e.p, e.own, true
	}
	if m.img.inZero(pn) {
		return &zeroPage, false, true
	}
	return nil, false, false
}

// writable resolves page pn for writing, copying the image's page (or the
// zero page) on the run's first write to it. It returns nil if pn is
// unmapped.
func (m *Memory) writable(pn uint32) *page {
	e, hit := m.pages[pn]
	if hit && e.own {
		return e.p
	}
	if !hit && !m.img.inZero(pn) {
		return nil
	}
	p := new(page)
	if hit {
		*p = *e.p
	}
	m.pages[pn] = pte{p: p, own: true}
	return p
}

// Map makes [addr, addr+size) accessible (zero-filled), rounding outward
// to page boundaries. Pages already mapped keep their contents.
func (m *Memory) Map(addr, size uint32) {
	if size == 0 {
		return
	}
	last := (addr + size - 1) / pageSize
	for pn := addr / pageSize; ; pn = (pn + 1) % numPages {
		if _, _, ok := m.lookup(pn); !ok {
			m.pages[pn] = pte{p: new(page), own: true}
		}
		if pn == last {
			break
		}
	}
}

// Mapped reports whether addr is accessible.
func (m *Memory) Mapped(addr uint32) bool {
	_, _, ok := m.lookup(addr / pageSize)
	return ok
}

// LoadByte reads one byte; ok=false on unmapped address.
func (m *Memory) LoadByte(addr uint32) (byte, bool) {
	p, _, ok := m.lookup(addr / pageSize)
	if !ok {
		return 0, false
	}
	return p[addr%pageSize], true
}

// StoreByte writes one byte; ok=false on unmapped address.
func (m *Memory) StoreByte(addr uint32, v byte) bool {
	p := m.writable(addr / pageSize)
	if p == nil {
		return false
	}
	p[addr%pageSize] = v
	return true
}

// Load reads size (1, 2 or 4) bytes little-endian. An access within one
// page resolves the page once.
func (m *Memory) Load(addr uint32, size int) (uint32, bool) {
	var v uint32
	if off := addr % pageSize; int(off)+size <= pageSize {
		p, _, ok := m.lookup(addr / pageSize)
		if !ok {
			return 0, false
		}
		for i := 0; i < size; i++ {
			v |= uint32(p[off+uint32(i)]) << (8 * uint(i))
		}
		return v, true
	}
	for i := 0; i < size; i++ {
		b, ok := m.LoadByte(addr + uint32(i))
		if !ok {
			return 0, false
		}
		v |= uint32(b) << (8 * uint(i))
	}
	return v, true
}

// Store writes size (1, 2 or 4) bytes little-endian. An access within one
// page resolves the page once; a page-crossing store writes byte by byte,
// so the bytes before an unmapped page are written before it fails.
func (m *Memory) Store(addr uint32, size int, v uint32) bool {
	if off := addr % pageSize; int(off)+size <= pageSize {
		p := m.writable(addr / pageSize)
		if p == nil {
			return false
		}
		for i := 0; i < size; i++ {
			p[off+uint32(i)] = byte(v >> (8 * uint(i)))
		}
		return true
	}
	for i := 0; i < size; i++ {
		if !m.StoreByte(addr+uint32(i), byte(v>>(8*uint(i)))) {
			return false
		}
	}
	return true
}

// Snapshot returns a deterministic digest of memory contents, used to
// compare final states. It XOR-folds one term per non-zero byte, a
// function of the byte's address and value, so the digest is
// order-independent and a page's terms can be folded out again: a run's
// digest is its image's, with each page the run owns folded in and the
// image's version of that page (if any) folded out. Pages the run never
// wrote cost nothing.
func (m *Memory) Snapshot() uint64 {
	h := m.img.digest
	for pn, e := range m.pages {
		if e.own {
			h ^= foldPage(pn, e.p) ^ foldPage(pn, m.img.pages[pn])
		}
	}
	return h
}

// foldPage is the XOR of page pn's Snapshot terms (0 for a nil page). It
// skips all-zero 8-byte words, which contribute no terms.
func foldPage(pn uint32, p *page) uint64 {
	if p == nil {
		return 0
	}
	var h uint64
	base := uint64(pn) * pageSize
	for i := 0; i < pageSize; i += 8 {
		if binary.LittleEndian.Uint64(p[i:]) == 0 {
			continue
		}
		for j := i; j < i+8; j++ {
			if b := p[j]; b != 0 {
				h ^= (base + uint64(j) + 0x9E3779B97F4A7C15) * uint64(b)
			}
		}
	}
	return h
}
