package sim

import (
	"reflect"
	"testing"

	"boosting/internal/isa"
	"boosting/internal/machine"
	"boosting/internal/prog"
)

// runAllEngines runs sp on the fast core and the oracle, and checks that
// both runs end cleanly with output want and one memory digest.
func runAllEngines(t *testing.T, sp *machine.SchedProgram, cfg ExecConfig, want []uint32) {
	t.Helper()
	fast, err := Exec(sp, cfg)
	if err != nil {
		t.Fatalf("Exec: %v", err)
	}
	oracle, err := ExecOracle(sp, cfg)
	if err != nil {
		t.Fatalf("ExecOracle: %v", err)
	}
	for name, r := range map[string]*ExecResult{"Exec": fast, "ExecOracle": oracle} {
		if !reflect.DeepEqual(r.Out, want) {
			t.Errorf("%s: out = %#x, want %#x", name, r.Out, want)
		}
		if r.MemHash != oracle.MemHash {
			t.Errorf("%s: memHash %#x, oracle %#x", name, r.MemHash, oracle.MemHash)
		}
	}
}

// TestNoStalePageAfterCopy pins the page cache's copy-on-write rule. A
// load caches the image's shared data page; then a write that bypasses
// the cache copies that page: a boosted store committed by its branch,
// or an OnFault handler writing the Memory it is handed. A later load of
// the same word must read the run's copy, not the cached image page.
func TestNoStalePageAfterCopy(t *testing.T) {
	word := int32(prog.DataBase)
	out := func(r isa.Reg) *isa.Inst { return inst(isa.Inst{Op: isa.OUT, Rs: r}) }

	t.Run("commit", func(t *testing.T) {
		m := newManual(machine.Boost1(), func(f *prog.Builder) {
			f.Prog.Word(11)
			done := f.Block("done")
			r := f.Reg()
			f.Li(r, 1)
			f.Branch(isa.BGTZ, r, isa.R0, done, done)
			f.Enter(done)
			f.Halt()
		})
		entry := m.pr.Main().Blocks[0]
		entry.Insts[1].Pred = true // predicted taken, taken: the branch commits
		li, br := &entry.Insts[0], &entry.Insts[1]
		m.sched(0,
			[]*isa.Inst{li, inst(isa.Inst{Op: isa.LW, Rd: 20, Imm: word})}, // caches the shared page
			[]*isa.Inst{inst(isa.Inst{Op: isa.ADDI, Rd: 21, Imm: 387}), nil},
			[]*isa.Inst{br, inst(isa.Inst{Op: isa.SW, Rt: 21, Imm: word, Boost: 1})},
			[]*isa.Inst{nil, nil},
		)
		m.sched(1,
			[]*isa.Inst{inst(isa.Inst{Op: isa.LW, Rd: 22, Imm: word}), nil},
			[]*isa.Inst{out(20), nil},
			[]*isa.Inst{out(22), nil},
			[]*isa.Inst{&m.pr.Main().Blocks[1].Insts[0], nil},
		)
		runAllEngines(t, m.sp, ExecConfig{}, []uint32{11, 387})
	})

	t.Run("fault handler", func(t *testing.T) {
		m := newManual(machine.Boost1(), func(f *prog.Builder) {
			f.Prog.Word(11)
			f.Halt()
		})
		// A misaligned word store at StackTop-2 straddles the stack's top
		// page and the unmapped page above it. The handler maps the
		// faulting page and, through the Memory, writes the cached data
		// word; the retried store then succeeds byte by byte, leaving the
		// cache alone.
		const straddle = int32(prog.StackTop - 2)
		m.sched(0,
			[]*isa.Inst{inst(isa.Inst{Op: isa.LW, Rd: 20, Imm: word}), nil}, // caches the shared page
			[]*isa.Inst{inst(isa.Inst{Op: isa.ADDI, Rd: 21, Imm: 0x12345678}), nil},
			[]*isa.Inst{inst(isa.Inst{Op: isa.SW, Rt: 21, Imm: straddle}), nil},
			[]*isa.Inst{inst(isa.Inst{Op: isa.LW, Rd: 22, Imm: word}), nil},
			[]*isa.Inst{inst(isa.Inst{Op: isa.LW, Rd: 23, Imm: int32(prog.StackTop)}), nil},
			[]*isa.Inst{out(20), nil},
			[]*isa.Inst{out(22), nil},
			[]*isa.Inst{out(23), nil},
			[]*isa.Inst{&m.pr.Main().Blocks[0].Insts[0], nil},
		)
		handled := 0
		cfg := ExecConfig{OnFault: func(mem *Memory, f *Fault) bool {
			handled++
			mem.Map(f.Addr, 4)
			mem.Store(uint32(word), 4, 387)
			return true
		}}
		runAllEngines(t, m.sp, cfg, []uint32{11, 387, 0x1234})
		// Exec and ExecOracle each take the fault once.
		if handled != 2 {
			t.Errorf("handler ran %d times, want 2", handled)
		}
	})
}

// TestImageZeroRangeWraps: a BSS that runs past the top of the address
// space wraps to page zero, as Map's rounding does, instead of mapping
// nothing.
func TestImageZeroRangeWraps(t *testing.T) {
	mem := newImage(&prog.Program{BSS: 0xFFFF_8000}).newMemory()
	for _, tc := range []struct {
		addr uint32
		want bool
	}{
		{prog.DataBase, true}, {0xFFFF_FFFF, true}, {0, true}, {0x8003, true}, {0x9000, false},
	} {
		if got := mem.Mapped(tc.addr); got != tc.want {
			t.Errorf("Mapped(%#x) = %v, want %v", tc.addr, got, tc.want)
		}
	}
}

// flatMem is FuzzMemory's reference model: one byte map and one set of
// mapped pages, both filled eagerly at load time, as the loader did
// before memory images.
type flatMem struct {
	bytes  map[uint32]byte
	mapped []uint64 // bit per page number
}

func newFlatMem(pr *prog.Program) *flatMem {
	fm := &flatMem{bytes: map[uint32]byte{}, mapped: make([]uint64, numPages/64)}
	fm.mapRange(prog.DataBase, uint32(len(pr.Data)))
	for i, b := range pr.Data {
		fm.bytes[prog.DataBase+uint32(i)] = b
	}
	if pr.BSS > 0 {
		fm.mapRange(prog.DataBase+uint32(len(pr.Data)), uint32(pr.BSS)+4)
	}
	fm.mapRange(prog.StackTop-prog.StackSize, prog.StackSize)
	return fm
}

func (fm *flatMem) mapRange(addr, size uint32) {
	if size == 0 {
		return
	}
	last := (addr + size - 1) / pageSize
	for pn := addr / pageSize; ; pn = (pn + 1) % numPages {
		fm.mapped[pn/64] |= 1 << (pn % 64)
		if pn == last {
			break
		}
	}
}

func (fm *flatMem) isMapped(addr uint32) bool {
	pn := addr / pageSize
	return fm.mapped[pn/64]&(1<<(pn%64)) != 0
}

func (fm *flatMem) load(addr uint32, size int) (uint32, bool) {
	var v uint32
	for i := 0; i < size; i++ {
		a := addr + uint32(i)
		if !fm.isMapped(a) {
			return 0, false
		}
		v |= uint32(fm.bytes[a]) << (8 * i)
	}
	return v, true
}

func (fm *flatMem) store(addr uint32, size int, v uint32) bool {
	for i := 0; i < size; i++ {
		a := addr + uint32(i)
		if !fm.isMapped(a) {
			return false
		}
		fm.bytes[a] = byte(v >> (8 * i))
	}
	return true
}

// fold is Snapshot's definition: the XOR of one term per non-zero byte.
func (fm *flatMem) fold() uint64 {
	var h uint64
	for a, b := range fm.bytes {
		if b != 0 {
			h ^= (uint64(a) + 0x9E3779B97F4A7C15) * uint64(b)
		}
	}
	return h
}

// FuzzMemory checks the image and a run's copy-on-write memory against
// flatMem. The inputs give the data length, the BSS size (up to 256 MiB)
// and a list of 8-byte operations — Load, Store or Map of 1, 2 or 4
// bytes at an offset from a region edge — so accesses may be aligned or
// not, cross pages, or hit unmapped pages. After every operation the
// value and ok flag must agree; at the end Snapshot must equal the
// model's full fold, and the image must be unchanged.
func FuzzMemory(f *testing.F) {
	f.Fuzz(func(t *testing.T, dataLen uint16, bss uint32, ops []byte) {
		pr := &prog.Program{Data: make([]byte, dataLen), BSS: int(bss % (256<<20 + 1))}
		for i := range pr.Data {
			if i/16%3 != 0 { // leave zero runs for the fold to skip
				pr.Data[i] = byte(i*37 + i>>8)
			}
		}
		img := newImage(pr)
		ref := newFlatMem(pr)
		if want := ref.fold(); img.digest != want {
			t.Fatalf("image digest %#x, eager fold %#x", img.digest, want)
		}
		fresh := newImage(pr)
		mem := img.newMemory()

		bssEnd := prog.DataBase + uint32(len(pr.Data)) + uint32(pr.BSS) + 4
		edges := []uint32{
			prog.DataBase, prog.DataBase + uint32(len(pr.Data)), bssEnd,
			prog.StackTop - prog.StackSize, prog.StackTop,
			0, 0x0040_0000, 0xFFFF_F000,
		}
		for ; len(ops) >= 8; ops = ops[8:] {
			size := []int{1, 2, 4}[ops[1]%3]
			addr := edges[int(ops[2])%len(edges)] + uint32(int32(int16(uint16(ops[3])|uint16(ops[4])<<8)))
			if ops[1]&0x80 != 0 {
				addr &^= uint32(size - 1)
			}
			v := uint32(ops[5]) | uint32(ops[6])<<8 | uint32(ops[7])<<16 | uint32(ops[5]^ops[7])<<24
			switch ops[0] % 3 {
			case 0:
				got, ok := mem.Load(addr, size)
				want, wantOK := ref.load(addr, size)
				if got != want || ok != wantOK {
					t.Fatalf("Load(%#x, %d) = %#x, %v; want %#x, %v", addr, size, got, ok, want, wantOK)
				}
			case 1:
				if ok, want := mem.Store(addr, size, v), ref.store(addr, size, v); ok != want {
					t.Fatalf("Store(%#x, %d) = %v, want %v", addr, size, ok, want)
				}
			case 2:
				mem.Map(addr, uint32(size))
				ref.mapRange(addr, uint32(size))
			}
			for i := 0; i < size; i++ {
				if a := addr + uint32(i); mem.Mapped(a) != ref.isMapped(a) {
					t.Fatalf("Mapped(%#x) = %v, want %v", a, mem.Mapped(a), ref.isMapped(a))
				}
			}
		}
		if got, want := mem.Snapshot(), ref.fold(); got != want {
			t.Fatalf("Snapshot = %#x, eager fold %#x", got, want)
		}
		var digest uint64
		for pn, p := range img.pages {
			digest ^= foldPage(pn, p)
		}
		if digest != img.digest || !reflect.DeepEqual(img.pages, fresh.pages) {
			t.Fatal("a run changed its image")
		}
	})
}
