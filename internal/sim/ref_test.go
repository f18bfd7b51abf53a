package sim

import (
	"testing"

	"boosting/internal/isa"
	"boosting/internal/prog"
)

func mustRun(t *testing.T, pr *prog.Program) *Result {
	t.Helper()
	res, err := Run(pr, RefConfig{})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	return res
}

func TestRunArithmetic(t *testing.T) {
	pr := prog.New()
	f := prog.NewBuilder(pr, "main")
	a, b, c := f.Reg(), f.Reg(), f.Reg()
	f.Li(a, 6)
	f.Li(b, 7)
	f.ALU(isa.MUL, c, a, b)
	f.Out(c)
	f.ALU(isa.SUB, c, a, b)
	f.Out(c)
	f.Imm(isa.SLTI, c, a, 7)
	f.Out(c)
	f.ALU(isa.DIV, c, b, a)
	f.Out(c)
	f.ALU(isa.REM, c, b, a)
	f.Out(c)
	f.Halt()
	f.Finish()

	res := mustRun(t, pr)
	minus1 := int32(-1)
	want := []uint32{42, uint32(minus1), 1, 1, 1}
	if len(res.Out) != len(want) {
		t.Fatalf("out = %v, want %v", res.Out, want)
	}
	for i := range want {
		if res.Out[i] != want[i] {
			t.Errorf("out[%d] = %d, want %d", i, int32(res.Out[i]), int32(want[i]))
		}
	}
}

func TestRunShifts(t *testing.T) {
	pr := prog.New()
	f := prog.NewBuilder(pr, "main")
	a, c := f.Reg(), f.Reg()
	f.Li(a, -8)
	f.Imm(isa.SRA, c, a, 1)
	f.Out(c) // -4
	f.Imm(isa.SRL, c, a, 28)
	f.Out(c) // 15
	f.Imm(isa.SLL, c, a, 1)
	f.Out(c) // -16
	f.Halt()
	f.Finish()
	res := mustRun(t, pr)
	want := []int32{-4, 15, -16}
	for i, w := range want {
		if int32(res.Out[i]) != w {
			t.Errorf("out[%d] = %d, want %d", i, int32(res.Out[i]), w)
		}
	}
}

func TestRunLoopAndCounts(t *testing.T) {
	pr := prog.New()
	f := prog.NewBuilder(pr, "main")
	loop := f.Block("loop")
	done := f.Block("done")
	i, sum := f.Reg(), f.Reg()
	f.Li(i, 10)
	f.Li(sum, 0)
	f.Goto(loop)
	f.Enter(loop)
	f.ALU(isa.ADD, sum, sum, i)
	f.Imm(isa.ADDI, i, i, -1)
	f.Branch(isa.BGTZ, i, isa.R0, loop, done)
	f.Enter(done)
	f.Out(sum)
	f.Halt()
	f.Finish()

	res := mustRun(t, pr)
	if res.Out[0] != 55 {
		t.Errorf("sum = %d, want 55", res.Out[0])
	}
	if res.Branches != 10 || res.Taken != 9 {
		t.Errorf("branches=%d taken=%d, want 10/9", res.Branches, res.Taken)
	}
}

func TestRunMemory(t *testing.T) {
	pr := prog.New()
	arr := pr.Words(10, 20, 30, 40)
	f := prog.NewBuilder(pr, "main")
	base, v, sum := f.Reg(), f.Reg(), f.Reg()
	f.La(base, arr)
	f.Li(sum, 0)
	for k := 0; k < 4; k++ {
		f.Load(isa.LW, v, base, int32(4*k))
		f.ALU(isa.ADD, sum, sum, v)
	}
	f.Out(sum)
	// Store and reload a byte.
	f.Li(v, 0x7F)
	f.Store(isa.SB, v, base, 1)
	f.Load(isa.LW, v, base, 0)
	f.Out(v) // 10 | 0x7F00
	// Halfword with sign extension.
	f.Li(v, -2)
	f.Store(isa.SH, v, base, 8)
	f.Load(isa.LH, v, base, 8)
	f.Out(v)
	f.Load(isa.LHU, v, base, 8)
	f.Out(v)
	f.Halt()
	f.Finish()

	res := mustRun(t, pr)
	if res.Out[0] != 100 {
		t.Errorf("sum = %d", res.Out[0])
	}
	if res.Out[1] != 10|0x7F00 {
		t.Errorf("byte store result = %#x", res.Out[1])
	}
	if int32(res.Out[2]) != -2 {
		t.Errorf("lh = %d, want -2", int32(res.Out[2]))
	}
	if res.Out[3] != 0xFFFE {
		t.Errorf("lhu = %#x, want 0xfffe", res.Out[3])
	}
}

func TestRunCallsWithSpill(t *testing.T) {
	pr := prog.New()

	// leaf(x) = x + 1
	leaf := prog.NewBuilder(pr, "leaf")
	leaf.Imm(isa.ADDI, isa.RV, isa.A0, 1)
	leaf.Ret()
	leaf.Finish()

	// twice(x) = leaf(leaf(x)), spilling RA to the stack.
	twice := prog.NewBuilder(pr, "twice")
	twice.Imm(isa.ADDI, isa.SP, isa.SP, -8)
	twice.Store(isa.SW, isa.RA, isa.SP, 0)
	twice.Call("leaf")
	twice.Move(isa.A0, isa.RV)
	twice.Call("leaf")
	twice.Load(isa.LW, isa.RA, isa.SP, 0)
	twice.Imm(isa.ADDI, isa.SP, isa.SP, 8)
	twice.Ret()
	twice.Finish()

	main := prog.NewBuilder(pr, "main")
	main.Li(isa.A0, 40)
	main.Call("twice")
	main.Out(isa.RV)
	main.Halt()
	main.Finish()

	res := mustRun(t, pr)
	if res.Out[0] != 42 {
		t.Errorf("twice(40) = %d, want 42", res.Out[0])
	}
}

func TestRunFaultNullLoad(t *testing.T) {
	pr := prog.New()
	f := prog.NewBuilder(pr, "main")
	v := f.Reg()
	f.Load(isa.LW, v, isa.R0, 0) // load from address 0
	f.Out(v)
	f.Halt()
	f.Finish()

	_, err := Run(pr, RefConfig{})
	fault, ok := err.(*Fault)
	if !ok {
		t.Fatalf("err = %v, want *Fault", err)
	}
	if fault.Kind != FaultLoad || fault.Addr != 0 {
		t.Errorf("fault = %v", fault)
	}
}

func TestRunFaultDivZero(t *testing.T) {
	pr := prog.New()
	f := prog.NewBuilder(pr, "main")
	a, b := f.Reg(), f.Reg()
	f.Li(a, 1)
	f.ALU(isa.DIV, b, a, isa.R0)
	f.Out(b)
	f.Halt()
	f.Finish()
	_, err := Run(pr, RefConfig{})
	if fault, ok := err.(*Fault); !ok || fault.Kind != FaultDivZero {
		t.Fatalf("err = %v, want div-zero fault", err)
	}
}

func TestRunFaultAlign(t *testing.T) {
	pr := prog.New()
	pr.Words(1, 2)
	f := prog.NewBuilder(pr, "main")
	base, v := f.Reg(), f.Reg()
	f.La(base, prog.DataBase)
	f.Load(isa.LW, v, base, 2) // misaligned word load
	f.Out(v)
	f.Halt()
	f.Finish()
	_, err := Run(pr, RefConfig{})
	if fault, ok := err.(*Fault); !ok || fault.Kind != FaultAlign {
		t.Fatalf("err = %v, want align fault", err)
	}
}

func TestRunFaultHandlerRetries(t *testing.T) {
	pr := prog.New()
	f := prog.NewBuilder(pr, "main")
	base, v := f.Reg(), f.Reg()
	f.La(base, 0x0050_0000) // unmapped page
	f.Li(v, 99)
	f.Store(isa.SW, v, base, 0)
	f.Load(isa.LW, v, base, 0)
	f.Out(v)
	f.Halt()
	f.Finish()

	handled := 0
	res, err := Run(pr, RefConfig{
		OnFault: func(m *Memory, fa *Fault) bool {
			handled++
			m.Map(fa.Addr, 4)
			return true
		},
	})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if handled != 1 {
		t.Errorf("handler invoked %d times, want 1 (demand paging)", handled)
	}
	if res.Out[0] != 99 {
		t.Errorf("out = %d", res.Out[0])
	}
}

func TestRunStepBound(t *testing.T) {
	pr := prog.New()
	f := prog.NewBuilder(pr, "main")
	loop := f.Block("loop")
	f.Goto(loop)
	f.Enter(loop)
	r := f.Reg()
	f.Imm(isa.ADDI, r, r, 1)
	f.Jump(loop)
	f.Finish()
	_, err := Run(pr, RefConfig{MaxSteps: 1000})
	if err == nil {
		t.Fatal("infinite loop must hit the step bound")
	}
}

func TestR0AlwaysZero(t *testing.T) {
	pr := prog.New()
	f := prog.NewBuilder(pr, "main")
	f.Imm(isa.ADDI, isa.R0, isa.R0, 5) // write to R0 discarded
	f.Out(isa.R0)
	f.Halt()
	f.Finish()
	res := mustRun(t, pr)
	if res.Out[0] != 0 {
		t.Errorf("R0 = %d, want 0", res.Out[0])
	}
}

// memWith returns a memory that maps bs at addr and holds it there.
func memWith(addr uint32, bs ...byte) *Memory {
	m := NewMemory()
	m.Map(addr, uint32(len(bs)))
	for i, b := range bs {
		m.StoreByte(addr+uint32(i), b)
	}
	return m
}

func TestMemorySnapshotDiffers(t *testing.T) {
	m1 := memWith(0x1000, 1, 2, 3)
	m2 := memWith(0x1000, 1, 2, 4)
	if m1.Snapshot() == m2.Snapshot() {
		t.Error("different memories must hash differently")
	}
	m3 := memWith(0x1000, 1, 2, 3)
	if m1.Snapshot() != m3.Snapshot() {
		t.Error("identical memories must hash identically")
	}
}

func TestMemoryMapBoundaries(t *testing.T) {
	m := NewMemory()
	m.Map(pageSize-1, 2) // straddles two pages
	if !m.Mapped(pageSize-1) || !m.Mapped(pageSize) {
		t.Error("straddling map failed")
	}
	if m.Mapped(2 * pageSize) {
		t.Error("unmapped page reported mapped")
	}
	if ok := m.Store(2*pageSize, 4, 1); ok {
		t.Error("store to unmapped page must fail")
	}
	if _, ok := m.Load(pageSize-1, 1); !ok {
		t.Error("load from mapped byte must succeed")
	}
	// A page-crossing store whose tail page is unmapped writes the head
	// bytes, then fails.
	if ok := m.Store(2*pageSize-2, 4, 0xAABBCCDD); ok {
		t.Error("store into an unmapped tail page must fail")
	}
	if v, ok := m.Load(2*pageSize-2, 2); !ok || v != 0xCCDD {
		t.Errorf("head bytes = %#x, %v; want 0xccdd, true", v, ok)
	}
	// A page-crossing load reads both pages.
	if ok := m.Store(pageSize-2, 4, 0x11223344); !ok {
		t.Error("store across two mapped pages must succeed")
	}
	if v, ok := m.Load(pageSize-2, 4); !ok || v != 0x11223344 {
		t.Errorf("page-crossing load = %#x, %v; want 0x11223344, true", v, ok)
	}
	if _, ok := m.Load(2*pageSize-2, 4); ok {
		t.Error("load into an unmapped tail page must fail")
	}
}
