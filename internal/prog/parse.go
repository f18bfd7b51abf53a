package prog

import (
	"fmt"
	"strconv"
	"strings"
	"unicode"

	"boosting/internal/isa"
)

// Parse reads the textual assembly form produced by FormatProgram (and a
// slightly friendlier hand-written dialect) back into a Program.
//
// Accepted syntax, line by line:
//
//	.word N              append a data word
//	.byte N N N ...      append data bytes
//	.ascii "text"        append string bytes
//	.align N             align the data segment
//	.reserve N           reserve N zeroed bytes (BSS), after all data
//	.proc NAME           start a procedure (first block is the entry)
//	LABEL:               start a basic block
//	op operands          an instruction (MIPS-like mnemonics)
//
// Branch targets may be written either as explicit operands
// (`beq r1, r2, takenLabel, fallLabel`) or using the annotation comments
// FormatProgram emits (`beq r1, r2 ;taken ;taken->L1 fall->L2`). Jumps
// accept `j label` or `j -> label`; a block without a terminator needs a
// `;fallthrough -> label` annotation or falls through to the next block
// in the file. Comments start with `;` or `#` (annotation comments are
// interpreted, others ignored).
func Parse(text string) (*Program, error) {
	p := &parser{
		pr:     New(),
		blocks: map[string]*Block{},
		// A formatted instruction line takes about 24 bytes. The guess
		// only sizes the first chunk; later chunks double.
		arena: make([]isa.Inst, 0, min(max(len(text)/24, 16), 1024)),
	}
	for n := 1; ; n++ {
		line, rest, more := strings.Cut(text, "\n")
		if err := p.line(strings.TrimSpace(line)); err != nil {
			return nil, fmt.Errorf("line %d: %w", n, err)
		}
		if !more {
			break
		}
		text = rest
	}
	if err := p.finishProc(); err != nil {
		return nil, err
	}
	if p.pr.Main() == nil {
		return nil, fmt.Errorf("prog: no .proc main")
	}
	// finishProc verified each procedure; only the call targets are left.
	for _, name := range p.pr.Order {
		if err := verifyCalls(p.pr, p.pr.Procs[name]); err != nil {
			return nil, err
		}
	}
	return p.pr, nil
}

type pendingEdge struct {
	block *Block
	slot  int
	label string
	line  string
}

type parser struct {
	pr     *Program
	proc   *Proc
	cur    *Block
	blocks map[string]*Block
	edges  []pendingEdge
	// fallPrev is a block awaiting an implicit fall-through to the next
	// label.
	fallPrev *Block

	// arena is the chunk instructions are emitted into. A block's
	// instructions are one contiguous run of a chunk, and its Insts is a
	// full-capacity slice of that run, so no append can reach a
	// neighbour.
	arena []isa.Inst
	// curStart is the arena index of cur's first instruction.
	curStart int
	// succs is the unused tail of the slab successor lists are cut from.
	succs []*Block
	// ops is the operand list of the current instruction line.
	ops []string
}

func (p *parser) line(s string) error {
	if s == "" {
		return nil
	}
	switch s[0] {
	case ';':
		// Annotation-only lines: ";fallthrough -> L".
		rest, ok := strings.CutPrefix(s, ";fallthrough")
		if !ok {
			return nil
		}
		rest = strings.TrimSpace(rest)
		rest = strings.TrimSpace(strings.TrimPrefix(rest, "->"))
		if p.cur == nil {
			return fmt.Errorf("fallthrough outside a block")
		}
		p.addEdge(p.cur, 0, rest, s)
		p.endBlock(1)
		return nil
	case '#':
		return nil
	case '.':
		if done, err := p.directive(s); done {
			return err
		}
	}

	// Block label?
	if body, ok := cutLabel(s); ok {
		if p.proc == nil {
			return fmt.Errorf("label outside .proc")
		}
		b := p.block(body)
		if len(b.Insts) > 0 || b == p.cur {
			return fmt.Errorf("duplicate block label %q", body)
		}
		if p.fallPrev != nil {
			p.fallPrev.Succs[0] = b
			p.fallPrev = nil
		}
		if p.proc.Entry == nil {
			p.proc.Entry = b
		}
		p.enter(b)
		return nil
	}

	if p.cur == nil {
		if p.proc == nil {
			return fmt.Errorf("instruction outside .proc: %q", s)
		}
		if p.fallPrev != nil {
			return fmt.Errorf("block %s has no terminator or fall-through target", p.fallPrev)
		}
		// Instructions before any label go into an implicit entry block,
		// created at most once: reaching here again means the previous
		// block ended without a new label.
		if _, used := p.blocks["entry"]; used {
			return fmt.Errorf("instruction after block end without a label: %q", s)
		}
		b := p.block("entry")
		if p.proc.Entry == nil {
			p.proc.Entry = b
		}
		p.enter(b)
	}
	return p.inst(s)
}

// directive handles a data or .proc line. It reports done=false when s
// is no directive, so the caller reads it as a label or an instruction.
func (p *parser) directive(s string) (done bool, err error) {
	name, arg, ok := strings.Cut(s, " ")
	if !ok {
		return false, nil
	}
	switch name {
	case ".proc":
		if err := p.finishProc(); err != nil {
			return true, err
		}
		proc := strings.TrimSpace(arg)
		if proc == "" {
			return true, fmt.Errorf("empty procedure name")
		}
		if _, dup := p.pr.Procs[proc]; dup {
			return true, fmt.Errorf("duplicate procedure %q", proc)
		}
		p.proc = &Proc{Name: proc}
		p.pr.AddProc(p.proc)
		clear(p.blocks)
		p.cur = nil
		return true, nil
	case ".word":
		v, err := parseInt(arg)
		if err != nil {
			return true, err
		}
		if err := p.dataAfterReserve(name); err != nil {
			return true, err
		}
		p.pr.Word(int32(v))
		return true, nil
	case ".byte":
		if err := p.dataAfterReserve(name); err != nil {
			return true, err
		}
		for f, rest := nextField(arg, false); f != ""; f, rest = nextField(rest, false) {
			v, err := parseInt(f)
			if err != nil {
				return true, err
			}
			p.pr.Data = append(p.pr.Data, byte(v))
		}
		return true, nil
	case ".ascii":
		str, err := strconv.Unquote(strings.TrimSpace(arg))
		if err != nil {
			return true, fmt.Errorf("bad .ascii string: %w", err)
		}
		if str != "" {
			if err := p.dataAfterReserve(name); err != nil {
				return true, err
			}
		}
		p.pr.Data = append(p.pr.Data, str...)
		return true, nil
	case ".align":
		v, err := parseInt(arg)
		if err != nil {
			return true, err
		}
		if v < 1 || v > 4096 {
			return true, fmt.Errorf("bad alignment %d", v)
		}
		if len(p.pr.Data)%int(v) != 0 {
			if err := p.dataAfterReserve(name); err != nil {
				return true, err
			}
		}
		p.pr.Align(int(v))
		return true, nil
	case ".reserve":
		v, err := parseInt(arg)
		if err != nil {
			return true, err
		}
		if v < 0 || v > 1<<26 {
			return true, fmt.Errorf("bad reserve size %d", v)
		}
		p.pr.Reserve(int(v))
		return true, nil
	}
	return false, nil
}

// dataAfterReserve rejects a directive that would grow the data image
// once .reserve has mapped zeroed bytes after it: the new data would
// take the reserved bytes' addresses.
func (p *parser) dataAfterReserve(directive string) error {
	if p.pr.BSS > 0 {
		return fmt.Errorf("%s after .reserve would overlap the reserved bytes", directive)
	}
	return nil
}

// cutLabel recognizes "LABEL:" with optional trailing comment.
func cutLabel(s string) (string, bool) {
	if i := strings.IndexByte(s, ';'); i >= 0 {
		s = strings.TrimSpace(s[:i])
	}
	if strings.HasSuffix(s, ":") && !strings.ContainsAny(s[:len(s)-1], " \t,()") {
		return s[:len(s)-1], true
	}
	return "", false
}

func (p *parser) block(label string) *Block {
	if b, ok := p.blocks[label]; ok {
		return b
	}
	b := p.proc.NewBlockAfter(displayLabel(label))
	p.blocks[label] = b
	return b
}

// displayLabel strips the "B<id>." prefix FormatProgram adds, so labels
// stay stable across format/parse round trips.
func displayLabel(label string) string {
	if len(label) > 1 && label[0] == 'B' {
		i := 1
		for i < len(label) && label[i] >= '0' && label[i] <= '9' {
			i++
		}
		if i > 1 && i < len(label) && label[i] == '.' {
			return label[i+1:]
		}
	}
	return label
}

func (p *parser) addEdge(b *Block, slot int, label, line string) {
	p.edges = append(p.edges, pendingEdge{b, slot, label, line})
}

// enter makes b the current block; its instructions start at the
// arena's end.
func (p *parser) enter(b *Block) {
	p.cur = b
	p.curStart = len(p.arena)
}

// endBlock gives the current block n successor slots, which pending
// edges or the next label fill in, and leaves it.
func (p *parser) endBlock(n int) {
	p.cur.Succs = nil
	if n > 0 {
		if len(p.succs) < n {
			p.succs = make([]*Block, 64)
		}
		p.cur.Succs = p.succs[:n:n]
		p.succs = p.succs[n:]
	}
	p.cur = nil
}

// finishProc resolves pending edges and verifies the procedure.
func (p *parser) finishProc() error {
	if p.proc == nil {
		return nil
	}
	if p.fallPrev != nil {
		return fmt.Errorf("block %s has no terminator or fall-through target", p.fallPrev)
	}
	for _, e := range p.edges {
		t, ok := p.blocks[e.label]
		if !ok {
			return fmt.Errorf("undefined label %q in %q", e.label, e.line)
		}
		e.block.Succs[e.slot] = t
	}
	p.edges = p.edges[:0]
	p.proc.RecomputePreds()
	if err := Verify(p.proc); err != nil {
		return err
	}
	p.proc = nil
	return nil
}

// emit appends an instruction to the current block.
func (p *parser) emit(in isa.Inst) {
	in.ID = p.pr.NextInstID()
	if len(p.arena) == cap(p.arena) {
		// Start a chunk twice the size, and move the current block's
		// run into it.
		run := p.arena[p.curStart:]
		chunk := make([]isa.Inst, len(run), 2*cap(p.arena))
		copy(chunk, run)
		p.arena, p.curStart = chunk, 0
	}
	p.arena = append(p.arena, in)
	n := len(p.arena)
	p.cur.Insts = p.arena[p.curStart:n:n]
}

// annotations extracts ";taken->L fall->L", "-> L" and ";taken" markers.
type annot struct {
	taken, fall, next string
	pred              bool
}

func splitAnnot(s string) (string, annot) {
	var a annot
	semi := strings.IndexByte(s, ';')
	head, tags := s, ""
	if semi >= 0 {
		head, tags = s[:semi], s[semi+1:]
	}
	// "-> L" direct form before any comment.
	if i := strings.Index(head, "->"); i >= 0 {
		a.next = strings.TrimSpace(head[i+2:])
		head = head[:i]
	}
	// The tags are the words after the first ';', split at white space
	// and at every further ';'.
	for f, rest := nextField(tags, true); f != ""; f, rest = nextField(rest, true) {
		switch {
		case strings.HasPrefix(f, "taken->"):
			a.taken = strings.TrimPrefix(f, "taken->")
		case strings.HasPrefix(f, "fall->"):
			a.fall = strings.TrimPrefix(f, "fall->")
		case f == "taken":
			a.pred = true
		case f == "not-taken":
			a.pred = false
		case strings.HasPrefix(f, "->"):
			a.next = strings.TrimPrefix(f, "->")
		}
	}
	return strings.TrimSpace(head), a
}

// nextField returns the first field of s and the text after it. Fields
// are separated by white space as strings.Fields splits them, Unicode
// spaces included, and also by ';' when semi is set.
func nextField(s string, semi bool) (field, rest string) {
	start := -1
	for i, r := range s {
		if unicode.IsSpace(r) || semi && r == ';' {
			if start >= 0 {
				return s[start:i], s[i:]
			}
		} else if start < 0 {
			start = i
		}
	}
	if start < 0 {
		return "", ""
	}
	return s[start:], ""
}

var opByName = func() map[string]isa.Op {
	m := map[string]isa.Op{}
	for op := isa.NOP; op < isa.Op(255); op++ {
		name := op.String()
		if strings.HasPrefix(name, "op(") {
			break
		}
		m[name] = op
	}
	return m
}()

// inst parses one instruction line.
func (p *parser) inst(s string) error {
	s, a := splitAnnot(s)
	mn, rest := nextField(s, false)
	if mn == "" {
		if a.next != "" { // bare "-> L" after annotations stripped
			p.addEdge(p.cur, 0, a.next, s)
			p.endBlock(1)
			return nil
		}
		return nil
	}
	mn = strings.ToLower(mn)
	p.ops = splitOperands(p.ops[:0], rest)
	ops := p.ops

	// Pseudo-instructions.
	switch mn {
	case "li", "la":
		if len(ops) != 2 {
			return fmt.Errorf("%s needs rd, imm", mn)
		}
		rd, err := p.reg(ops[0])
		if err != nil {
			return err
		}
		v, err := parseInt(ops[1])
		if err != nil {
			return err
		}
		u := uint32(int32(v))
		if int32(v) >= -32768 && int32(v) < 32768 {
			p.emit(isa.Inst{Op: isa.ADDI, Rd: rd, Rs: isa.R0, Imm: int32(v)})
		} else {
			p.emit(isa.Inst{Op: isa.LUI, Rd: rd, Imm: int32(u >> 16)})
			if low := u & 0xFFFF; low != 0 {
				p.emit(isa.Inst{Op: isa.ORI, Rd: rd, Rs: rd, Imm: int32(low)})
			}
		}
		return nil
	case "move":
		if len(ops) != 2 {
			return fmt.Errorf("move needs rd, rs")
		}
		rd, err := p.reg(ops[0])
		if err != nil {
			return err
		}
		rs, err := p.reg(ops[1])
		if err != nil {
			return err
		}
		p.emit(isa.Inst{Op: isa.OR, Rd: rd, Rs: rs, Rt: isa.R0})
		return nil
	}

	op, ok := opByName[mn]
	if !ok {
		return fmt.Errorf("unknown mnemonic %q", mn)
	}

	switch {
	case op == isa.NOP:
		p.emit(isa.Inst{Op: isa.NOP})
		return nil
	case op == isa.HALT:
		p.emit(isa.Inst{Op: isa.HALT})
		p.endBlock(0)
		return nil
	case op == isa.OUT:
		if len(ops) != 1 {
			return fmt.Errorf("out needs a register")
		}
		rs, err := p.reg(ops[0])
		if err != nil {
			return err
		}
		p.emit(isa.Inst{Op: isa.OUT, Rs: rs})
		return nil
	case op == isa.J:
		target := a.next
		if target == "" && len(ops) == 1 {
			target = ops[0]
		}
		if target == "" {
			return fmt.Errorf("jump needs a target")
		}
		p.emit(isa.Inst{Op: isa.J})
		p.addEdge(p.cur, 0, target, s)
		p.endBlock(1)
		return nil
	case op == isa.JAL:
		if len(ops) != 1 {
			return fmt.Errorf("jal needs a procedure name")
		}
		p.emit(isa.Inst{Op: isa.JAL, Rd: isa.RA, Sym: ops[0]})
		if cont := a.next; cont != "" {
			p.addEdge(p.cur, 0, cont, s)
		} else {
			// Implicit continuation: the next label fills slot 0.
			p.fallPrev = p.cur
		}
		p.endBlock(1)
		return nil
	case op == isa.JR:
		if len(ops) != 1 {
			return fmt.Errorf("jr needs a register")
		}
		rs, err := p.reg(ops[0])
		if err != nil {
			return err
		}
		p.emit(isa.Inst{Op: isa.JR, Rs: rs})
		p.endBlock(0)
		return nil
	case isa.IsCondBranch(op):
		var rs, rt isa.Reg
		var taken, fall string
		var err error
		regOps := ops
		if op == isa.BEQ || op == isa.BNE {
			if len(regOps) < 2 {
				return fmt.Errorf("%s needs two registers", mn)
			}
			if rs, err = p.reg(regOps[0]); err != nil {
				return err
			}
			if rt, err = p.reg(regOps[1]); err != nil {
				return err
			}
			regOps = regOps[2:]
		} else {
			if len(regOps) < 1 {
				return fmt.Errorf("%s needs a register", mn)
			}
			if rs, err = p.reg(regOps[0]); err != nil {
				return err
			}
			regOps = regOps[1:]
		}
		switch {
		case a.taken != "" && a.fall != "":
			taken, fall = a.taken, a.fall
		case len(regOps) == 2:
			taken, fall = regOps[0], regOps[1]
		default:
			return fmt.Errorf("branch needs taken and fall targets")
		}
		p.emit(isa.Inst{Op: op, Rs: rs, Rt: rt, Pred: a.pred})
		p.addEdge(p.cur, 0, fall, s)
		p.addEdge(p.cur, 1, taken, s)
		p.endBlock(2)
		return nil
	case isa.IsLoad(op):
		if len(ops) != 2 {
			return fmt.Errorf("%s needs rd, off(base)", mn)
		}
		rd, err := p.reg(ops[0])
		if err != nil {
			return err
		}
		base, off, err := p.memOperand(ops[1])
		if err != nil {
			return err
		}
		p.emit(isa.Inst{Op: op, Rd: rd, Rs: base, Imm: off})
		return nil
	case isa.IsStore(op):
		if len(ops) != 2 {
			return fmt.Errorf("%s needs rt, off(base)", mn)
		}
		rt, err := p.reg(ops[0])
		if err != nil {
			return err
		}
		base, off, err := p.memOperand(ops[1])
		if err != nil {
			return err
		}
		p.emit(isa.Inst{Op: op, Rt: rt, Rs: base, Imm: off})
		return nil
	case op == isa.LUI:
		if len(ops) < 2 {
			return fmt.Errorf("lui needs rd, imm")
		}
		rd, err := p.reg(ops[0])
		if err != nil {
			return err
		}
		v, err := parseInt(ops[len(ops)-1])
		if err != nil {
			return err
		}
		p.emit(isa.Inst{Op: op, Rd: rd, Imm: int32(v)})
		return nil
	default:
		// Three-operand ALU/shift forms: rd, rs, (rt | imm).
		if len(ops) != 3 {
			return fmt.Errorf("%s needs 3 operands", mn)
		}
		rd, err := p.reg(ops[0])
		if err != nil {
			return err
		}
		rs, err := p.reg(ops[1])
		if err != nil {
			return err
		}
		in := isa.Inst{Op: op, Rd: rd, Rs: rs}
		// Only an operand that starts like a register can be one; an
		// immediate goes straight to parseInt.
		isReg := false
		if c := ops[2][0]; c == 'r' || c == 'v' {
			if rt, err := p.reg(ops[2]); err == nil {
				in.Rt, isReg = rt, true
			}
		}
		if isReg {
			// Immediate-form ops never take a third register.
			if isImmOp(op) {
				return fmt.Errorf("%s takes an immediate", mn)
			}
		} else {
			v, err := parseInt(ops[2])
			if err != nil {
				return err
			}
			in.Imm = int32(v)
			if !isImmOp(op) {
				return fmt.Errorf("%s takes a register", mn)
			}
		}
		p.emit(in)
		return nil
	}
}

func isImmOp(op isa.Op) bool {
	switch op {
	case isa.ADDI, isa.ANDI, isa.ORI, isa.XORI, isa.SLTI, isa.SLTIU,
		isa.SLL, isa.SRL, isa.SRA:
		return true
	}
	return false
}

// reg parses "r12", "v3", or a boost-suffixed form like "r4.B2" (the
// suffix is rejected: parsed programs are pre-scheduling).
func (p *parser) reg(s string) (isa.Reg, error) {
	s = strings.TrimSpace(s)
	if strings.Contains(s, ".B") {
		return 0, fmt.Errorf("boost suffix not allowed in source: %q", s)
	}
	if len(s) < 2 {
		return 0, fmt.Errorf("bad register %q", s)
	}
	n, err := strconv.Atoi(s[1:])
	if err != nil || n < 0 {
		return 0, fmt.Errorf("bad register %q", s)
	}
	switch s[0] {
	case 'r':
		if n >= isa.NumArchRegs {
			return 0, fmt.Errorf("architectural register out of range: %q", s)
		}
		return isa.Reg(n), nil
	case 'v':
		p.pr.EnsureVirtual(int32(n) + 1)
		return isa.FirstVirtual + isa.Reg(n), nil
	}
	return 0, fmt.Errorf("bad register %q", s)
}

// memOperand parses "off(base)".
func (p *parser) memOperand(s string) (isa.Reg, int32, error) {
	i := strings.IndexByte(s, '(')
	j := strings.IndexByte(s, ')')
	if i < 0 || j < i {
		return 0, 0, fmt.Errorf("bad memory operand %q", s)
	}
	off := int64(0)
	if strings.TrimSpace(s[:i]) != "" {
		var err error
		off, err = parseInt(strings.TrimSpace(s[:i]))
		if err != nil {
			return 0, 0, err
		}
	}
	base, err := p.reg(strings.TrimSpace(s[i+1 : j]))
	if err != nil {
		return 0, 0, err
	}
	return base, int32(off), nil
}

// splitOperands appends the non-empty comma-separated operands of s to
// out, trimmed.
func splitOperands(out []string, s string) []string {
	for {
		f, rest, more := strings.Cut(s, ",")
		if f = strings.TrimSpace(f); f != "" {
			out = append(out, f)
		}
		if !more {
			return out
		}
		s = rest
	}
}

func parseInt(s string) (int64, error) {
	s = strings.TrimSpace(s)
	// Short plain decimals, the bulk of a formatted body, skip strconv.
	// A leading 0 (octal under base 0), a sign other than '-', a prefix
	// or an underscore takes strconv's path, as does every error.
	d := strings.TrimPrefix(s, "-")
	if len(d) > 0 && len(d) <= 9 && (d[0] != '0' || len(d) == 1) {
		v := int64(0)
		for i := 0; i < len(d); i++ {
			c := d[i] - '0'
			if c > 9 {
				return strconv.ParseInt(s, 0, 64)
			}
			v = 10*v + int64(c)
		}
		if len(d) < len(s) {
			v = -v
		}
		return v, nil
	}
	return strconv.ParseInt(s, 0, 64)
}
