package prog

import (
	"fmt"
	"strings"
	"testing"

	"boosting/internal/isa"
)

const handWritten = `
; a hand-written source in the friendly dialect
.word 7
.word 35

.proc double
	add r2, r4, r4
	jr r31

.proc main
start:
	li v0, 0x10000
	lw v1, 0(v0)
	lw v2, 4(v0)
	move r4, v1
	jal double
after:
	add v3, r2, v2
	out v3
	blez v3, neg, pos
neg:
	out r0
	j end
pos:
	out v3
	; implicit fallthrough is not allowed; use the annotation
	;fallthrough -> end
end:
	halt
`

func TestParseHandWritten(t *testing.T) {
	pr, err := Parse(handWritten)
	if err != nil {
		t.Fatal(err)
	}
	if err := VerifyProgram(pr); err != nil {
		t.Fatal(err)
	}
	if len(pr.Data) != 8 {
		t.Fatalf("data length %d", len(pr.Data))
	}
	main := pr.Main()
	if main == nil || len(main.Blocks) != 5 {
		t.Fatalf("main blocks: %v", main)
	}
	// Branch wiring: taken→neg, fall→pos (the branch lives in "after").
	var after *Block
	for _, b := range main.Blocks {
		if b.Label == "after" {
			after = b
		}
	}
	if after == nil {
		t.Fatal("block 'after' missing")
	}
	if after.TakenSucc() == nil || after.TakenSucc().Label != "neg" {
		t.Errorf("taken successor wrong: %v", after.TakenSucc())
	}
	if after.FallSucc().Label != "pos" {
		t.Errorf("fall successor wrong: %v", after.FallSucc())
	}
	// The call block falls through to its continuation.
	if main.Entry.FallSucc() != after {
		t.Errorf("call continuation wrong: %v", main.Entry.FallSucc())
	}
}

func TestParseErrors(t *testing.T) {
	cases := []struct {
		name, src, err string
	}{
		{"no main", ".proc foo\n\thalt\n", "prog: no .proc main"},
		{"bad mnemonic", ".proc main\n\tfrobnicate r1, r2, r3\n\thalt\n", `line 2: unknown mnemonic "frobnicate"`},
		{"bad register", ".proc main\n\tadd r99, r1, r2\n\thalt\n", `line 2: architectural register out of range: "r99"`},
		{"bad third register", ".proc main\n\tadd r1, r2, r99\n\thalt\n", `line 2: architectural register out of range: "r99"`},
		{"bad third register name", ".proc main\n\tadd r1, r2, rx\n\thalt\n", `line 2: bad register "rx"`},
		{"virtual register past the cap", ".proc main\n\taddi v65536, r0, 1\n\thalt\n", `line 2: virtual register out of range: "v65536"`},
		{"huge virtual register", ".proc main\n\taddi v100000000, r0, 1\n\thalt\n", `line 2: virtual register out of range: "v100000000"`},
		{"int32-max virtual register", ".proc main\n\taddi v1, v2147483647, 1\n\thalt\n", `line 2: virtual register out of range: "v2147483647"`},
		{"virtual register past uint32", ".proc main\n\tadd v1, v2, v4294967300\n\thalt\n", `line 2: virtual register out of range: "v4294967300"`},
		{"undefined label", ".proc main\n\tj nowhere\n", `undefined label "nowhere" in "j nowhere"`},
		{"boost suffix", ".proc main\n\tadd r1.B2, r2, r3\n\thalt\n", `line 2: boost suffix not allowed in source: "r1.B2"`},
		{"imm on reg op", ".proc main\n\tadd r1, r2, 5\n\thalt\n", "line 2: add takes a register"},
		{"reg on imm op", ".proc main\n\taddi r1, r2, r3\n\thalt\n", "line 2: addi takes an immediate"},
		{"branch without targets", ".proc main\n\tbeq r1, r2\n\thalt\n", "line 2: branch needs taken and fall targets"},
		{"dangling fallthrough", ".proc main\nstart:\n\tadd r1, r1, r1\n", "proc main: fall-through block B0(start) has 0 successors"},
		{"duplicate label", ".proc main\nx:\n\tadd r1, r1, r1\nx:\n\thalt\n", `line 4: duplicate block label "x"`},
		{"bad word", ".word x\n.proc main\n\thalt\n", "line 1: strconv.ParseInt: parsing \"x\": invalid syntax"},
		{"two words", ".word 1 2\n.proc main\n\thalt\n", "line 1: strconv.ParseInt: parsing \"1 2\": invalid syntax"},
		{"bad byte", ".byte 1 zz\n.proc main\n\thalt\n", "line 1: strconv.ParseInt: parsing \"zz\": invalid syntax"},
		{"bad ascii", ".ascii hi\n.proc main\n\thalt\n", "line 1: bad .ascii string: invalid syntax"},
		{"text after ascii", ".ascii \"a\" b\n.proc main\n\thalt\n", "line 1: bad .ascii string: invalid syntax"},
		{"only a comment for a proc name", ".proc ; the entry\n\thalt\n", "line 1: empty procedure name"},
		{"zero align", ".align 0\n.proc main\n\thalt\n", "line 1: bad alignment 0"},
		{"bad align", ".align x\n.proc main\n\thalt\n", "line 1: strconv.ParseInt: parsing \"x\": invalid syntax"},
		{"negative reserve", ".reserve -1\n.proc main\n\thalt\n", "line 1: bad reserve size -1"},
		{"huge reserve", ".reserve 99999999999\n.proc main\n\thalt\n", "line 1: bad reserve size 99999999999"},
		{"empty proc name", ".proc \n\thalt\n", "line 1: instruction outside .proc: \".proc\""},
		{"duplicate proc", ".proc main\n\thalt\n.proc main\n\thalt\n", "line 3: duplicate procedure \"main\""},
		{"label outside proc", "x:\n.proc main\n\thalt\n", "line 1: label outside .proc"},
		{"instruction outside proc", "\tadd r1, r2, r3\n.proc main\n\thalt\n", "line 1: instruction outside .proc: \"add r1, r2, r3\""},
		{"instruction after halt", ".proc main\n\thalt\n\tadd r1, r2, r3\n", "line 3: instruction after block end without a label: \"add r1, r2, r3\""},
		{"instruction after call", ".proc main\n\tjal foo\n\tadd r1, r2, r3\n", "line 3: block B0(entry) has no terminator or fall-through target"},
		{"li arity", ".proc main\n\tli r1\n\thalt\n", "line 2: li needs rd, imm"},
		{"li value", ".proc main\n\tli r1, zz\n\thalt\n", "line 2: strconv.ParseInt: parsing \"zz\": invalid syntax"},
		{"li register", ".proc main\n\tli q1, 4\n\thalt\n", "line 2: bad register \"q1\""},
		{"move arity", ".proc main\n\tmove r1\n\thalt\n", "line 2: move needs rd, rs"},
		{"move register", ".proc main\n\tmove r1, q\n\thalt\n", "line 2: bad register \"q\""},
		{"out arity", ".proc main\n\tout\n\thalt\n", "line 2: out needs a register"},
		{"jump target", ".proc main\n\tj\n", "line 2: jump needs a target"},
		{"jal arity", ".proc main\n\tjal\n", "line 2: jal needs a procedure name"},
		{"undefined callee", ".proc main\n\tjal foo -> x\nx:\n\thalt\n", "proc main: call to undefined proc \"foo\""},
		{"jr arity", ".proc main\n\tjr\n", "line 2: jr needs a register"},
		{"jr two operands", ".proc main\n\tjr r1, r2\n", "line 2: jr needs a register"},
		{"beq arity", ".proc main\n\tbeq r1\n\thalt\n", "line 2: beq needs two registers"},
		{"bgtz arity", ".proc main\n\tbgtz\n\thalt\n", "line 2: bgtz needs a register"},
		{"one branch target", ".proc main\n\tbgtz r1, a\n\thalt\n", "line 2: branch needs taken and fall targets"},
		{"load arity", ".proc main\n\tlw r1\n\thalt\n", "line 2: lw needs rd, off(base)"},
		{"load operand", ".proc main\n\tlw r1, 4\n\thalt\n", "line 2: bad memory operand \"4\""},
		{"load offset", ".proc main\n\tlw r1, x(r2)\n\thalt\n", "line 2: strconv.ParseInt: parsing \"x\": invalid syntax"},
		{"load base", ".proc main\n\tlw r1, 4(q2)\n\thalt\n", "line 2: bad register \"q2\""},
		{"store arity", ".proc main\n\tsw r1\n\thalt\n", "line 2: sw needs rt, off(base)"},
		{"store operand", ".proc main\n\tsw r1, 4)r2(\n\thalt\n", "line 2: bad memory operand \"4)r2(\""},
		{"lui arity", ".proc main\n\tlui r1\n\thalt\n", "line 2: lui needs rd, imm"},
		{"lui value", ".proc main\n\tlui r1, zz\n\thalt\n", "line 2: strconv.ParseInt: parsing \"zz\": invalid syntax"},
		{"alu arity", ".proc main\n\tadd r1, r2\n\thalt\n", "line 2: add needs 3 operands"},
		{"alu immediate", ".proc main\n\taddi r1, r2, zz\n\thalt\n", "line 2: strconv.ParseInt: parsing \"zz\": invalid syntax"},
		{"alu source", ".proc main\n\tadd r1, q2, r3\n\thalt\n", "line 2: bad register \"q2\""},
		{"bare r", ".proc main\n\tadd r, r2, r3\n\thalt\n", "line 2: bad register \"r\""},
		{"negative arch register", ".proc main\n\tadd r-1, r2, r3\n\thalt\n", "line 2: bad register \"r-1\""},
		{"negative virtual register", ".proc main\n\tadd v-1, r2, r3\n\thalt\n", "line 2: bad register \"v-1\""},
		{"fallthrough annotation on an instruction", ".proc main\n\tadd r1, r2, r3 ;fallthrough -> nowhere\n", "proc main: fall-through block B0(entry) has 0 successors"},
		{"fallthrough before a block", ".proc main\n;fallthrough -> x\n", "line 2: fallthrough outside a block"},
		{"fallthrough before a proc", ";fallthrough -> x\n.proc main\n\thalt\n", "line 1: fallthrough outside a block"},
		{"instruction after jump", ".proc main\nx:\n\tadd r1, r1, r1\n\tj x\n\tadd r2, r2, r2\n", "proc main: fall-through block B1(entry) has 0 successors"},
		{"branch missing fall target", ".proc main\nx:\n\tbeq r1, r2, x\n", "line 3: branch needs taken and fall targets"},
		{"byte after reserve", ".word 1\n.reserve 8\n.byte 1\n.proc main\n\thalt\n", "line 3: .byte after .reserve would overlap the reserved bytes"},
		{"word after reserve", ".reserve 8\n.word 1\n.proc main\n\thalt\n", "line 2: .word after .reserve would overlap the reserved bytes"},
		{"ascii after reserve", ".reserve 8\n.ascii \"x\"\n.proc main\n\thalt\n", "line 2: .ascii after .reserve would overlap the reserved bytes"},
		{"padding align after reserve", ".byte 1\n.reserve 8\n.align 8\n.proc main\n\thalt\n", "line 3: .align after .reserve would overlap the reserved bytes"},
		{"data after a later reserve", ".proc main\n\thalt\n.reserve 4\n.byte 0\n", "line 4: .byte after .reserve would overlap the reserved bytes"},
	}
	for _, c := range cases {
		_, err := Parse(c.src)
		if err == nil {
			t.Errorf("%s: expected error %q", c.name, c.err)
		} else if err.Error() != c.err {
			t.Errorf("%s: error %q, want %q", c.name, err, c.err)
		}
	}
}

func TestParseMemOperands(t *testing.T) {
	pr, err := Parse(".proc main\n\tlw r5, -8(r29)\n\tsw r5, (r29)\n\thalt\n")
	if err != nil {
		t.Fatal(err)
	}
	insts := pr.Main().Entry.Insts
	if insts[0].Imm != -8 || insts[0].Rs != isa.SP {
		t.Errorf("lw parsed as %+v", insts[0])
	}
	if insts[1].Imm != 0 || insts[1].Rt != isa.Reg(5) {
		t.Errorf("sw parsed as %+v", insts[1])
	}
}

// TestFormatParseRoundTrip: FormatProgram output re-parses into a program
// with identical observable behavior.
func TestFormatParseRoundTrip(t *testing.T) {
	pr := New()
	arr := pr.Words(5, 10, 15)
	pr.Reserve(8)
	f := NewBuilder(pr, "main")
	loop := f.Block("loop")
	done := f.Block("done")
	i, sum, base, v := f.Reg(), f.Reg(), f.Reg(), f.Reg()
	f.Li(i, 3)
	f.Li(sum, 0)
	f.La(base, arr)
	f.Goto(loop)
	f.Enter(loop)
	f.Load(isa.LW, v, base, 0)
	f.ALU(isa.ADD, sum, sum, v)
	f.Imm(isa.ADDI, base, base, 4)
	f.Imm(isa.ADDI, i, i, -1)
	f.Branch(isa.BGTZ, i, isa.R0, loop, done)
	f.Enter(done)
	f.Out(sum)
	f.Halt()
	f.Finish()

	text := FormatProgram(pr)
	back, err := Parse(text)
	if err != nil {
		t.Fatalf("round trip parse failed: %v\nsource:\n%s", err, text)
	}
	if err := VerifyProgram(back); err != nil {
		t.Fatal(err)
	}
	if len(back.Data) != len(pr.Data) || back.BSS != pr.BSS {
		t.Errorf("data segment differs: %d/%d vs %d/%d",
			len(back.Data), back.BSS, len(pr.Data), pr.BSS)
	}
	if back.Main().NumInsts() != pr.Main().NumInsts() {
		t.Errorf("instruction count differs: %d vs %d",
			back.Main().NumInsts(), pr.Main().NumInsts())
	}
	// Re-format should be stable (idempotent after one round).
	if again := FormatProgram(back); again != text {
		t.Errorf("re-format not stable:\n--- first\n%s\n--- second\n%s", text, again)
	}
}

func TestParsePredictionAnnotations(t *testing.T) {
	src := `.proc main
a:
	addi v0, r0, 1
	bgtz v0 ;taken ;taken->a fall->b
b:
	halt
`
	pr, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	term := pr.Main().Entry.Terminator()
	if term == nil || !term.Pred {
		t.Error("prediction bit not parsed")
	}
	if !strings.Contains(Format(pr.Main()), ";taken") {
		t.Error("prediction bit not printed")
	}
}

// TestParseAcceptedSpellings pins the lenient spellings the parser
// accepts: each source must parse to exactly the program its canonical
// spelling parses to. They cover strconv's number syntax (base prefixes,
// underscores, signs), Atoi's sign and leading zeros on register numbers,
// mnemonic case, tabs and Unicode spaces as separators, comments after
// directives, and the annotation forms.
func TestParseAcceptedSpellings(t *testing.T) {
	cases := []struct{ name, src, canon string }{
		{"number syntax",
			".word 0x10\n.word -0b11\n.word 0o17\n.word 1_000\n.byte 0x7f +1 0b1\n.align 0x8\n.reserve 0x10\n.proc main\n\tli v0, 0x12_345\n\taddi v1, v0, -0x8\n\tlw v2, 0x4(v1)\n\tlui v3, 0b101\n\thalt\n",
			".word 16\n.word -3\n.word 15\n.word 1000\n.byte 127 1 1\n.align 8\n.reserve 16\n.proc main\n\tli v0, 74565\n\taddi v1, v0, -8\n\tlw v2, 4(v1)\n\tlui v3, 5\n\thalt\n"},
		{"octal and long decimals",
			".word 010\n.word -010\n.word -0\n.word 999999999\n.word 1234567890\n.proc main\n\taddi v0, r0, -07\n\thalt\n",
			".word 8\n.word -8\n.word 0\n.word 0x3b9ac9ff\n.word 0x499602D2\n.proc main\n\taddi v0, r0, -7\n\thalt\n"},
		{"register signs",
			".proc main\n\taddi v+3, r+0, 1\n\tadd r+4, v+3, r0\n\thalt\n",
			".proc main\n\taddi v3, r0, 1\n\tadd r4, v3, r0\n\thalt\n"},
		{"case and separators",
			".proc main\n\tADDI\tv1,r0,1\n \tAdd  v2 ,  v1,v1  \n\tOUT v2\n\tHALT\n",
			".proc main\n\taddi v1, r0, 1\n\tadd v2, v1, v1\n\tout v2\n\thalt\n"},
		{"unicode spaces",
			"\u00a0.proc main\u00a0\n\u2003addi\u2003v1, r0, 1\u3000\n;fallthrough\u00a0->\u2003end\nend:\u00a0\n\thalt\u2003\n",
			".proc main\n\taddi v1, r0, 1\n;fallthrough -> end\nend:\n\thalt\n"},
		{"comments and annotations",
			"# header\n.proc main\na: ; entry\n\taddi v0, r0, 1 ; set\n\tbgtz v0 ; taken ; taken->a  fall->b\nb:\n\tj -> c ; done\nc:\n\thalt # stop\n",
			".proc main\na:\n\taddi v0, r0, 1\n\tbgtz v0, a, b ;taken\nb:\n\tj c\nc:\n\thalt\n"},
		{"directive comments",
			".word 5 ; five\n.byte 1 2;pair\n.ascii \"a;b\" ; c\n.ascii \"d\";e\n.align 4 ; pad\n.reserve 8 ; bss\n.proc main ; the entry\n\thalt\n",
			".word 5\n.byte 1 2\n.ascii \"a;b\"\n.ascii \"d\"\n.align 4\n.reserve 8\n.proc main\n\thalt\n"},
		{"largest virtual register",
			".proc main\n\taddi v0065535, r0, 1\n\thalt\n",
			".proc main\n\taddi v65535, r0, 1\n\thalt\n"},
		{"arrow forms",
			".proc main\n\taddi v0, r0, 1\n\t-> b\nb:\n\taddi v1, r0, 2 ;fallthrough\n\t;fallthrough -> c\nc:\n\tjal leaf -> d\nd:\n\thalt\n.proc leaf\n\tjr r31\n",
			".proc main\n\taddi v0, r0, 1\n\t;fallthrough -> b\nb:\n\taddi v1, r0, 2\n\t;fallthrough -> c\nc:\n\tjal leaf\nd:\n\thalt\n.proc leaf\n\tjr r31\n"},
		{"implicit entry and labels",
			".proc main\n\tli v0, 65536\n\tli v1, 65537\n\tli v2, -32769\n\tmove v3, v2\n\tbeq v0, v1, B7.x, B9.y\nB7.x:\n\thalt\nB9.y:\n\thalt\n",
			".proc main\nentry:\n\tlui v0, 1\n\tlui v1, 1\n\tori v1, v1, 1\n\tlui v2, 65535\n\tori v2, v2, 32767\n\tor v3, v2, r0\n\tbeq v0, v1, x, y\nx:\n\thalt\ny:\n\thalt\n"},
	}
	for _, c := range cases {
		got, err := Parse(c.src)
		if err != nil {
			t.Errorf("%s: %v", c.name, err)
			continue
		}
		want, err := Parse(c.canon)
		if err != nil {
			t.Fatalf("%s: canonical source: %v", c.name, err)
		}
		if g, w := parsedListing(got), parsedListing(want); g != w {
			t.Errorf("%s: parsed as\n%s\nwant\n%s", c.name, g, w)
		}
	}
}

// parsedListing renders everything a parse decides: the listing, each
// instruction's fields, the data image and the counters.
func parsedListing(pr *Program) string {
	var sb strings.Builder
	sb.WriteString(FormatProgram(pr))
	for _, p := range pr.ProcList() {
		for _, b := range p.Blocks {
			for i := range b.Insts {
				fmt.Fprintf(&sb, "%+v\n", b.Insts[i])
			}
		}
	}
	next, nv := pr.Counters()
	fmt.Fprintf(&sb, "data %v bss %d counters %d %d\n", pr.Data, pr.BSS, next, nv)
	return sb.String()
}

// TestParseReserveLast: directives after .reserve that add no data bytes
// are accepted, as is data after an empty reserve, and the data image
// and BSS come out as written.
func TestParseReserveLast(t *testing.T) {
	cases := []struct {
		name, src string
		data, bss int
	}{
		{"data then reserve", ".word 1\n.byte 2\n.reserve 8\n.proc main\n\thalt\n", 8, 8},
		{"aligned align after reserve", ".byte 1\n.reserve 8\n.align 4\n.align 2\n.proc main\n\thalt\n", 4, 8},
		{"empty ascii after reserve", ".reserve 8\n.ascii \"\"\n.proc main\n\thalt\n", 0, 8},
		{"data after an empty reserve", ".byte 1\n.reserve 0\n.byte 2\n.proc main\n\thalt\n", 5, 0},
		{"two reserves", ".reserve 8\n.reserve 4\n.proc main\n\thalt\n", 0, 12},
	}
	for _, c := range cases {
		pr, err := Parse(c.src)
		if err != nil {
			t.Errorf("%s: %v", c.name, err)
			continue
		}
		if len(pr.Data) != c.data || pr.BSS != c.bss {
			t.Errorf("%s: data %d bytes, BSS %d; want %d and %d", c.name, len(pr.Data), pr.BSS, c.data, c.bss)
		}
	}
}

// TestParsedBlocksOwnTheirInstructions: the parser carves every block's
// instructions from a shared chunk, so an append to one block must not
// reach the instructions of the block after it.
func TestParsedBlocksOwnTheirInstructions(t *testing.T) {
	var src strings.Builder
	src.WriteString(".proc main\n")
	for i := 0; i < 40; i++ {
		fmt.Fprintf(&src, "b%d:\n\taddi v0, v0, %d\n\taddi v1, v1, %d\n\t;fallthrough -> b%d\n", i, i, i, i+1)
	}
	src.WriteString("b40:\n\thalt\n")
	pr, err := Parse(src.String())
	if err != nil {
		t.Fatal(err)
	}
	blocks := pr.Main().Blocks
	for i, b := range blocks[:len(blocks)-1] {
		next := blocks[i+1]
		id, op := next.Insts[0].ID, next.Insts[0].Op
		b.Insts = append(b.Insts, isa.Inst{Op: isa.NOP})
		if next.Insts[0].ID != id || next.Insts[0].Op != op {
			t.Fatalf("appending to %s overwrote %s's first instruction", b, next)
		}
	}
}
