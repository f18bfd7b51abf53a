package core

import (
	"fmt"
	"testing"

	"boosting/internal/prog"
)

// offTraceCallAsm is a register-allocated loop whose head and join are
// control-equivalent, with a call to leaf on the rarely taken path
// between them. The entry block, the join's first instruction and leaf's
// body are the three %s holes.
const offTraceCallAsm = `.word 1
.word 1
.word 0
.word 1
.word 1
.word 1
.word 0
.word 1
.proc main
entry:
	li r16, 0x10000
	li r17, 8
	li r18, 0
	%s
	;fallthrough -> head
head:
	lw r9, 0(r16)
	beq r9, r0, call, skip
skip:
	j join
call:
	jal leaf -> join
join:
	%s
	add r18, r18, r10
	addi r16, r16, 4
	addi r17, r17, -1
	bgtz r17, head, done
done:
	out r18
	halt
.proc leaf
entry:
	%s
	jr r31
`

// TestEquivalenceSeesCallees: moving an instruction from the join into
// the head through the equivalence shortcut crosses the off-trace call,
// so the call must count as reading and writing every register its
// callee does. Each case's join instruction conflicts with leaf only
// through a register that is neither RV nor RA.
func TestEquivalenceSeesCallees(t *testing.T) {
	for _, tc := range []struct {
		name, entry, join, leaf string
	}{
		// Moved up, the add would read r8 before leaf wrote it.
		{"callee writes an operand", "li r8, 1", "add r10, r8, r8", "addi r8, r0, 7"},
		// Moved up, the addi would change the r4 leaf reads.
		{"callee reads the destination", "li r4, 1", "addi r4, r4, 3\n\tadd r10, r2, r0", "add r2, r4, r4"},
	} {
		src := fmt.Sprintf(offTraceCallAsm, tc.entry, tc.join, tc.leaf)
		if _, err := prog.Parse(src); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		build := func() *prog.Program {
			pr, _ := prog.Parse(src) // parsed above
			return pr
		}
		for _, m := range allModels() {
			t.Run(tc.name+"/"+m.Name, func(t *testing.T) {
				checkEquivalent(t, build, compile(t, build, m, Options{}))
			})
		}
	}
}
