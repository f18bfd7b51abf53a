package sim

import (
	"testing"

	"boosting/internal/machine"
	"boosting/internal/prog"
)

// TestPredecodeTokenOrder pins the dense block numbering to the link
// table's token numbering: the fast core resolves return tokens by array
// arithmetic, so the two orders must never drift apart. The program has
// two procedures so cross-procedure ordering is exercised.
func TestPredecodeTokenOrder(t *testing.T) {
	pr := prog.New()
	cb := prog.NewBuilder(pr, "callee")
	cb.Ret()
	cb.Finish()
	mb := prog.NewBuilder(pr, "main")
	mb.Call("callee")
	mb.Halt()
	mb.Finish()

	sp := &machine.SchedProgram{
		Prog:  pr,
		Model: machine.NoBoost(),
		Procs: map[string]*machine.SchedProc{
			"main": {Proc: pr.Main(), Blocks: map[int]*machine.SchedBlock{}},
		},
	}
	// The schedules themselves are irrelevant to block numbering; an
	// unscheduled program predecodes fine as long as main exists.
	pd, err := Predecode(sp)
	if err != nil {
		t.Fatal(err)
	}
	lt := buildLinkTable(pr)
	if len(lt.toBlock) != len(pd.blocks) {
		t.Fatalf("block count: link table %d, predecoded %d", len(lt.toBlock), len(pd.blocks))
	}
	for i, ref := range lt.toBlock {
		fb := &pd.blocks[i]
		if ref.proc.Name != fb.proc || ref.block.ID != fb.id {
			t.Fatalf("dense index %d: link table has %s/B%d, predecode has %s/B%d",
				i, ref.proc.Name, ref.block.ID, fb.proc, fb.id)
		}
		tok := lt.token(ref.proc, ref.block)
		if tok != retTokenBase+uint32(i) {
			t.Fatalf("token of %s/B%d = %#x, want %#x", ref.proc.Name, ref.block.ID, tok, retTokenBase+uint32(i))
		}
	}
}
