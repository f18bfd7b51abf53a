package prog_test

import (
	"testing"

	"boosting/internal/prog"
	"boosting/internal/testgen"
)

// poolAsm returns the text of generated program j, drawn like the
// schedule golden's and the service benchmark's pool.
func poolAsm(j int) string {
	return prog.FormatProgram(testgen.Random(int64(1000+j), testgen.RandomShape(int64(j)+1)))
}

// lineSplitParseAllocs are the allocations per Parse call of pool
// programs 0..15 made by the parser that split the text into lines and
// fields and verified every procedure twice.
var lineSplitParseAllocs = [16]float64{
	506, 722, 533, 671, 656, 772, 1521, 460,
	472, 362, 222, 728, 439, 644, 552, 541,
}

// TestParseAllocations pins the allocation drop of the scanning parser:
// over 16 pool programs, Parse makes at most half the allocations the
// line-splitting parser made. Allocation counts are deterministic, so
// this is an ordinary test.
func TestParseAllocations(t *testing.T) {
	var got, was float64
	for j, w := range lineSplitParseAllocs {
		asm := poolAsm(j)
		n := testing.AllocsPerRun(3, func() {
			if _, err := prog.Parse(asm); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("asm %2d: %5.0f allocations (line-splitting parser %5.0f)", j, n, w)
		got += n
		was += w
	}
	t.Logf("total: %.0f of %.0f (%.0f%%)", got, was, 100*got/was)
	if got > 0.50*was {
		t.Errorf("Parse allocates %.0f objects, %.0f%% of the line-splitting parser's %.0f (want <= 50%%)", got, 100*got/was, was)
	}
}
