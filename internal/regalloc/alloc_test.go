package regalloc

import (
	"testing"

	"boosting/internal/prog"
	"boosting/internal/testgen"
)

// mapBasedAllocateAllocs are the allocations per Allocate call of pool
// programs 0..15 (generated like the schedule golden's and the service
// benchmark's pool, then parsed) made by the allocator that kept its
// interference graph, assignment and temporaries in maps and rewrote
// every block on every spill.
var mapBasedAllocateAllocs = [16]float64{
	282, 214, 550, 349, 295, 378, 854, 213,
	193, 145, 53, 390, 197, 178, 905, 194,
}

// TestAllocateAllocations pins the allocation drop of the dense
// allocator: over 16 pool programs, Allocate makes at most half the
// allocations the map-based allocator made. Allocation counts are
// deterministic, so this is an ordinary test.
func TestAllocateAllocations(t *testing.T) {
	const runs = 3
	var got, was float64
	for j, w := range mapBasedAllocateAllocs {
		asm := prog.FormatProgram(testgen.Random(int64(1000+j), testgen.RandomShape(int64(j)+1)))
		fresh := make([]*prog.Program, runs+1)
		for i := range fresh {
			pr, err := prog.Parse(asm)
			if err != nil {
				t.Fatal(err)
			}
			fresh[i] = pr
		}
		next := 0
		n := testing.AllocsPerRun(runs, func() {
			pr := fresh[next]
			next++
			if _, err := Allocate(pr); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("asm %2d: %5.0f allocations (map-based allocator %5.0f)", j, n, w)
		got += n
		was += w
	}
	t.Logf("total: %.0f of %.0f (%.0f%%)", got, was, 100*got/was)
	if got > 0.50*was {
		t.Errorf("Allocate allocates %.0f objects, %.0f%% of the map-based allocator's %.0f (want <= 50%%)", got, 100*got/was, was)
	}
}
