package core

// The scheduler on the service's traffic: generated assembly programs
// drawn like the asm-serve benchmark's pool, compiled the way
// Pipeline.CompileAsm compiles them (parse, register allocation, a
// profile trained on the program's own input).
//
//	go test -run XXX -bench BenchmarkScheduleAsmPool -benchmem ./internal/core/

import (
	"sync"
	"testing"

	"boosting/internal/machine"
	"boosting/internal/profile"
	"boosting/internal/prog"
	"boosting/internal/regalloc"
	"boosting/internal/testgen"
)

// asmPoolSize matches the root schedule golden's generated programs.
const asmPoolSize = 128

// asmPoolModels rotate over the pool like the benchmark's request models.
var asmPoolModels = []*machine.Model{
	machine.NoBoost(), machine.Squashing(), machine.Boost1(), machine.MinBoost3(), machine.Boost7(),
}

var asmPoolMasters sync.Map

// asmPoolProgram returns generated program j: testgen.Random(1000+j)
// within testgen.RandomShape(j+1), sent through its assembly text,
// register-allocated and self-profiled. Callers schedule clones.
func asmPoolProgram(tb testing.TB, j int) *prog.Program {
	tb.Helper()
	if m, ok := asmPoolMasters.Load(j); ok {
		return m.(*prog.Program)
	}
	asm := prog.FormatProgram(testgen.Random(int64(1000+j), testgen.RandomShape(int64(j)+1)))
	pr, err := prog.Parse(asm)
	if err != nil {
		tb.Fatalf("asm %d: %v", j, err)
	}
	if _, err := regalloc.Allocate(pr); err != nil {
		tb.Fatalf("asm %d: %v", j, err)
	}
	if err := profile.Annotate(pr); err != nil {
		tb.Fatalf("asm %d: %v", j, err)
	}
	asmPoolMasters.Store(j, pr)
	return pr
}

// mapBasedAllocs are the allocations per Schedule call the list
// scheduler made while its per-trace state lived in maps keyed by node,
// for pool programs 0..15: the R2000 baseline's LocalOnly schedule and
// Boost7's.
var mapBasedAllocs = [16]struct{ scalar, boost7 float64 }{
	{1328, 1233}, {2116, 2000}, {4325, 3965}, {1594, 1663},
	{1852, 1855}, {1985, 2992}, {4112, 5039}, {1410, 1265},
	{1430, 1483}, {1064, 907}, {683, 566}, {1833, 1794},
	{1153, 1195}, {2257, 2254}, {7625, 7087}, {1445, 1363},
}

// TestScheduleAllocations pins the allocation drop of the dense list
// scheduler: over 16 pool programs, the LocalOnly R2000 schedule makes at
// most half the allocations it made with map-based per-trace state, and
// Boost7's schedule at most 65%. Allocation counts are deterministic, so
// this is an ordinary test.
func TestScheduleAllocations(t *testing.T) {
	const runs = 3
	measure := func(master *prog.Program, model *machine.Model, opts Options) float64 {
		clones := make([]*prog.Program, runs+1)
		for i := range clones {
			clones[i] = prog.Clone(master)
		}
		next := 0
		return testing.AllocsPerRun(runs, func() {
			pr := clones[next]
			next++
			if _, err := Schedule(pr, model, opts); err != nil {
				t.Fatal(err)
			}
		})
	}
	var scalar, boost7, mapScalar, mapBoost7 float64
	for j, was := range mapBasedAllocs {
		master := asmPoolProgram(t, j)
		s := measure(master, machine.Scalar(), Options{LocalOnly: true})
		b := measure(master, machine.Boost7(), Options{})
		t.Logf("asm %2d: scalar-local %6.0f (map-based %6.0f)  Boost7 %6.0f (map-based %6.0f)", j, s, was.scalar, b, was.boost7)
		scalar += s
		boost7 += b
		mapScalar += was.scalar
		mapBoost7 += was.boost7
	}
	t.Logf("total: scalar-local %.0f of %.0f (%.0f%%), Boost7 %.0f of %.0f (%.0f%%)",
		scalar, mapScalar, 100*scalar/mapScalar, boost7, mapBoost7, 100*boost7/mapBoost7)
	if scalar > 0.50*mapScalar {
		t.Errorf("LocalOnly R2000 schedules allocate %.0f objects, %.0f%% of the map-based scheduler's %.0f (want <= 50%%)",
			scalar, 100*scalar/mapScalar, mapScalar)
	}
	if boost7 > 0.65*mapBoost7 {
		t.Errorf("Boost7 schedules allocate %.0f objects, %.0f%% of the map-based scheduler's %.0f (want <= 65%%)",
			boost7, 100*boost7/mapBoost7, mapBoost7)
	}
}

// BenchmarkScheduleAsmPool schedules every pool program once per
// iteration: scalar-local is the R2000 baseline a service request
// computes, model the request's own schedule (models rotate NoBoost to
// Boost7 over the pool). Clones are made outside the timed span.
func BenchmarkScheduleAsmPool(b *testing.B) {
	masters := make([]*prog.Program, asmPoolSize)
	for j := range masters {
		masters[j] = asmPoolProgram(b, j)
	}
	run := func(b *testing.B, model func(j int) *machine.Model, opts Options) {
		b.ReportAllocs()
		clones := make([]*prog.Program, len(masters))
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			for j, m := range masters {
				clones[j] = prog.Clone(m)
			}
			b.StartTimer()
			for j, pr := range clones {
				if _, err := Schedule(pr, model(j), opts); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
	scalar := machine.Scalar()
	b.Run("scalar-local", func(b *testing.B) {
		run(b, func(int) *machine.Model { return scalar }, Options{LocalOnly: true})
	})
	b.Run("model", func(b *testing.B) {
		run(b, func(j int) *machine.Model { return asmPoolModels[j%len(asmPoolModels)] }, Options{})
	})
}
