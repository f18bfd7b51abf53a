package core

import (
	"sync"
	"testing"

	"boosting/internal/machine"
	"boosting/internal/profile"
	"boosting/internal/prog"
	"boosting/internal/regalloc"
	"boosting/internal/workloads"
)

// compileBenchModels are the configurations the benchmark schedules for:
// no speculation, the minimal boosting machine, and the deepest one.
func compileBenchModels() []*machine.Model {
	return []*machine.Model{machine.NoBoost(), machine.MinBoost3(), machine.Boost7()}
}

// benchMasters memoizes built (allocated, profiled) test programs per
// workload; every measurement schedules a fresh clone of the master.
var benchMasters sync.Map

func benchMaster(tb testing.TB, w *workloads.Workload) *prog.Program {
	tb.Helper()
	if m, ok := benchMasters.Load(w.Name); ok {
		return m.(*prog.Program)
	}
	train := w.BuildTrain()
	test := w.BuildTest()
	if _, err := regalloc.Allocate(train); err != nil {
		tb.Fatal(err)
	}
	if _, err := regalloc.Allocate(test); err != nil {
		tb.Fatal(err)
	}
	if err := profile.Annotate(train); err != nil {
		tb.Fatal(err)
	}
	if err := profile.Transfer(train, test); err != nil {
		tb.Fatal(err)
	}
	benchMasters.Store(w.Name, test)
	return test
}

// BenchmarkCompile measures end-to-end Schedule time for every workload
// on the three benchmark models.
func BenchmarkCompile(b *testing.B) {
	for _, w := range workloads.All() {
		master := benchMaster(b, w)
		for _, model := range compileBenchModels() {
			b.Run(w.Name+"/"+model.Name, func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					b.StopTimer()
					test := prog.Clone(master)
					b.StartTimer()
					if _, err := Schedule(test, model, Options{}); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
