package sim_test

import (
	"testing"

	"boosting/internal/core"
	"boosting/internal/machine"
	"boosting/internal/memhier"
	"boosting/internal/prog"
	"boosting/internal/sim"
)

// simcoreWorkloads are the benchmark programs: the two longest-running
// kernels, on the deepest boosting model, where executor overhead
// dominates.
var simcoreWorkloads = []string{"eqntott", "espresso"}

func scheduleBoost7(tb testing.TB, name string) *machine.SchedProgram {
	tb.Helper()
	master := compileWorkload(tb, name)
	sp, err := core.Schedule(prog.Clone(master), machine.Boost7(), core.Options{})
	if err != nil {
		tb.Fatal(err)
	}
	return sp
}

// runner returns a function that runs sp on exec under cfg.
func runner(tb testing.TB, exec executor, sp *machine.SchedProgram, cfg sim.ExecConfig) func() {
	return func() {
		if _, err := exec(sp, cfg); err != nil {
			tb.Fatal(err)
		}
	}
}

// BenchmarkSimCore measures whole-run simulation throughput of the fast
// core and of the oracle interpreter ("legacy") on the long kernels,
// reporting allocations and normalized ns per simulated machine cycle.
func BenchmarkSimCore(b *testing.B) {
	executors := []struct {
		name string
		exec executor
	}{{"fast", sim.Exec}, {"legacy", sim.ExecOracle}}
	for _, name := range simcoreWorkloads {
		sp := scheduleBoost7(b, name)
		for _, e := range executors {
			b.Run(e.name+"/"+name, func(b *testing.B) {
				b.ReportAllocs()
				var cycles int64
				for i := 0; i < b.N; i++ {
					res, err := e.exec(sp, sim.ExecConfig{})
					if err != nil {
						b.Fatal(err)
					}
					cycles = res.Cycles
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(cycles), "ns/simcycle")
			})
		}
	}
}

// memhierBenchConfigs are the hierarchies under test: the stock two-level
// configuration, and the busiest one (stride prefetcher on a small L1,
// so the MSHR and prefetch paths run constantly).
func memhierBenchConfigs() map[string]memhier.Config {
	busy := memhier.Default()
	busy.L1 = memhier.CacheConfig{Sets: 64, Ways: 1, LineBytes: 16}
	busy.Prefetch = "stride"
	return map[string]memhier.Config{
		"default": memhier.Default(),
		"busy":    busy,
	}
}

// memhierBenchOrder fixes the measurement order for deterministic output.
var memhierBenchOrder = []string{"default", "busy"}

// BenchmarkMemHier measures whole-run fast-core throughput with each
// hierarchy in front of it, against the perfect-memory run as the
// reference point, reporting ns per demand access.
func BenchmarkMemHier(b *testing.B) {
	sp := scheduleBoost7(b, "eqntott")
	b.Run("perfect", func(b *testing.B) {
		b.ReportAllocs()
		run := runner(b, sim.Exec, sp, sim.ExecConfig{})
		for i := 0; i < b.N; i++ {
			run()
		}
	})
	for _, name := range memhierBenchOrder {
		cfg := memhierBenchConfigs()[name]
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			var accesses int64
			for i := 0; i < b.N; i++ {
				res, err := sim.Exec(sp, sim.ExecConfig{Mem: &cfg})
				if err != nil {
					b.Fatal(err)
				}
				accesses = res.Mem.Accesses
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(accesses), "ns/access")
		})
	}
}

// TestMemHierCounts pins the timing model's demand accesses and stall
// cycles on eqntott/Boost7 under each benchmark hierarchy. The counts are
// deterministic: a change in the model's behavior must update them.
func TestMemHierCounts(t *testing.T) {
	want := map[string][2]int64{ // accesses, stall cycles
		"default": {71824, 12215},
		"busy":    {71824, 2410},
	}
	sp := scheduleBoost7(t, "eqntott")
	for _, name := range memhierBenchOrder {
		cfg := memhierBenchConfigs()[name]
		res, err := sim.Exec(sp, sim.ExecConfig{Mem: &cfg})
		if err != nil {
			t.Fatal(err)
		}
		if got := [2]int64{res.Mem.Accesses, res.Mem.StallCycles}; got != want[name] {
			t.Errorf("%s: accesses, stall cycles = %v, want %v", name, got, want[name])
		}
	}
}
