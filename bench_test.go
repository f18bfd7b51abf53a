// Benchmark harness: one benchmark per table and figure of the paper's
// evaluation, plus ablation benches for the design choices DESIGN.md calls
// out. Each benchmark regenerates its experiment end to end (compile,
// simulate, verify) and reports the headline numbers via b.ReportMetric,
// so `go test -bench=. -benchmem` reproduces the paper's results table by
// table.
package boosting_test

import (
	"context"
	"testing"

	"boosting/internal/core"
	"boosting/internal/dynsched"
	"boosting/internal/experiments"
	"boosting/internal/hwcost"
	"boosting/internal/machine"
	"boosting/internal/profile"
	"boosting/internal/prog"
	"boosting/internal/regalloc"
	"boosting/internal/sim"
	"boosting/internal/workloads"
)

// BenchmarkTable1 regenerates Table 1 (scalar cycles, IPC, prediction
// accuracy per benchmark) and reports the mean IPC and accuracy.
func BenchmarkTable1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := experiments.NewSuite()
		rows, err := s.Table1(context.Background())
		if err != nil {
			b.Fatal(err)
		}
		var ipc, acc float64
		for _, r := range rows {
			ipc += r.IPC
			acc += r.Accuracy
		}
		b.ReportMetric(ipc/float64(len(rows)), "mean-R2000-IPC")
		b.ReportMetric(100*acc/float64(len(rows)), "mean-accuracy-%")
	}
}

// BenchmarkFigure8 regenerates Figure 8 and reports the geometric-mean
// speedups of basic-block and global scheduling (paper: 1.14x and 1.24x).
func BenchmarkFigure8(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := experiments.NewSuite()
		_, gmBB, gmGl, err := s.Figure8(context.Background())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(gmBB, "gm-basicblock-x")
		b.ReportMetric(gmGl, "gm-global-x")
	}
}

// BenchmarkTable2 regenerates Table 2 and reports the geometric-mean
// improvement of each boosting configuration over global scheduling
// (paper: 9.9%, 17.0%, 19.3%, 20.5%).
func BenchmarkTable2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := experiments.NewSuite()
		_, geo, err := s.Table2(context.Background())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(100*geo["Squashing"], "gm-squashing-%")
		b.ReportMetric(100*geo["Boost1"], "gm-boost1-%")
		b.ReportMetric(100*geo["MinBoost3"], "gm-minboost3-%")
		b.ReportMetric(100*geo["Boost7"], "gm-boost7-%")
	}
}

// BenchmarkFigure9 regenerates Figure 9 and reports the geometric-mean
// speedups of MinBoost3 and the dynamic scheduler over the scalar machine
// (paper: both ≈1.5x).
func BenchmarkFigure9(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := experiments.NewSuite()
		_, gmMB3, gmDyn, err := s.Figure9(context.Background())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(gmMB3, "gm-minboost3-x")
		b.ReportMetric(gmDyn, "gm-dynamic-x")
	}
}

// BenchmarkExceptionOverhead measures §2.3's costs: the object-file growth
// from recovery code (paper: <2x) across the benchmark set.
func BenchmarkExceptionOverhead(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := experiments.NewSuite()
		ec, err := s.ExceptionCostsReport(context.Background())
		if err != nil {
			b.Fatal(err)
		}
		var worst float64
		for _, g := range ec.Growth {
			if g > worst {
				worst = g
			}
		}
		b.ReportMetric(worst, "worst-object-growth-x")
		b.ReportMetric(float64(ec.HandlerOverhead), "handler-cycles")
	}
}

// BenchmarkHardwareCost evaluates the §4.3.2 shadow register file cost
// model (paper: Boost1 +33%, MinBoost3 +50% decoder transistors).
func BenchmarkHardwareCost(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := hwcost.NewReport()
		b.ReportMetric(100*r.DecoderGrowth1, "boost1-decoder-%")
		b.ReportMetric(100*r.DecoderGrowth3, "minboost3-decoder-%")
	}
}

// --- ablation benches (DESIGN.md §7) ---

// ablationCycles compiles every workload under MinBoost3 with the given
// scheduler options and returns total cycles.
func ablationCycles(b *testing.B, opts core.Options) int64 {
	b.Helper()
	var total int64
	for _, w := range workloads.All() {
		train := w.BuildTrain()
		test := w.BuildTest()
		if _, err := regalloc.Allocate(train); err != nil {
			b.Fatal(err)
		}
		if _, err := regalloc.Allocate(test); err != nil {
			b.Fatal(err)
		}
		if err := profile.Annotate(train); err != nil {
			b.Fatal(err)
		}
		if err := profile.Transfer(train, test); err != nil {
			b.Fatal(err)
		}
		sp, err := core.Schedule(test, machine.MinBoost3(), opts)
		if err != nil {
			b.Fatal(err)
		}
		res, err := sim.Exec(sp, sim.ExecConfig{})
		if err != nil {
			b.Fatal(err)
		}
		total += res.Cycles
	}
	return total
}

// BenchmarkAblationEquivalence measures the value of the control/data
// equivalence shortcut (paper §3.2.2): scheduling with it disabled forces
// duplication-based bookkeeping everywhere.
func BenchmarkAblationEquivalence(b *testing.B) {
	for i := 0; i < b.N; i++ {
		with := ablationCycles(b, core.Options{})
		without := ablationCycles(b, core.Options{DisableEquivalence: true})
		b.ReportMetric(float64(without)/float64(with), "cycles-without/with")
	}
}

// BenchmarkAblationDisambiguation measures the simple base+offset memory
// disambiguator against fully conservative memory dependences (the
// paper's conclusion calls for "better memory disambiguation").
func BenchmarkAblationDisambiguation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		with := ablationCycles(b, core.Options{})
		without := ablationCycles(b, core.Options{NoDisambiguation: true})
		b.ReportMetric(float64(without)/float64(with), "cycles-without/with")
	}
}

// BenchmarkAblationTraceLength measures the value of long traces by
// capping trace growth at two blocks.
func BenchmarkAblationTraceLength(b *testing.B) {
	for i := 0; i < b.N; i++ {
		long := ablationCycles(b, core.Options{})
		short := ablationCycles(b, core.Options{MaxTraceBlocks: 2})
		b.ReportMetric(float64(short)/float64(long), "cycles-short/long")
	}
}

// BenchmarkDynamicSchedulerThroughput measures the out-of-order timing
// model's simulation rate.
func BenchmarkDynamicSchedulerThroughput(b *testing.B) {
	w, err := workloads.ByName("espresso")
	if err != nil {
		b.Fatal(err)
	}
	var pr *prog.Program
	build := func() {
		pr = w.BuildTest()
		if _, err := regalloc.Allocate(pr); err != nil {
			b.Fatal(err)
		}
	}
	build()
	b.ReportAllocs()
	b.ResetTimer()
	var cycles int64
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		build()
		b.StartTimer()
		res, err := dynsched.Simulate(pr, dynsched.Default())
		if err != nil {
			b.Fatal(err)
		}
		cycles += res.Cycles
	}
	b.ReportMetric(float64(cycles)/b.Elapsed().Seconds(), "sim-cycles/s")
}

// --- extension benches (paper §4.3.2 future-work experiments) ---

// BenchmarkExtensionUnrolling measures MinBoost3 with all innermost loops
// unrolled ×2 (the paper: "performance did increase slightly [but] well
// below what we expected").
func BenchmarkExtensionUnrolling(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := experiments.NewSuite()
		var base, unrolled int64
		for _, w := range s.Workloads {
			c, err := s.UnrolledCycles(context.Background(), w)
			if err != nil {
				b.Fatal(err)
			}
			unrolled += c
			c2, err2 := suiteMinBoost3(s, w)
			if err2 != nil {
				b.Fatal(err2)
			}
			base += c2
		}
		b.ReportMetric(float64(base)/float64(unrolled), "speedup-from-unrolling")
	}
}

// suiteMinBoost3 measures the standard MinBoost3 pipeline for a workload.
func suiteMinBoost3(s *experiments.Suite, w *workloads.Workload) (int64, error) {
	return s.MeasureModel(context.Background(), w, machine.MinBoost3())
}

// BenchmarkExtensionPreschedule measures the dynamic scheduler fed
// globally-prescheduled code (the paper: "we can more efficiently use the
// machine resources [by prescheduling]").
func BenchmarkExtensionPreschedule(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := experiments.NewSuite()
		var plain, pre int64
		for _, w := range s.Workloads {
			c, err := s.DynCycles(context.Background(), w, false)
			if err != nil {
				b.Fatal(err)
			}
			plain += c
			c2, err := s.DynPrescheduled(context.Background(), w, false)
			if err != nil {
				b.Fatal(err)
			}
			pre += c2
		}
		b.ReportMetric(float64(plain)/float64(pre), "speedup-from-preschedule")
	}
}

// BenchmarkExtensionCache quantifies the paper's perfect-memory caveat: it
// reports the MinBoost3-over-scalar geometric-mean speedup with the
// paper's perfect memory and with an 8KiB direct-mapped data cache on both
// machines.
func BenchmarkExtensionCache(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := experiments.NewSuite()
		var perf, cach []float64
		for _, w := range s.Workloads {
			p, c, err := s.CacheSpeedups(context.Background(), w)
			if err != nil {
				b.Fatal(err)
			}
			perf = append(perf, p)
			cach = append(cach, c)
		}
		b.ReportMetric(experiments.GeoMean(perf), "gm-perfect-memory-x")
		b.ReportMetric(experiments.GeoMean(cach), "gm-with-cache-x")
	}
}

// BenchmarkAblationROBSize sweeps the dynamic machine's reorder-buffer
// size around the paper's 16 entries, reporting total workload cycles per
// configuration (evaluating the paper's choice of parameters).
func BenchmarkAblationROBSize(b *testing.B) {
	for i := 0; i < b.N; i++ {
		run := func(rob int) int64 {
			var total int64
			for _, w := range workloads.All() {
				pr := w.BuildTest()
				if _, err := regalloc.Allocate(pr); err != nil {
					b.Fatal(err)
				}
				cfg := dynsched.Default()
				cfg.ROBSize = rob
				res, err := dynsched.Simulate(pr, cfg)
				if err != nil {
					b.Fatal(err)
				}
				total += res.Cycles
			}
			return total
		}
		paper := run(16)
		b.ReportMetric(float64(run(4))/float64(paper), "rob4/rob16-cycles")
		b.ReportMetric(float64(run(64))/float64(paper), "rob64/rob16-cycles")
	}
}

// BenchmarkExtensionIssueWidth explores how boosting's benefit scales
// with issue width: MinBoost3-style boosting on the paper's 2-issue
// machine versus a 4-issue machine (two copies of each side).
func BenchmarkExtensionIssueWidth(b *testing.B) {
	wide := machine.Wide4(machine.MinBoost3().Boost)
	wide.Name = "Wide4MinBoost3"
	for i := 0; i < b.N; i++ {
		s := experiments.NewSuite()
		var two, four []float64
		for _, w := range s.Workloads {
			scalar, err := s.ScalarCycles(context.Background(), w)
			if err != nil {
				b.Fatal(err)
			}
			c2, err := s.MeasureModel(context.Background(), w, machine.MinBoost3())
			if err != nil {
				b.Fatal(err)
			}
			c4, err := s.MeasureModel(context.Background(), w, wide)
			if err != nil {
				b.Fatal(err)
			}
			two = append(two, float64(scalar)/float64(c2))
			four = append(four, float64(scalar)/float64(c4))
		}
		b.ReportMetric(experiments.GeoMean(two), "gm-2wide-x")
		b.ReportMetric(experiments.GeoMean(four), "gm-4wide-x")
	}
}
