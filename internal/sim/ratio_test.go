//go:build !race

package sim_test

// Same-process speed ratios of the simulator: each test alternates the
// sides of a comparison and keeps each side's fastest run, so the host's
// clock speed cancels out. Not built under -race, which distorts ratios.

import (
	"testing"
	"time"

	"boosting/internal/core"
	"boosting/internal/machine"
	"boosting/internal/memhier"
	"boosting/internal/profile"
	"boosting/internal/prog"
	"boosting/internal/regalloc"
	"boosting/internal/sim"
	"boosting/internal/testgen"
)

// interleavedMin runs every side once per round, in order, for rounds
// rounds and returns each side's fastest run.
func interleavedMin(rounds int, sides ...func()) []time.Duration {
	best := make([]time.Duration, len(sides))
	for r := 0; r < rounds; r++ {
		for i, side := range sides {
			start := time.Now()
			side()
			if d := time.Since(start); r == 0 || d < best[i] {
				best[i] = d
			}
		}
	}
	return best
}

// TestFastCoreOracleRatio checks that the fast core runs the long kernels
// at least 3x faster than the oracle interpreter it replaced.
func TestFastCoreOracleRatio(t *testing.T) {
	if testing.Short() {
		t.Skip("timing ratio in -short mode")
	}
	for _, name := range simcoreWorkloads {
		sp := scheduleBoost7(t, name)
		best := interleavedMin(3, runner(t, sim.Exec, sp, sim.ExecConfig{}), runner(t, sim.ExecOracle, sp, sim.ExecConfig{}))
		ratio := float64(best[1]) / float64(best[0])
		t.Logf("%s: fast core %v, oracle %v: oracle takes %.2fx the fast core (want >= 3x)", name, best[0], best[1], ratio)
		if ratio < 3 {
			t.Errorf("%s: fast core is only %.2fx faster than the oracle, want >= 3x", name, ratio)
		}
	}
}

// TestBatchThroughputRatio times 8 grid cells of one program under 8
// memory hierarchies, run as 8 cold solo cells (schedule and execute per
// input, what independent grid cells pay) and as one batched pass
// (schedule and predecode once, then one ExecBatch, which executes the
// program once with a timing lane per hierarchy). On the
// schedule-dominated short kernel (a fixed-seed generated program,
// register-allocated and profiled) the batch must at least double
// per-input throughput. On eqntott, execution dominates, so the row
// measures the shared functional work and must reach 1.5x: a batch that
// ran its hierarchies one after another reads about 1x there.
//
// A busy host can keep one side off its floor for many rounds, so a row
// under its bound runs further blocks of 30 rounds, up to 180, and is
// judged on each side's fastest run over all rounds run. More rounds only
// bring each side closer to its floor, so a real slowdown still fails.
func TestBatchThroughputRatio(t *testing.T) {
	if testing.Short() {
		t.Skip("timing ratio in -short mode")
	}
	const n, rounds, maxRounds = 8, 30, 180
	cfgs := make([]sim.ExecConfig, n)
	for i := range cfgs {
		m := memhier.Default()
		m.MemLatency = int64(20 + i)
		cfgs[i] = sim.ExecConfig{Mem: &m}
	}
	short := testgen.Random(7, testgen.RandomShape(7))
	if _, err := regalloc.Allocate(short); err != nil {
		t.Fatal(err)
	}
	if err := profile.Annotate(short); err != nil {
		t.Fatal(err)
	}
	for _, row := range []struct {
		name    string
		master  *prog.Program
		minGain float64
	}{{"short-kernel", short, 2}, {"eqntott", compileWorkload(t, "eqntott"), 1.5}} {
		schedule := func() *machine.SchedProgram {
			sp, err := core.Schedule(prog.Clone(row.master), machine.Boost7(), core.Options{})
			if err != nil {
				t.Fatal(err)
			}
			return sp
		}
		solo := func() {
			for _, cfg := range cfgs {
				runner(t, sim.Exec, schedule(), cfg)()
			}
		}
		batch := func() {
			_, errs := sim.ExecBatch(schedule(), cfgs)
			for _, err := range errs {
				if err != nil {
					t.Fatal(err)
				}
			}
		}
		best, done := interleavedMin(rounds, solo, batch), rounds
		for done < maxRounds && float64(best[0])/float64(best[1]) < row.minGain {
			for i, d := range interleavedMin(rounds, solo, batch) {
				best[i] = min(best[i], d)
			}
			done += rounds
		}
		gain := float64(best[0]) / float64(best[1])
		t.Logf("%s, fastest of %d rounds: %d solo cells %v, one %d-config batch %v: batch throughput %.2fx solo (want >= %gx)",
			row.name, done, n, best[0], n, best[1], gain, row.minGain)
		if gain < row.minGain {
			t.Errorf("%s: batch throughput %.2fx solo cells, want >= %gx", row.name, gain, row.minGain)
		}
	}
}

// TestMemHierOverheadRatio checks that each benchmark hierarchy costs at
// most 4x the perfect-memory run of the same schedule: the timing model
// must stay a small multiple of the executor it decorates.
func TestMemHierOverheadRatio(t *testing.T) {
	if testing.Short() {
		t.Skip("timing ratio in -short mode")
	}
	sp := scheduleBoost7(t, "eqntott")
	sides := []func(){runner(t, sim.Exec, sp, sim.ExecConfig{})}
	for _, name := range memhierBenchOrder {
		cfg := memhierBenchConfigs()[name]
		sides = append(sides, runner(t, sim.Exec, sp, sim.ExecConfig{Mem: &cfg}))
	}
	best := interleavedMin(5, sides...)
	for i, name := range memhierBenchOrder {
		ratio := float64(best[i+1]) / float64(best[0])
		t.Logf("%s: hierarchy run %v, perfect memory %v: %.2fx perfect (want <= 4x)", name, best[i+1], best[0], ratio)
		if ratio > 4 {
			t.Errorf("%s: hierarchy run costs %.2fx the perfect-memory run, want <= 4x", name, ratio)
		}
	}
}
