package boosting

import (
	"context"
	"crypto/sha256"
	"errors"
	"reflect"
	"strings"
	"testing"
	"time"

	"boosting/internal/artifact"
	"boosting/internal/machine"
	"boosting/internal/sim"
)

// awkAblationCells are awk's 25 AblationCells over NoBoost…Boost7, which
// schedule to 10 distinct programs.
func awkAblationCells() []GridCell {
	ms := Models()
	return AblationCells([]string{WorkloadAWK},
		[]*machine.Model{ms.NoBoost, ms.Squashing, ms.Boost1, ms.MinBoost3, ms.Boost7})
}

// heldRuns returns the runs the cell's schedule executes into, with the
// schedule recorded on c.
func heldRuns(t *testing.T, p *Pipeline, c *Compiled, model *machine.Model, opts ...Option) *runs {
	t.Helper()
	v, _, err := p.schedule(c, model, p.base.apply(opts))
	if err != nil {
		t.Fatal(err)
	}
	return c.runsOf(v, model)
}

// TestGridRunsEachScheduleOnce: a grid of awk's 25 ablation cells
// executes each of its 10 distinct schedules once, plus the perfect-
// memory baseline, however many workers share them. Every cell still
// reports exactly what a solo execution and verification of its own
// recorded schedule reports, with its own schedule report and its own
// output slice.
func TestGridRunsEachScheduleOnce(t *testing.T) {
	ctx := context.Background()
	cells := awkAblationCells()
	p := NewPipeline(WithParallelism(4))
	results, err := p.Grid(ctx, cells)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := p.Counts().Simulations, int64(10+1); got != want {
		t.Errorf("grid of %d cells executed %d runs, want %d (10 distinct schedules, 1 baseline)",
			len(cells), got, want)
	}
	c, err := p.Compile(ctx, WorkloadAWK)
	if err != nil {
		t.Fatal(err)
	}
	scalar, err := p.ScalarCycles(ctx, c)
	if err != nil {
		t.Fatal(err)
	}
	distinct := map[[sha256.Size]byte]bool{}
	outs := map[*uint32]int{}
	for i, r := range results {
		cell := cells[i]
		if r.Err != nil {
			t.Fatalf("cell %d (%s on %s): %v", i, cell.Label, cell.Model.Name, r.Err)
		}
		sp, stats, err := p.Schedule(ctx, c, cell.Model, cell.Opts...)
		if err != nil {
			t.Fatal(err)
		}
		distinct[artifact.ScheduleDigest(sp)] = true
		solo, err := sim.Exec(sp, sim.ExecConfig{MaxCycles: c.maxCycles})
		if err != nil {
			t.Fatalf("cell %d solo: %v", i, err)
		}
		if err := c.Verify(solo.Out, solo.MemHash); err != nil {
			t.Fatalf("cell %d solo: %v", i, err)
		}
		want := &Result{
			Compile:            stats,
			Cycles:             solo.Cycles,
			ScalarCycles:       scalar,
			Speedup:            float64(scalar) / float64(solo.Cycles),
			Insts:              solo.Insts,
			BoostedExec:        solo.BoostedExec,
			Squashed:           solo.Squashed,
			MemStalls:          solo.MemStalls,
			BoostedMemStalls:   solo.BoostedMemStalls,
			SquashedMemStalls:  solo.SquashedMemStalls,
			Mem:                solo.Mem,
			PredictionAccuracy: c.acc,
			ObjectGrowth:       sp.ObjectGrowth(),
			Out:                solo.Out,
		}
		if !reflect.DeepEqual(r.Result, want) {
			t.Errorf("cell %d (%s on %s) diverges from a solo run of its schedule:\ngrid %+v\nsolo %+v",
				i, cell.Label, cell.Model.Name, r.Result, want)
		}
		if r.Result.Compile != stats {
			t.Errorf("cell %d (%s on %s) reports another schedule's CompileStats", i, cell.Label, cell.Model.Name)
		}
		out := &r.Result.Out[0]
		if out == &c.ref.Out[0] {
			t.Errorf("cell %d returns the reference run's output slice", i)
		}
		if j, dup := outs[out]; dup {
			t.Errorf("cells %d and %d share one output slice", j, i)
		}
		outs[out] = i
	}
	if len(distinct) != 10 {
		t.Errorf("awk's cells hold %d distinct schedules, want 10", len(distinct))
	}
}

// TestRunLockIsPerSchedule: while one schedule's runs are being
// measured (its lock held), a memoized run of it is still answered, and
// another schedule of the same program runs; a schedule with the held
// one's digest waits for the lock.
func TestRunLockIsPerSchedule(t *testing.T) {
	ctx := context.Background()
	p := NewPipeline()
	c, err := p.Compile(ctx, WorkloadAWK)
	if err != nil {
		t.Fatal(err)
	}
	m := Models().MinBoost3
	want, err := p.Simulate(ctx, c, m)
	if err != nil {
		t.Fatal(err)
	}
	// On awk, disabling disambiguation leaves MinBoost3's schedule as it
	// is, and local-only scheduling changes it.
	same, other := []Option{WithoutDisambiguation()}, []Option{WithLocalOnly()}
	rs := heldRuns(t, p, c, m)
	if heldRuns(t, p, c, m, same...) != rs || heldRuns(t, p, c, m, other...) == rs {
		t.Fatal("awk's MinBoost3 schedules do not share runs as expected")
	}
	rs.lock <- struct{}{} // a measurement in flight
	defer func() { <-rs.lock }()

	free, cancel := context.WithTimeout(ctx, 10*time.Second)
	defer cancel()
	if got, err := p.Simulate(free, c, m); err != nil || got.Cycles != want.Cycles {
		t.Errorf("memoized run under a held lock = %v, %v; want %d cycles", got, err, want.Cycles)
	}
	if _, err := p.Simulate(free, c, m, other...); err != nil {
		t.Errorf("another schedule under a held lock: %v", err)
	}
	small := DefaultMemConfig()
	small.L1 = MemCacheConfig{Sets: 64, Ways: 1, LineBytes: 16}
	waiting, cancel := context.WithTimeout(ctx, 20*time.Millisecond)
	defer cancel()
	if _, err := p.Simulate(waiting, c, m, append(same, WithMemHier(small))...); !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("digest-equal schedule missing a hierarchy under a held lock: %v, want the deadline", err)
	}
}

// TestOneVariantProgramNeverHashes: a program run on one schedule per
// model fingerprint computes no schedule digest; a second schedule for
// the same model hashes both.
func TestOneVariantProgramNeverHashes(t *testing.T) {
	const asm = `.word 3
.word -1
.word 4
.proc main
entry:
	li v0, 0x10000
	li v1, 3
	li v2, 0
	;fallthrough -> loop
loop:
	lw v3, 0(v0)
	bltz v3, neg, pos
pos:
	add v2, v2, v3
	j next
neg:
	sub v2, v2, v3
	j next
next:
	addi v0, v0, 4
	addi v1, v1, -1
	bgtz v1, loop, done
done:
	out v2
	halt
`
	ctx := context.Background()
	p := NewPipeline()
	c, err := p.CompileAsm(ctx, asm, 0)
	if err != nil {
		t.Fatal(err)
	}
	hashed := func() (n int) {
		c.mu.Lock()
		defer c.mu.Unlock()
		for _, v := range c.variants {
			if v.hashed {
				n++
			}
		}
		return n
	}
	ms := Models()
	for _, m := range []*machine.Model{ms.MinBoost3, ms.Boost7} {
		if _, err := p.Simulate(ctx, c, m); err != nil {
			t.Fatal(err)
		}
	}
	if n := hashed(); n != 0 {
		t.Errorf("one schedule per model hashed %d schedules, want 0", n)
	}
	if _, err := p.Simulate(ctx, c, ms.MinBoost3, WithLocalOnly()); err != nil {
		t.Fatal(err)
	}
	if n := hashed(); n != 2 {
		t.Errorf("a second MinBoost3 schedule hashed %d schedules, want 2", n)
	}
}

// simulateCanceled checks that err is a cancelled Simulate of grep on
// MinBoost3, in the one shape every wait gives it.
func simulateCanceled(t *testing.T, wait string, err error) {
	t.Helper()
	const prefix = "boosting: simulate grep on MinBoost3: "
	if !errors.Is(err, context.Canceled) || !strings.HasPrefix(err.Error(), prefix) {
		t.Errorf("Simulate cancelled %s: %v, want context.Canceled behind %q", wait, err, prefix)
	}
}
