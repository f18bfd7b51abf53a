package boosting

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"boosting/internal/machine"
	"boosting/internal/sim"
	"boosting/internal/workloads"
)

// TestPipelineCompileMemoized: repeated and concurrent Compile calls for
// the same (workload, register mode) return the same shared artifact;
// different register modes get different artifacts.
func TestPipelineCompileMemoized(t *testing.T) {
	ctx := context.Background()
	p := NewPipeline()
	first, err := p.Compile(ctx, WorkloadGrep)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	arts := make([]*Compiled, 8)
	for i := range arts {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			arts[i], _ = p.Compile(ctx, WorkloadGrep)
		}(i)
	}
	wg.Wait()
	for i, a := range arts {
		if a != first {
			t.Fatalf("compile %d returned a different artifact", i)
		}
	}
	inf, err := p.Compile(ctx, WorkloadGrep, WithInfiniteRegisters())
	if err != nil {
		t.Fatal(err)
	}
	if inf == first {
		t.Error("infinite-register compile shares the allocated artifact")
	}
	if !inf.InfiniteRegisters || first.InfiniteRegisters {
		t.Error("InfiniteRegisters flag not recorded on artifacts")
	}
}

// TestPipelineOptions: per-call options layer on top of pipeline
// defaults, and ablations change measured cycles.
func TestPipelineOptions(t *testing.T) {
	ctx := context.Background()
	m := Models().NoBoost

	global, err := NewPipeline().Run(ctx, WorkloadGrep, m)
	if err != nil {
		t.Fatal(err)
	}
	local, err := NewPipeline(WithLocalOnly()).Run(ctx, WorkloadGrep, m)
	if err != nil {
		t.Fatal(err)
	}
	if local.Cycles <= global.Cycles {
		t.Errorf("basic-block schedule (%d cycles) should be slower than global (%d)",
			local.Cycles, global.Cycles)
	}
	// The same ablation as a per-call option must agree with the
	// pipeline-default form.
	localCall, err := NewPipeline().Run(ctx, WorkloadGrep, m, WithLocalOnly())
	if err != nil {
		t.Fatal(err)
	}
	if localCall.Cycles != local.Cycles {
		t.Errorf("per-call option %d cycles, pipeline default %d", localCall.Cycles, local.Cycles)
	}
}

// TestPipelineGridMemHier: grid cells that differ only in their memory
// hierarchy each report exactly what a solo Simulate of their options
// reports, and the grid schedules each (workload, model, options) once,
// and each workload's scalar baseline once for all its hierarchies,
// however many workers run it.
func TestPipelineGridMemHier(t *testing.T) {
	ctx := context.Background()
	ms := Models()
	small := DefaultMemConfig()
	small.L1 = MemCacheConfig{Sets: 64, Ways: 1, LineBytes: 16}
	stride := small
	stride.Prefetch = "stride"
	hiers := [][]Option{nil, {WithMemHier(small)}, {WithMemHier(stride)}}
	workloads := []string{WorkloadGrep, WorkloadCompress}
	models := []*machine.Model{ms.MinBoost3, ms.Boost7}
	var cells []GridCell
	for _, w := range workloads {
		for _, m := range models {
			for _, h := range hiers {
				cells = append(cells, GridCell{Workload: w, Model: m, Opts: h})
			}
		}
	}

	p := NewPipeline(WithParallelism(4))
	results, err := p.Grid(ctx, cells)
	if err != nil {
		t.Fatal(err)
	}
	// One schedule per (workload, model); the rest are the scalar
	// baselines, one per workload, whose hierarchies run as lanes of one
	// execution.
	groups, scalars := len(workloads)*len(models), len(workloads)
	if got, want := p.SchedulePasses(), int64(groups+scalars); got != want {
		t.Errorf("grid of %d cells ran the scheduler %d times, want %d (%d schedules, %d scalar baselines)",
			len(cells), got, want, groups, scalars)
	}
	for i, r := range results {
		if r.Err != nil {
			t.Fatalf("cell %d: %v", i, r.Err)
		}
		c := cells[i]
		solo, err := p.Run(ctx, c.Workload, c.Model, c.Opts...)
		if err != nil {
			t.Fatalf("cell %d solo: %v", i, err)
		}
		g := r.Result
		if g.Cycles != solo.Cycles || g.Speedup != solo.Speedup ||
			g.ScalarCycles != solo.ScalarCycles || g.Insts != solo.Insts ||
			g.BoostedExec != solo.BoostedExec || g.Squashed != solo.Squashed ||
			g.MemStalls != solo.MemStalls || !reflect.DeepEqual(g.Mem, solo.Mem) {
			t.Errorf("cell %d (%s on %s) diverges from solo Simulate:\ngrid %+v\nsolo %+v",
				i, c.Workload, c.Model.Name, g, solo)
		}
		if i%len(hiers) != 0 && g.Cycles == results[i-i%len(hiers)].Result.Cycles {
			t.Errorf("cell %d: a finite hierarchy ran in perfect memory's %d cycles", i, g.Cycles)
		}
	}
}

// TestMemoizedBaselineSkipsMeasuringLock: a baseline request whose
// hierarchies are all memoized is answered while a measurement holds the
// compiled program's lock; a request that misses a hierarchy waits for
// the lock.
func TestMemoizedBaselineSkipsMeasuringLock(t *testing.T) {
	ctx := context.Background()
	p := NewPipeline()
	c, err := p.Compile(ctx, WorkloadGrep)
	if err != nil {
		t.Fatal(err)
	}
	small := DefaultMemConfig()
	small.L1 = MemCacheConfig{Sets: 64, Ways: 1, LineBytes: 16}
	want, err := p.ScalarCyclesUnder(ctx, c, small)
	if err != nil {
		t.Fatal(err)
	}
	c.scalars.lock <- struct{}{} // a measurement in flight
	defer func() { <-c.scalars.lock }()

	memoized, cancel := context.WithTimeout(ctx, 10*time.Second)
	defer cancel()
	if got, err := p.ScalarCyclesUnder(memoized, c, small); err != nil || got[0] != want[0] {
		t.Errorf("memoized baseline under a held lock = %v, %v; want %v", got, err, want)
	}
	stride := small
	stride.Prefetch = "stride"
	missing, cancel := context.WithTimeout(ctx, 20*time.Millisecond)
	defer cancel()
	if _, err := p.ScalarCyclesUnder(missing, c, small, stride); !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("baseline missing a hierarchy under a held lock: %v, want the deadline", err)
	}
}

// TestPipelineGrid: results come back in cell order, identical at any
// parallelism, with per-cell errors isolated to their cell.
func TestPipelineGrid(t *testing.T) {
	ctx := context.Background()
	ms := Models()
	cells := []GridCell{
		{Workload: WorkloadGrep, Model: ms.MinBoost3, Label: "a"},
		{Workload: WorkloadGrep, Model: ms.NoBoost, Opts: []Option{WithLocalOnly()}, Label: "b"},
		{Workload: "nope", Model: ms.Boost1, Label: "c"},
		{Workload: WorkloadCompress, Model: ms.Boost7, Label: "d"},
	}

	serial, err := NewPipeline(WithParallelism(1)).Grid(ctx, cells)
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := NewPipeline(WithParallelism(4)).Grid(ctx, cells)
	if err != nil {
		t.Fatal(err)
	}
	for i := range cells {
		s, p := serial[i], parallel[i]
		if s.Cell.Label != cells[i].Label || p.Cell.Label != cells[i].Label {
			t.Errorf("result %d holds cells %q and %q, want %q", i, s.Cell.Label, p.Cell.Label, cells[i].Label)
		}
		if (s.Err == nil) != (p.Err == nil) {
			t.Fatalf("cell %d: serial err %v, parallel err %v", i, s.Err, p.Err)
		}
		if s.Err != nil {
			if i != 2 {
				t.Errorf("cell %d unexpectedly failed: %v", i, s.Err)
			}
			continue
		}
		if s.Result.Cycles != p.Result.Cycles || s.Result.Speedup != p.Result.Speedup {
			t.Errorf("cell %d: serial %d cycles, parallel %d", i, s.Result.Cycles, p.Result.Cycles)
		}
	}
	if serial[2].Err == nil || !strings.Contains(serial[2].Err.Error(), "nope") {
		t.Errorf("bad-workload cell error = %v", serial[2].Err)
	}
}

// TestPipelineCancellation: a cancelled context aborts Compile, Simulate
// and Grid with a wrapped context.Canceled.
func TestPipelineCancellation(t *testing.T) {
	p := NewPipeline(WithParallelism(2))
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()

	if _, err := p.Compile(cancelled, WorkloadGrep); !errors.Is(err, context.Canceled) {
		t.Errorf("Compile on cancelled ctx: %v", err)
	}

	c, err := p.Compile(context.Background(), WorkloadGrep)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Simulate(cancelled, c, Models().MinBoost3); !errors.Is(err, context.Canceled) {
		t.Errorf("Simulate on cancelled ctx: %v", err)
	}

	var cells []GridCell
	for _, w := range Workloads() {
		cells = append(cells, GridCell{Workload: w, Model: Models().MinBoost3})
	}
	results, err := p.Grid(cancelled, cells)
	if !errors.Is(err, context.Canceled) || !strings.HasPrefix(err.Error(), "boosting: grid aborted: ") {
		t.Errorf("Grid on cancelled ctx: %v", err)
	}
	if len(results) != len(cells) {
		t.Fatalf("Grid on cancelled ctx returned %d results for %d cells", len(results), len(cells))
	}
	for i, r := range results {
		if r.Result != nil || !errors.Is(r.Err, context.Canceled) {
			t.Errorf("cell %d = %v, %v; want no result and the context error", i, r.Result, r.Err)
		}
	}
}

// TestVerifyHelper exercises the verification failure paths: a short
// output stream, a wrong value and a wrong final memory each wrap
// ErrVerification.
func TestVerifyHelper(t *testing.T) {
	c := &Compiled{ref: &sim.Result{Out: []uint32{1, 2}, MemHash: 42}}
	if err := c.Verify([]uint32{1, 2}, 42); err != nil {
		t.Errorf("matching run rejected: %v", err)
	}
	for _, tc := range []struct {
		name string
		out  []uint32
		hash uint64
	}{
		{"short output", []uint32{1}, 42},
		{"wrong output", []uint32{1, 3}, 42},
		{"wrong memory", []uint32{1, 2}, 43},
	} {
		err := c.Verify(tc.out, tc.hash)
		if err == nil {
			t.Errorf("%s accepted", tc.name)
			continue
		}
		if !errors.Is(err, ErrVerification) {
			t.Errorf("%s: %v does not wrap ErrVerification", tc.name, err)
		}
	}
}

// TestCustomInputsGetTheirOwnCompile: two workloads named grep with
// different inputs get different compiled programs and different scalar
// baselines, neither of which is the registry grep's, and only the
// registry grep may use the artifact cache.
func TestCustomInputsGetTheirOwnCompile(t *testing.T) {
	ctx := context.Background()
	p := NewPipeline()
	registry, err := p.Compile(ctx, WorkloadGrep)
	if err != nil {
		t.Fatal(err)
	}
	grep := func(seed int64, size int) *workloads.Workload {
		return &workloads.Workload{
			Name:  WorkloadGrep,
			Build: workloads.Grep().Build,
			Train: workloads.Input{Seed: seed + 1, Size: size / 2},
			Test:  workloads.Input{Seed: seed, Size: size},
		}
	}
	var compiled []*Compiled
	var baselines []int64
	for _, w := range []*workloads.Workload{grep(1234, 6000), grep(9876, 18000)} {
		c, err := p.CompileWorkload(ctx, w)
		if err != nil {
			t.Fatal(err)
		}
		again, err := p.CompileWorkload(ctx, w)
		if err != nil || again != c {
			t.Errorf("inputs %+v: repeat compile not memoized (%v)", w.Test, err)
		}
		if c.artKey != "" {
			t.Errorf("inputs %+v: custom-input compile has artifact-cache key %q", w.Test, c.artKey)
		}
		scalar, err := p.ScalarCycles(ctx, c)
		if err != nil {
			t.Fatal(err)
		}
		compiled = append(compiled, c)
		baselines = append(baselines, scalar)
	}
	base, err := p.ScalarCycles(ctx, registry)
	if err != nil {
		t.Fatal(err)
	}
	if registry.artKey == "" {
		t.Error("registry grep has no artifact-cache key")
	}
	if compiled[0] == compiled[1] || compiled[0] == registry || compiled[1] == registry {
		t.Error("workloads with different inputs share a compiled program")
	}
	if baselines[0] == baselines[1] || baselines[0] == base || baselines[1] == base {
		t.Errorf("baselines collide: custom %v, registry %d", baselines, base)
	}
}

// TestCompileAsmStageErrors: a parse failure is a *ParseError; every
// later stage's failure keeps its stage prefix. Failing register
// allocation or profiling takes seconds of allocator rounds or
// interpreter steps, so those two cases skip under -short and the race
// detector.
func TestCompileAsmStageErrors(t *testing.T) {
	// 300 values live at once need more spills than the allocator's
	// round limit.
	var pressure strings.Builder
	pressure.WriteString(".proc main\nentry:\n")
	for i := 0; i < 300; i++ {
		fmt.Fprintf(&pressure, "\tli v%d, %d\n", i, i)
	}
	for i := 0; i < 300; i++ {
		fmt.Fprintf(&pressure, "\tout v%d\n", i)
	}
	pressure.WriteString("\thalt\n")
	// countdown halts after 2n+2 steps: within the reference run's bound
	// below, past the profiling run's default bound of 100M.
	const n = 50_000_001
	countdown := fmt.Sprintf(".proc main\nentry:\n\tli v1, %d\n\t;fallthrough -> loop\nloop:\n"+
		"\taddi v1, v1, -1\n\tbgtz v1, loop, done\ndone:\n\thalt\n", n)
	cases := []struct {
		name     string
		asm      string
		maxSteps int64
		slow     bool
		prefix   string
	}{
		{"regalloc", pressure.String(), 0, true, "regalloc: "},
		{"reference run", ".proc main\nentry:\n\tli v1, 1\n\tj entry\n", 1000, false, "reference run: "},
		{"profile", countdown, 2*n + 16, true, "profile: "},
	}
	p := NewPipeline()
	ctx := context.Background()
	var perr *ParseError
	if _, err := p.CompileAsm(ctx, "not assembly ???", 0); !errors.As(err, &perr) || !strings.HasPrefix(err.Error(), "parse: ") {
		t.Errorf("parse failure = %v (%T), want a *ParseError with the parse: prefix", err, err)
	}
	for _, tc := range cases {
		if tc.slow && (testing.Short() || raceDetector) {
			continue
		}
		_, err := p.CompileAsm(ctx, tc.asm, tc.maxSteps)
		if err == nil || errors.As(err, &perr) || !strings.HasPrefix(err.Error(), tc.prefix) {
			t.Errorf("%s: error %v, want the %q prefix and no *ParseError", tc.name, err, tc.prefix)
		}
	}
}

// TestUntouchedReserveAllocatesNothing: a run pays only for the memory
// pages it writes. The program reserves 128 MiB of BSS in two .reserve
// lines and writes one word at each end of it; compiling and simulating
// it (four runs: reference, profile, scalar baseline, model) must
// allocate under 4 MiB in all.
func TestUntouchedReserveAllocatesNothing(t *testing.T) {
	const asm = `.reserve 67108864
.reserve 67108864
.proc main
entry:
	li v0, 0x10000
	li v1, 7
	sw v1, 0(v0)
	li v2, 0x800fffc
	sw v1, 0(v2)
	lw v3, 0(v2)
	out v3
	halt
`
	ctx := context.Background()
	p := NewPipeline()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	c, err := p.CompileAsm(ctx, asm, 0)
	if err != nil {
		t.Fatal(err)
	}
	res, err := p.Simulate(ctx, c, Models().Boost7)
	if err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	if len(res.Out) != 1 || res.Out[0] != 7 {
		t.Errorf("out = %v, want [7]", res.Out)
	}
	if d := after.TotalAlloc - before.TotalAlloc; d > 4<<20 {
		t.Errorf("CompileAsm + Simulate allocated %.1f MiB, want < 4 MiB", float64(d)/(1<<20))
	}
}
