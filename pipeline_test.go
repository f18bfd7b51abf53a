package boosting

import (
	"context"
	"errors"
	"strings"
	"sync"
	"testing"
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

// TestPipelineSimulateBatch: every batch lane reports exactly what a
// solo Simulate of the same options reports, the schedule runs once for
// the whole batch, and a lane that would change the schedule variant is
// rejected up front.
func TestPipelineSimulateBatch(t *testing.T) {
	ctx := context.Background()
	m := Models().Boost7
	p := NewPipeline()
	c, err := p.Compile(ctx, WorkloadGrep)
	if err != nil {
		t.Fatal(err)
	}
	mem := DefaultMemConfig()
	mem.L1 = MemCacheConfig{Sets: 64, Ways: 1, LineBytes: 16}
	lanes := [][]Option{
		nil,
		{WithMemHier(mem)},
		nil,
	}
	results, errs, err := p.SimulateBatch(ctx, c, m, lanes)
	if err != nil {
		t.Fatal(err)
	}
	passes := p.SchedulePasses()
	for i, lane := range lanes {
		if errs[i] != nil {
			t.Fatalf("lane %d: %v", i, errs[i])
		}
		solo, err := p.Simulate(ctx, c, m, lane...)
		if err != nil {
			t.Fatalf("lane %d solo: %v", i, err)
		}
		b := results[i]
		if b.Cycles != solo.Cycles || b.Speedup != solo.Speedup ||
			b.ScalarCycles != solo.ScalarCycles || b.Insts != solo.Insts ||
			b.BoostedExec != solo.BoostedExec || b.Squashed != solo.Squashed ||
			b.MemStalls != solo.MemStalls {
			t.Errorf("lane %d diverges from solo Simulate:\nbatch %+v\nsolo  %+v", i, b, solo)
		}
	}
	// The solo reruns above hit the variant cache: the batch left exactly
	// one schedule (plus the scalar baselines) behind.
	if got := p.SchedulePasses(); got != passes {
		t.Errorf("solo reruns re-scheduled: %d passes, want %d", got, passes)
	}

	// A lane that changes the schedule variant fails the whole batch.
	if _, _, err := p.SimulateBatch(ctx, c, m, [][]Option{nil, {WithLocalOnly()}}); err == nil ||
		!strings.Contains(err.Error(), "lane 1 changes the schedule variant") {
		t.Errorf("variant-changing lane: err = %v", err)
	}
}

// TestPipelineGrid: batch results come back in cell order, identical at
// any parallelism, with per-cell errors isolated to their cell.
func TestPipelineGrid(t *testing.T) {
	ctx := context.Background()
	ms := Models()
	cells := []GridCell{
		{Workload: WorkloadGrep, Model: ms.MinBoost3},
		{Workload: WorkloadGrep, Model: ms.NoBoost, Opts: []Option{WithLocalOnly()}},
		{Workload: "nope", Model: ms.Boost1},
		{Workload: WorkloadCompress, Model: ms.Boost7},
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
	if !errors.Is(err, context.Canceled) {
		t.Errorf("Grid on cancelled ctx: %v", err)
	}
	for i, r := range results {
		if r.Err == nil && r.Result == nil {
			t.Errorf("cell %d left with neither result nor error", i)
		}
	}
}
