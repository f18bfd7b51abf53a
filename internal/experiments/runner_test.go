package experiments

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"boosting/internal/core"
	"boosting/internal/machine"
	"boosting/internal/prog"
	"boosting/internal/workloads"
)

// fullGrid is the complete static+dynamic evaluation grid of the paper:
// every workload on every machine configuration used by Tables 1–2 and
// Figures 8–9.
func fullGrid(s *Suite) []Cell {
	var cells []Cell
	for _, w := range s.Workloads {
		cells = append(cells,
			scalarCell(w),
			Cell{Workload: w, Model: machine.NoBoost(), Opts: core.Options{LocalOnly: true}, Alloc: true},
			Cell{Workload: w, Model: machine.NoBoost(), Alloc: true},
			Cell{Workload: w, Model: machine.NoBoost(), Alloc: false},
			Cell{Workload: w, Model: machine.Squashing(), Alloc: true},
			Cell{Workload: w, Model: machine.Boost1(), Alloc: true},
			Cell{Workload: w, Model: machine.MinBoost3(), Alloc: true},
			Cell{Workload: w, Model: machine.MinBoost3(), Alloc: false},
			Cell{Workload: w, Model: machine.Boost7(), Alloc: true},
			Cell{Workload: w, Dynamic: true},
			Cell{Workload: w, Dynamic: true, Renaming: true},
		)
	}
	return cells
}

// TestRunnerParallelMatchesSerial is the engine's determinism contract:
// the full grid, run at parallelism 1 and at high parallelism (under the
// race detector in `make test-race`), must produce identical results cell
// for cell.
func TestRunnerParallelMatchesSerial(t *testing.T) {
	if testing.Short() {
		t.Skip("two full grids in -short mode")
	}
	ctx := context.Background()

	serial := NewSuite()
	serial.Runner.Parallelism = 1
	want, err := serial.Runner.Run(ctx, fullGrid(serial))
	if err != nil {
		t.Fatal(err)
	}

	parallel := NewSuite()
	parallel.Runner.Parallelism = 8
	got, err := parallel.Runner.Run(ctx, fullGrid(parallel))
	if err != nil {
		t.Fatal(err)
	}

	if len(got) != len(want) {
		t.Fatalf("result count %d, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i].Cycles != want[i].Cycles {
			t.Errorf("%s: parallel %d cycles, serial %d", want[i].Cell, got[i].Cycles, want[i].Cycles)
		}
	}
}

// TestParallelOutputByteIdentical regenerates Table 1/2 and Figure 8/9
// through the parallel runner and asserts the formatted output is
// byte-identical to a serial (parallelism 1) run, and that the shared
// artifact store issued each unique (workload, regalloc-mode) build
// exactly once.
func TestParallelOutputByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("three full grids in -short mode")
	}
	ctx := context.Background()
	render := func(s *Suite) (string, error) {
		var b strings.Builder
		t1, err := s.Table1(ctx)
		if err != nil {
			return "", err
		}
		b.WriteString(FormatTable1(t1))
		f8, gmBB, gmGl, err := s.Figure8(ctx)
		if err != nil {
			return "", err
		}
		b.WriteString(FormatFigure8(f8, gmBB, gmGl))
		t2, geo, err := s.Table2(ctx)
		if err != nil {
			return "", err
		}
		b.WriteString(FormatTable2(t2, geo))
		f9, gmMB3, gmDyn, err := s.Figure9(ctx)
		if err != nil {
			return "", err
		}
		b.WriteString(FormatFigure9(f9, gmMB3, gmDyn))
		return b.String(), nil
	}

	serial := NewSuite()
	serial.Runner.Parallelism = 1
	want, err := render(serial)
	if err != nil {
		t.Fatal(err)
	}
	parallel := NewSuite()
	parallel.Runner.Parallelism = 8
	got, err := render(parallel)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Errorf("parallel output differs from serial output:\n--- serial ---\n%s\n--- parallel ---\n%s", want, got)
	}

	// Tables 1–2 and Figures 8–9 touch every workload register-allocated
	// and (via the infinite-register bars) unallocated: 7 × 2 unique
	// builds, each issued exactly once no matter how many grid cells
	// share it.
	snap := parallel.Metrics()
	wantBuilds := int64(2 * len(parallel.Workloads))
	if snap.Builds != wantBuilds {
		t.Errorf("store issued %d builds, want exactly %d (one per workload × regalloc mode)",
			snap.Builds, wantBuilds)
	}
	if snap.CacheHits == 0 {
		t.Error("no cache hits across the full evaluation — memoization broken")
	}
	if snap.Simulations == 0 || snap.SimCycles == 0 {
		t.Errorf("metrics missing simulator activity: %+v", snap)
	}
	if snap.BoostedExec == 0 || snap.Squashed == 0 {
		t.Errorf("metrics missing speculation activity: %+v", snap)
	}
}

// TestRunnerCancellation: a context cancelled mid-grid aborts promptly
// with an error wrapping context.Canceled.
func TestRunnerCancellation(t *testing.T) {
	s := NewSuite()
	s.Runner.Parallelism = 2
	ctx, cancel := context.WithCancel(context.Background())
	// Cancel shortly after the grid starts; the workers must notice at
	// the next stage boundary.
	go func() {
		time.Sleep(10 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	_, err := s.Runner.Run(ctx, fullGrid(s))
	if err == nil {
		t.Fatal("cancelled grid returned no error")
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want wrapped context.Canceled", err)
	}
	// "Promptly": well under the many seconds the full grid would take.
	if d := time.Since(start); d > 5*time.Second {
		t.Errorf("cancelled grid took %s to return", d)
	}

	// An already-cancelled context never starts work.
	done, cancelNow := context.WithCancel(context.Background())
	cancelNow()
	if _, err := s.Runner.Run(done, fullGrid(s)); !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-cancelled grid: err = %v", err)
	}
}

// TestRunnerCellError: a failing cell aborts the grid with that cell's
// error, not a knock-on cancellation. The broken workload builds
// structurally different train/test programs, so profile transfer fails.
func TestRunnerCellError(t *testing.T) {
	if testing.Short() {
		t.Skip("full grid with an injected failure in -short mode")
	}
	s := NewSuite()
	s.Runner.Parallelism = 4
	bad := &workloads.Workload{
		Name: "broken",
		Build: func(in workloads.Input) *prog.Program {
			pr := prog.New()
			f := prog.NewBuilder(pr, "main")
			r := f.Reg()
			f.Li(r, 1)
			if in.Size > 1 {
				f.Li(r, 2)
			}
			f.Out(r)
			f.Halt()
			f.Finish()
			return pr
		},
		Train: workloads.Input{Size: 1},
		Test:  workloads.Input{Size: 2},
	}
	cells := append(fullGrid(s), Cell{Workload: bad, Model: machine.MinBoost3(), Alloc: true})
	_, err := s.Runner.Run(context.Background(), cells)
	if err == nil {
		t.Fatal("broken workload cell must fail the grid")
	}
	if errors.Is(err, context.Canceled) {
		t.Errorf("grid error should surface the cell failure, got %v", err)
	}
	if !strings.Contains(err.Error(), "broken") {
		t.Errorf("error %q does not name the failing cell", err)
	}
}

// TestCacheKeysIncludeAblations: ablation runs must not collide with
// default-run cache entries when requested through the same Suite (the
// historical bug: keys ignored DisableEquivalence/NoDisambiguation).
func TestCacheKeysIncludeAblations(t *testing.T) {
	s := NewSuite()
	ctx := context.Background()
	w := s.Workloads[4] // grep
	base, err := s.Store.measure(ctx, w, machine.MinBoost3(), core.Options{}, true)
	if err != nil {
		t.Fatal(err)
	}
	type variant struct {
		name string
		opts core.Options
	}
	variants := []variant{
		{"DisableEquivalence", core.Options{DisableEquivalence: true}},
		{"NoDisambiguation", core.Options{NoDisambiguation: true}},
		{"MaxTraceBlocks=1", core.Options{MaxTraceBlocks: 1}},
	}
	distinct := false
	for _, v := range variants {
		c, err := s.Store.measure(ctx, w, machine.MinBoost3(), v.opts, true)
		if err != nil {
			t.Fatalf("%s: %v", v.name, err)
		}
		if c != base {
			distinct = true
		}
		// Re-measuring the default must still return the default cycles.
		again, err := s.Store.measure(ctx, w, machine.MinBoost3(), core.Options{}, true)
		if err != nil {
			t.Fatal(err)
		}
		if again != base {
			t.Errorf("after %s run, default measurement changed: %d vs %d", v.name, again, base)
		}
	}
	if !distinct {
		t.Error("no ablation changed the cycle count; key-collision test has no teeth")
	}

	// Same point for the two dynamic variants sharing the cycles table.
	plain, err := s.DynCycles(ctx, w, false)
	if err != nil {
		t.Fatal(err)
	}
	pre, err := s.DynPrescheduled(ctx, w, false)
	if err != nil {
		t.Fatal(err)
	}
	again, err := s.DynCycles(ctx, w, false)
	if err != nil {
		t.Fatal(err)
	}
	if again != plain {
		t.Errorf("prescheduled run clobbered the plain dynamic entry: %d vs %d", again, plain)
	}
	_ = pre
}

// TestCellString covers the grid-cell formatter used in error paths.
func TestCellString(t *testing.T) {
	s := NewSuite()
	w := s.Workloads[0]
	static := Cell{Workload: w, Model: machine.MinBoost3(), Alloc: true}
	if got := static.String(); !strings.Contains(got, "awk/MinBoost3") {
		t.Errorf("static cell = %q", got)
	}
	dyn := Cell{Workload: w, Dynamic: true, Renaming: true}
	if got := dyn.String(); !strings.Contains(got, "dynamic(renaming=true)") {
		t.Errorf("dynamic cell = %q", got)
	}
}

// TestMetricsSnapshotFormat sanity-checks the metrics renderers.
func TestMetricsSnapshotFormat(t *testing.T) {
	s := NewSuite()
	ctx := context.Background()
	if _, err := s.ScalarCycles(ctx, s.Workloads[4]); err != nil {
		t.Fatal(err)
	}
	snap := s.Metrics()
	text := snap.String()
	for _, want := range []string{"build", "schedule", "simulate", "cache"} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics table missing %q:\n%s", want, text)
		}
	}
	js, err := snap.JSON()
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`"builds"`, `"cache_hits"`, `"simulated_cycles"`} {
		if !strings.Contains(js, want) {
			t.Errorf("metrics JSON missing %s:\n%s", want, js)
		}
	}
	if snap.Simulations != 1 || snap.SimCycles <= 0 {
		t.Errorf("one scalar baseline should be one simulation: %+v", snap)
	}
	if fmt.Sprintf("%.3f", Snapshot{}.HitRate()) != "1.000" {
		t.Error("idle hit rate should be 1")
	}
}

// TestSuiteKeepsNoSchedules: the Suite schedules a private clone for each
// cell and keeps only the verified result, so after Table 2 on one kernel
// its compiled program records no schedule variant. A machine schedule
// holds a whole scheduled program; this is the deterministic form of
// paper-eval's mem_mb bound.
func TestSuiteKeepsNoSchedules(t *testing.T) {
	ctx := context.Background()
	s := NewSuite()
	grep := s.Workloads[4]
	s.Workloads = []*workloads.Workload{grep}
	if _, _, err := s.Table2(ctx); err != nil {
		t.Fatal(err)
	}
	if n := s.Metrics().Schedules; n != 5 {
		t.Errorf("Table 2 ran %d schedule passes, want 5 (NoBoost plus four boosting models)", n)
	}
	c, err := s.Store.compile(ctx, grep, true)
	if err != nil {
		t.Fatal(err)
	}
	if n := len(c.Artifact().Variants); n != 0 {
		t.Errorf("the Suite's compiled grep records %d schedule variants, want 0", n)
	}
}
