package experiments

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"

	"boosting/internal/core"
	"boosting/internal/machine"
	"boosting/internal/prog"
	"boosting/internal/workloads"
)

// suiteResults is everything Table 1, Figure 8, Table 2 and Figure 9
// return.
type suiteResults struct {
	T1         []Table1Row
	F8         []Figure8Row
	GmBB, GmGl float64
	T2         []Table2Row
	Geo        map[string]float64
	F9         []Figure9Row
	GmMB3      float64
	GmDyn      float64
}

// runFour runs the four table/figure methods in the order cmd/experiments
// does and returns the first error.
func runFour(ctx context.Context, s *Suite) (r suiteResults, err error) {
	if r.T1, err = s.Table1(ctx); err != nil {
		return r, err
	}
	if r.F8, r.GmBB, r.GmGl, err = s.Figure8(ctx); err != nil {
		return r, err
	}
	if r.T2, r.Geo, err = s.Table2(ctx); err != nil {
		return r, err
	}
	r.F9, r.GmMB3, r.GmDyn, err = s.Figure9(ctx)
	return r, err
}

// TestRunnerParallelMatchesSerial is the engine's determinism contract:
// Table 1, Figure 8, Table 2 and Figure 9, measured at parallelism 1 and
// at parallelism 8 (under the race detector in `make test-race`), return
// exactly the same values, not merely the same rounded output.
func TestRunnerParallelMatchesSerial(t *testing.T) {
	if testing.Short() {
		t.Skip("two full evaluations in -short mode")
	}
	ctx := context.Background()
	var got [2]suiteResults
	for i, p := range []int{1, 8} {
		s := NewSuite()
		s.Runner.Parallelism = p
		r, err := runFour(ctx, s)
		if err != nil {
			t.Fatalf("parallelism %d: %v", p, err)
		}
		got[i] = r
	}
	if !reflect.DeepEqual(got[0], got[1]) {
		t.Errorf("parallel results differ from serial:\n--- serial ---\n%+v\n--- parallel ---\n%+v", got[0], got[1])
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

// TestRunnerCancellation: a context cancelled while the Suite measures
// aborts promptly with an error wrapping context.Canceled, and an
// already-cancelled context starts no work in any method.
func TestRunnerCancellation(t *testing.T) {
	s := NewSuite()
	s.Runner.Parallelism = 2
	ctx, cancel := context.WithCancel(context.Background())
	// Cancel shortly after the evaluation starts; the measurements must
	// notice at the next stage boundary.
	go func() {
		time.Sleep(10 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	_, err := runFour(ctx, s)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want wrapped context.Canceled", err)
	}
	// "Promptly": well under the seconds the evaluation would take.
	if d := time.Since(start); d > 5*time.Second {
		t.Errorf("cancelled evaluation took %s to return", d)
	}

	fresh := NewSuite()
	done, cancelNow := context.WithCancel(context.Background())
	cancelNow()
	if _, err := runFour(done, fresh); !errors.Is(err, context.Canceled) {
		t.Errorf("pre-cancelled tables: err = %v", err)
	}
	if _, err := fresh.ExceptionCostsReport(done); !errors.Is(err, context.Canceled) {
		t.Errorf("pre-cancelled exception costs: err = %v", err)
	}
	if _, err := fresh.MemHierAblation(done); !errors.Is(err, context.Canceled) {
		t.Errorf("pre-cancelled memory ablation: err = %v", err)
	}
	if m := fresh.Metrics(); m.Builds != 0 || m.Simulations != 0 {
		t.Errorf("pre-cancelled Suite did work: %+v", m)
	}
}

// TestRunnerCellError: a failing measurement fails each table with that
// measurement's error, not a knock-on cancellation. The broken workload
// builds structurally different train/test programs, so profile
// transfer fails.
func TestRunnerCellError(t *testing.T) {
	if testing.Short() {
		t.Skip("full evaluation with an injected failure in -short mode")
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
	s.Workloads = append(s.Workloads, bad)
	ctx := context.Background()
	for name, run := range map[string]func() error{
		"Table1":  func() error { _, err := s.Table1(ctx); return err },
		"Figure8": func() error { _, _, _, err := s.Figure8(ctx); return err },
		"Table2":  func() error { _, _, err := s.Table2(ctx); return err },
		"Figure9": func() error { _, _, _, err := s.Figure9(ctx); return err },
	} {
		err := run()
		if err == nil {
			t.Errorf("%s: the broken workload must fail it", name)
			continue
		}
		if errors.Is(err, context.Canceled) {
			t.Errorf("%s: error should surface the measurement failure, got %v", name, err)
		}
		if !strings.Contains(err.Error(), "broken") {
			t.Errorf("%s: error %q does not name the failing workload", name, err)
		}
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
