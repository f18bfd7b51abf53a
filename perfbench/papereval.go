package main

import (
	"context"
	"fmt"
	"hash/fnv"
	"math/rand"
	"runtime"
	"time"

	"boosting/internal/core"
	"boosting/internal/experiments"
	"boosting/internal/machine"
	"boosting/internal/profile"
	"boosting/internal/prog"
	"boosting/internal/sim"
	"boosting/internal/workloads"
)

// kernelSet generates the kernel set the evaluation runs on: the seven
// kernels with the paper's inputs, each one's training and test programs
// built and verified.
func kernelSet() ([]*workloads.Workload, error) {
	ws := workloads.All()
	for _, w := range ws {
		for _, pr := range []*prog.Program{w.BuildTrain(), w.BuildTest()} {
			if err := prog.VerifyProgram(pr); err != nil {
				return nil, fmt.Errorf("%s: %w", w.Name, err)
			}
		}
	}
	return ws, nil
}

// passOrder returns a generator of the order in which each pass visits
// the kernels: one seeded permutation per pass.
func passOrder(seed int64, n int) func() []int {
	rng := rand.New(rand.NewSource(seed))
	return func() []int { return rng.Perm(n) }
}

// evaluation is what one kernel's full evaluation produced.
type evaluation struct {
	steps             []time.Duration // per suiteSteps entry
	digest            uint64
	simCycles         int64
	boosted, squashed int64
	mb3Speedup        float64 // Figure 9's MinBoost3 speedup over the R2000
}

// suiteSteps are the Suite methods `cmd/experiments -all` calls, in its
// order; each returns its rows for the digest.
var suiteSteps = []struct {
	name string
	run  func(context.Context, *experiments.Suite) (any, error)
}{
	{"experiments.table1", func(ctx context.Context, s *experiments.Suite) (any, error) { return s.Table1(ctx) }},
	{"experiments.figure8", func(ctx context.Context, s *experiments.Suite) (any, error) {
		rows, bb, gl, err := s.Figure8(ctx)
		return []any{rows, bb, gl}, err
	}},
	{"experiments.table2", func(ctx context.Context, s *experiments.Suite) (any, error) {
		rows, geo, err := s.Table2(ctx)
		return []any{rows, geo}, err
	}},
	{"experiments.figure9", func(ctx context.Context, s *experiments.Suite) (any, error) {
		rows, mb3, dyn, err := s.Figure9(ctx)
		return []any{rows, mb3, dyn}, err
	}},
	{"experiments.exceptions", func(ctx context.Context, s *experiments.Suite) (any, error) { return s.ExceptionCostsReport(ctx) }},
	{"experiments.memhier", func(ctx context.Context, s *experiments.Suite) (any, error) { return s.MemHierAblation(ctx) }},
}

// evaluate runs every Suite step on s, one span per step under parent.
func evaluate(ctx context.Context, s *experiments.Suite, tr *tracer, unit, parent int) (evaluation, error) {
	h := fnv.New64a()
	var ev evaluation
	for _, st := range suiteSteps {
		sp := tr.begin(st.name, unit, parent)
		t0 := time.Now()
		v, err := st.run(ctx, s)
		ev.steps = append(ev.steps, time.Since(t0))
		tr.end(sp)
		if err != nil {
			return ev, fmt.Errorf("%s: %w", st.name, err)
		}
		fmt.Fprintf(h, "%s:%+v\n", st.name, v)
		if st.name == "experiments.figure9" {
			ev.mb3Speedup = v.([]any)[0].([]experiments.Figure9Row)[0].MinBoost3
		}
	}
	m := s.Metrics()
	ev.digest, ev.simCycles, ev.boosted, ev.squashed = h.Sum64(), m.SimCycles, m.BoostedExec, m.Squashed
	return ev, nil
}

// warmRepeats is how many times each unit asks its warm Suite again.
const warmRepeats = 16

func newKernelSuite(w *workloads.Workload) *experiments.Suite {
	s := experiments.NewSuite()
	s.Workloads = []*workloads.Workload{w}
	s.Runner.Parallelism = 1
	return s
}

// paperEval runs the paper's evaluation one kernel at a time: each unit is
// one kernel's Table 1, Figure 8, Table 2, Figure 9, exception costs and
// memory-hierarchy ablation on a fresh Suite, and each unit is followed by
// the same calls on the now-warm Suite, which its Store answers from
// memos (the cache-served operation). Every pass visits the seven kernels
// in an order drawn from the seed.
func paperEval(ctx context.Context, r *runState) error {
	const setups = 200
	var (
		setupTimes []time.Duration
		ks         []*workloads.Workload
	)
	for i := 0; i < setups; i++ {
		if i%20 == 0 {
			r.clock.sample()
		}
		runtime.GC()
		t0 := time.Now()
		var err error
		if ks, err = kernelSet(); err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		setupTimes = append(setupTimes, time.Since(t0))
	}
	next := passOrder(r.cfg.seed, len(ks))

	miss, hit := newSamples(), newSamples()
	plainUnits, traced := newSamples(), newSamples()
	first := make([]*evaluation, len(ks))
	var (
		alloc  allocMeter
		peak   float64
		rp     = &replayer{tr: r.tr}
		counts evaluation // summed over the first pass
	)
	runtime.GC()
	since := readCounters()
	deadline := time.Now().Add(r.cfg.seconds)
	for pass := 0; ; pass++ {
		tracedPass := r.tr != nil && pass%2 == 1
		for _, i := range next() {
			w := ks[i]
			o := r.op()
			s := newKernelSuite(w)
			r.clock.sample()
			runtime.GC()
			unit := r.unit()
			alloc.begin()
			t0 := time.Now()
			var etr *tracer // spans only in traced passes
			root := -1
			if tracedPass {
				etr = r.tr
				root = r.tr.begin("unit", unit, -1)
			}
			ev, err := evaluate(ctx, s, etr, unit, root)
			d := time.Since(t0)
			r.tr.end(root)
			alloc.end()
			if o.fail("verify", err) {
				continue
			}
			if tracedPass {
				traced.add(w.Name, d)
			} else {
				plainUnits.add(w.Name, d)
				for k, st := range suiteSteps {
					miss.add(w.Name+"/"+st.name, ev.steps[k])
				}
			}
			if first[i] == nil {
				first[i] = &ev
				counts.simCycles += ev.simCycles
				counts.boosted += ev.boosted
				counts.squashed += ev.squashed
				if mb := liveHeapMiB(); mb > peak {
					peak = mb
				}
			} else if ev.digest != first[i].digest || ev.simCycles != first[i].simCycles {
				o.fail("digest", errDigest)
			}

			// The warm Suite answers every step from its Store.
			for k := 0; k < warmRepeats; k++ {
				h := r.op()
				t0 = time.Now()
				warm, err := evaluate(ctx, s, nil, 0, -1)
				d = time.Since(t0)
				if h.fail("verify", err) {
					continue
				}
				hit.add(w.Name, d)
				if warm.digest != ev.digest {
					h.fail("digest", errDigest)
				}
				if warm.simCycles != ev.simCycles {
					h.fail("cache", fmt.Errorf("%s: warm Suite simulated %d more cycles", w.Name, warm.simCycles-ev.simCycles))
				}
			}
			if tracedPass {
				rp.start(unit)
				if err := replayKernel(rp, w); err != nil {
					o.fail("verify", fmt.Errorf("replay: %w", err))
				}
				rp.finish()
			}
		}
		if time.Now().After(deadline) && (r.tr == nil || pass >= 1) {
			break
		}
	}

	var gms []float64
	for i, ev := range first {
		if ev == nil {
			return fmt.Errorf("kernel %s failed on every repetition", ks[i].Name)
		}
		gms = append(gms, ev.mb3Speedup)
	}
	if r.tr != nil {
		r.setRuntimeMetrics(&alloc, since)
		r.setResultCounts(counts.boosted, counts.squashed)
		lt := r.tr.selfTimes()
		perEval := func(name string, steps ...string) {
			var sum time.Duration
			for _, st := range steps {
				sum += lt[st].self
			}
			r.set(name, secs(sum)/float64(traced.n())*float64(len(ks)), "s")
		}
		perEval("experiments.tables_s", "experiments.table1", "experiments.figure8", "experiments.table2")
		perEval("experiments.fig9_s", "experiments.figure9")
		perEval("experiments.exceptions_s", "experiments.exceptions")
		perEval("experiments.memhier_s", "experiments.memhier")
		r.set("memhier.l1_misses", float64(rp.l1Misses)/float64(traced.n())*float64(len(ks)), "count")
		containers := map[string]bool{}
		for _, st := range suiteSteps {
			containers[st.name] = true
		}
		r.setLayerMetrics(rp, containers, plainUnits.fastestSum(), traced.fastestSum())
		return nil
	}
	// A kernel's cold evaluation is the computing operation and its warm
	// re-evaluation the cache-served one. The mean over the seven kernels
	// stands in for their median: a median of seven unlike kernels rests
	// on one or two of them, and it spread 25% between runs where the sum
	// spread 12%.
	eval := miss.fastestSum()
	r.setEndToEnd(minDur(setupTimes), peak, eval, eval, counts.simCycles,
		eval/time.Duration(len(ks)), hit.fastestMean(), geoMean(gms))
	return nil
}

// replayKernel replays one kernel's evaluation in the order a Suite with
// Parallelism 1 computes it, each memoized artifact once.
func replayKernel(rp *replayer, w *workloads.Workload) error {
	local := core.Options{LocalOnly: true}
	// Table 1: scalar baseline (building the allocated pair and its
	// reference run on the way), then the prediction accuracy.
	test, ref, err := rp.compile(w, true)
	if err != nil {
		return err
	}
	if err := rp.schedExec(test, machine.Scalar(), local, ref); err != nil {
		return err
	}
	rp.span("profile.accuracy", func() { _, err = profile.Accuracy(test) })
	if err != nil {
		return err
	}
	// Figure 8 and Table 2.
	if err := rp.schedExec(test, machine.NoBoost(), local, ref); err != nil {
		return err
	}
	if err := rp.schedExec(test, machine.NoBoost(), core.Options{}, ref); err != nil {
		return err
	}
	inf, infRef, err := rp.compile(w, false)
	if err != nil {
		return err
	}
	if err := rp.schedExec(inf, machine.NoBoost(), core.Options{}, infRef); err != nil {
		return err
	}
	for _, m := range []*machine.Model{machine.Squashing(), machine.Boost1(), machine.MinBoost3(), machine.Boost7()} {
		if err := rp.schedExec(test, m, core.Options{}, ref); err != nil {
			return err
		}
	}
	// Figure 9.
	if err := rp.schedExec(inf, machine.MinBoost3(), core.Options{}, infRef); err != nil {
		return err
	}
	for _, renaming := range []bool{false, true} {
		if err := rp.dyn(test, renaming, ref); err != nil {
			return err
		}
	}
	// Exception costs: one more MinBoost3 schedule for object growth.
	if _, err := rp.schedule(test, machine.MinBoost3(), core.Options{}); err != nil {
		return err
	}
	// Memory-hierarchy ablation: every prefetcher as a lane of one batch.
	var lanes []sim.ExecConfig
	for _, pref := range []string{"none", "stride", "stream"} {
		cfg := experiments.AblationMemConfig(pref)
		lanes = append(lanes, sim.ExecConfig{Mem: &cfg})
	}
	if err := rp.batch(test, machine.Scalar(), local, lanes, ref); err != nil {
		return err
	}
	for _, m := range []*machine.Model{machine.Boost1(), machine.MinBoost3(), machine.Boost7()} {
		for _, opts := range []core.Options{{}, {NoBoostedLoads: true}} {
			if err := rp.batch(test, m, opts, lanes, ref); err != nil {
				return err
			}
		}
	}
	return nil
}
