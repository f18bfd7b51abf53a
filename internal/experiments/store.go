package experiments

import (
	"context"
	"fmt"
	"sync"
	"time"

	"boosting/internal/cache"
	"boosting/internal/core"
	"boosting/internal/dynsched"
	"boosting/internal/machine"
	"boosting/internal/memhier"
	"boosting/internal/profile"
	"boosting/internal/prog"
	"boosting/internal/regalloc"
	"boosting/internal/sim"
	"boosting/internal/unroll"
	"boosting/internal/workloads"
)

// Store is the concurrency-safe artifact store behind the experiment
// harness. Every expensive pipeline product — built train/test program
// pairs, reference-interpreter runs, prediction accuracies, machine
// schedules' measurements — is memoized with singleflight deduplication,
// so grid cells running in parallel never rebuild the same artifact and
// repeated table/figure generation reuses all shared work.
//
// Keying scheme (see docs/PIPELINE.md): artifacts are keyed by the full
// identity of everything that can change their value — workload name plus
// train/test inputs, register-allocation mode, machine-model name, and
// every scheduler ablation flag (LocalOnly, DisableEquivalence,
// NoDisambiguation, MaxTraceBlocks). Machine-model names are assumed to
// identify their configuration, as they do for every model constructor in
// internal/machine.
//
// Programs returned by pair are canonical master copies: they are shared
// between callers and must never be mutated. The scheduler mutates its
// input, so every schedule runs on a prog.Clone of the master (verified
// to produce bit-identical schedules to a fresh build).
type Store struct {
	pairs  *cache.Memo[*prog.Program]
	refs   *cache.Memo[*sim.Result]
	acc    *cache.Memo[float64]
	cycles *cache.Memo[int64]
	execs  *cache.Memo[*sim.ExecResult]
	growth *cache.Memo[float64]

	metrics Metrics
}

// NewStore returns an empty artifact store.
func NewStore() *Store {
	return &Store{
		pairs:  cache.NewMemo[*prog.Program](),
		refs:   cache.NewMemo[*sim.Result](),
		acc:    cache.NewMemo[float64](),
		cycles: cache.NewMemo[int64](),
		execs:  cache.NewMemo[*sim.ExecResult](),
		growth: cache.NewMemo[float64](),
	}
}

// Metrics returns a snapshot of the per-stage counters with the artifact
// cache hit/miss totals folded in.
func (st *Store) Metrics() Snapshot {
	s := st.metrics.snapshot()
	for _, m := range []interface{ Stats() (int64, int64) }{
		st.pairs, st.refs, st.acc, st.cycles, st.execs, st.growth,
	} {
		h, miss := m.Stats()
		s.CacheHits += h
		s.CacheMisses += miss
	}
	return s
}

// wkey identifies a workload by name and by its train/test inputs, so
// custom workloads reusing a builder under the same name (different
// seeds/sizes) never collide in one store.
func wkey(w *workloads.Workload) string {
	return fmt.Sprintf("%s;train=%d:%d;test=%d:%d",
		w.Name, w.Train.Seed, w.Train.Size, w.Test.Seed, w.Test.Size)
}

// okey spells out every ablation flag of a scheduler configuration.
func okey(opts core.Options) string {
	return fmt.Sprintf("local=%v;noeq=%v;nodis=%v;nobl=%v;trace=%d",
		opts.LocalOnly, opts.DisableEquivalence, opts.NoDisambiguation,
		opts.NoBoostedLoads, opts.MaxTraceBlocks)
}

// pair returns the memoized built test program for the workload: train
// and test built, optionally register-allocated, predictions transferred
// from the training profile. The returned program is shared — clone
// before mutating.
func (st *Store) pair(ctx context.Context, w *workloads.Workload, alloc bool) (*prog.Program, error) {
	key := fmt.Sprintf("pair|%s|alloc=%v", wkey(w), alloc)
	return st.pairs.Do(ctx, key, func() (*prog.Program, error) {
		start := time.Now()
		train := w.BuildTrain()
		test := w.BuildTest()
		if alloc {
			if _, err := regalloc.Allocate(train); err != nil {
				return nil, fmt.Errorf("%s: regalloc train: %w", w.Name, err)
			}
			if _, err := regalloc.Allocate(test); err != nil {
				return nil, fmt.Errorf("%s: regalloc test: %w", w.Name, err)
			}
		}
		if err := profile.Annotate(train); err != nil {
			return nil, fmt.Errorf("%s: profile: %w", w.Name, err)
		}
		if err := profile.Transfer(train, test); err != nil {
			return nil, fmt.Errorf("%s: transfer: %w", w.Name, err)
		}
		st.metrics.recordBuild(time.Since(start))
		return test, nil
	})
}

// checkout returns a private, mutation-safe clone of the built pair.
func (st *Store) checkout(ctx context.Context, w *workloads.Workload, alloc bool) (*prog.Program, error) {
	master, err := st.pair(ctx, w, alloc)
	if err != nil {
		return nil, err
	}
	return prog.Clone(master), nil
}

// reference returns (cached) reference-interpreter results for the test
// input.
func (st *Store) reference(ctx context.Context, w *workloads.Workload, alloc bool) (*sim.Result, error) {
	key := fmt.Sprintf("ref|%s|alloc=%v", wkey(w), alloc)
	return st.refs.Do(ctx, key, func() (*sim.Result, error) {
		test, err := st.pair(ctx, w, alloc)
		if err != nil {
			return nil, err
		}
		start := time.Now()
		r, err := sim.Run(test, sim.RefConfig{})
		if err != nil {
			return nil, fmt.Errorf("%s: reference: %w", w.Name, err)
		}
		st.metrics.recordRef(time.Since(start))
		return r, nil
	})
}

// accuracy measures the static predictor on the test input (cached).
func (st *Store) accuracyOf(ctx context.Context, w *workloads.Workload) (float64, error) {
	key := "acc|" + wkey(w)
	return st.acc.Do(ctx, key, func() (float64, error) {
		test, err := st.pair(ctx, w, true)
		if err != nil {
			return 0, err
		}
		return profile.Accuracy(test)
	})
}

// scheduleAndExec clones the built pair, schedules it for the model and
// executes it on the machine simulator, verifying against the reference
// run before returning. mem, when non-nil, plugs a finite memory
// hierarchy into the timing model.
func (st *Store) scheduleAndExec(ctx context.Context, w *workloads.Workload, model *machine.Model,
	opts core.Options, alloc bool, mem *memhier.Config) (*sim.ExecResult, error) {
	ref, err := st.reference(ctx, w, alloc)
	if err != nil {
		return nil, err
	}
	test, err := st.checkout(ctx, w, alloc)
	if err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	start := time.Now()
	sp, cst, err := core.ScheduleWithStats(test, model, opts)
	if err != nil {
		return nil, fmt.Errorf("%s on %s: %w", w.Name, model.Name, err)
	}
	st.metrics.recordSchedule(time.Since(start), cst)
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	cfg := sim.ExecConfig{Mem: mem}
	start = time.Now()
	res, err := sim.Exec(sp, cfg)
	if err != nil {
		return nil, fmt.Errorf("%s on %s: exec: %w", w.Name, model.Name, err)
	}
	st.metrics.recordSim(time.Since(start), res.Cycles, res.BoostedExec, res.Squashed)
	if err := verify(ref, res.Out, res.MemHash); err != nil {
		return nil, fmt.Errorf("%s on %s: %w", w.Name, model.Name, err)
	}
	return res, nil
}

// measure compiles the workload for the model/options and returns
// verified cycle counts (cached under the full ablation key).
func (st *Store) measure(ctx context.Context, w *workloads.Workload, model *machine.Model,
	opts core.Options, alloc bool) (int64, error) {
	key := fmt.Sprintf("cyc|%s|model=%s|%s|alloc=%v", wkey(w), model.Name, okey(opts), alloc)
	return st.cycles.Do(ctx, key, func() (int64, error) {
		res, err := st.scheduleAndExec(ctx, w, model, opts, alloc, nil)
		if err != nil {
			return 0, err
		}
		return res.Cycles, nil
	})
}

// measureMem is measure with a finite memory hierarchy in the timing
// model; it returns the full execution result so callers can read miss
// rates, prefetch counters and squashed-stall accounting. The returned
// result is shared — callers must not mutate it.
func (st *Store) measureMem(ctx context.Context, w *workloads.Workload, model *machine.Model,
	opts core.Options, mcfg memhier.Config) (*sim.ExecResult, error) {
	key := fmt.Sprintf("mem|%s|model=%s|%s|alloc=true|mem=%s",
		wkey(w), model.Name, okey(opts), mcfg.Key())
	return st.execs.Do(ctx, key, func() (*sim.ExecResult, error) {
		return st.scheduleAndExec(ctx, w, model, opts, true, &mcfg)
	})
}

// measureMemBatch measures one (workload, model, options) schedule under
// several memory hierarchies in a single lockstep pass: the program is
// scheduled and predecoded once and every hierarchy runs as one
// sim.ExecBatch lane. Each lane's verified result enters the memo under
// the same key measureMem uses, so mixed batch/solo access patterns share
// one measurement. The returned results are shared — do not mutate.
func (st *Store) measureMemBatch(ctx context.Context, w *workloads.Workload, model *machine.Model,
	opts core.Options, mcfgs []memhier.Config) ([]*sim.ExecResult, error) {
	keys := make([]string, len(mcfgs))
	for i, mcfg := range mcfgs {
		keys[i] = fmt.Sprintf("mem|%s|model=%s|%s|alloc=true|mem=%s",
			wkey(w), model.Name, okey(opts), mcfg.Key())
	}
	// The batch body runs at most once, on the first memo miss; lanes whose
	// keys are already cached are answered from the memo without executing.
	var (
		once     sync.Once
		batch    []*sim.ExecResult
		batchErr []error
	)
	run := func() {
		batchErr = make([]error, len(mcfgs))
		ref, err := st.reference(ctx, w, true)
		if err == nil && ctx.Err() != nil {
			err = ctx.Err()
		}
		var sp *machine.SchedProgram
		if err == nil {
			var test *prog.Program
			if test, err = st.checkout(ctx, w, true); err == nil {
				start := time.Now()
				var cst *core.Stats
				sp, cst, err = core.ScheduleWithStats(test, model, opts)
				if err != nil {
					err = fmt.Errorf("%s on %s: %w", w.Name, model.Name, err)
				} else {
					st.metrics.recordSchedule(time.Since(start), cst)
				}
			}
		}
		if err != nil {
			for i := range batchErr {
				batchErr[i] = err
			}
			return
		}
		cfgs := make([]sim.ExecConfig, len(mcfgs))
		for i := range mcfgs {
			cfgs[i] = sim.ExecConfig{Mem: &mcfgs[i]}
		}
		start := time.Now()
		results, errs := sim.ExecBatch(sp, cfgs)
		// The lanes ran together: each is charged an equal share of the
		// batch's wall time, not all of it.
		share := time.Since(start) / time.Duration(len(results))
		batch = results
		for i, res := range results {
			if errs[i] != nil {
				batchErr[i] = fmt.Errorf("%s on %s: exec: %w", w.Name, model.Name, errs[i])
				continue
			}
			st.metrics.recordSim(share, res.Cycles, res.BoostedExec, res.Squashed)
			if verr := verify(ref, res.Out, res.MemHash); verr != nil {
				batchErr[i] = fmt.Errorf("%s on %s: %w", w.Name, model.Name, verr)
			}
		}
	}
	out := make([]*sim.ExecResult, len(mcfgs))
	for i := range mcfgs {
		i := i
		res, err := st.execs.Do(ctx, keys[i], func() (*sim.ExecResult, error) {
			once.Do(run)
			if batchErr[i] != nil {
				return nil, batchErr[i]
			}
			return batch[i], nil
		})
		if err != nil {
			return nil, err
		}
		out[i] = res
	}
	return out, nil
}

// objectGrowth returns the scheduled-size-over-original ratio for the
// workload under the model (cached).
func (st *Store) objectGrowth(ctx context.Context, w *workloads.Workload, model *machine.Model,
	opts core.Options) (float64, error) {
	key := fmt.Sprintf("growth|%s|model=%s|%s", wkey(w), model.Name, okey(opts))
	return st.growth.Do(ctx, key, func() (float64, error) {
		test, err := st.checkout(ctx, w, true)
		if err != nil {
			return 0, err
		}
		start := time.Now()
		sp, cst, err := core.ScheduleWithStats(test, model, opts)
		if err != nil {
			return 0, err
		}
		st.metrics.recordSchedule(time.Since(start), cst)
		return sp.ObjectGrowth(), nil
	})
}

// dynMeasure runs the dynamically-scheduled machine on the (cloned)
// register-allocated test program, optionally prescheduled by the NoBoost
// global scheduler first (the §4.3.2 experiment).
func (st *Store) dynMeasure(ctx context.Context, w *workloads.Workload, renaming, presched bool) (int64, error) {
	key := fmt.Sprintf("dyn|%s|ren=%v|presched=%v", wkey(w), renaming, presched)
	return st.cycles.Do(ctx, key, func() (int64, error) {
		test, err := st.checkout(ctx, w, true)
		if err != nil {
			return 0, err
		}
		if presched {
			// Global scheduling without boosting rewrites every block's
			// instruction list into schedule order and adds compensation
			// blocks; the result is an ordinary sequential program.
			start := time.Now()
			_, cst, err := core.ScheduleWithStats(test, machine.NoBoost(), core.Options{})
			if err != nil {
				return 0, err
			}
			st.metrics.recordSchedule(time.Since(start), cst)
		}
		if err := ctx.Err(); err != nil {
			return 0, err
		}
		cfg := dynsched.Default()
		cfg.Renaming = renaming
		start := time.Now()
		res, err := dynsched.Simulate(test, cfg)
		if err != nil {
			return 0, err
		}
		st.metrics.recordSim(time.Since(start), res.Cycles, 0, 0)
		ref, err := st.reference(ctx, w, true)
		if err != nil {
			return 0, err
		}
		if err := verify(ref, res.Out, res.MemHash); err != nil {
			return 0, fmt.Errorf("%s dynamic: %w", w.Name, err)
		}
		return res.Cycles, nil
	})
}

// unrolled measures MinBoost3 on the workload with its innermost loops
// unrolled ×2 before the standard pipeline (cached).
func (st *Store) unrolled(ctx context.Context, w *workloads.Workload) (int64, error) {
	key := "unroll|" + wkey(w)
	return st.cycles.Do(ctx, key, func() (int64, error) {
		start := time.Now()
		train := w.BuildTrain()
		test := w.BuildTest()
		if _, err := unroll.Program(train, unroll.Options{}); err != nil {
			return 0, err
		}
		if _, err := unroll.Program(test, unroll.Options{}); err != nil {
			return 0, err
		}
		if _, err := regalloc.Allocate(train); err != nil {
			return 0, err
		}
		if _, err := regalloc.Allocate(test); err != nil {
			return 0, err
		}
		if err := profile.Annotate(train); err != nil {
			return 0, err
		}
		if err := profile.Transfer(train, test); err != nil {
			return 0, err
		}
		st.metrics.recordBuild(time.Since(start))
		if err := ctx.Err(); err != nil {
			return 0, err
		}
		start = time.Now()
		sp, cst, err := core.ScheduleWithStats(test, machine.MinBoost3(), core.Options{})
		if err != nil {
			return 0, err
		}
		st.metrics.recordSchedule(time.Since(start), cst)
		start = time.Now()
		res, err := sim.Exec(sp, sim.ExecConfig{})
		if err != nil {
			return 0, err
		}
		st.metrics.recordSim(time.Since(start), res.Cycles, res.BoostedExec, res.Squashed)
		ref, err := st.reference(ctx, w, true)
		if err != nil {
			return 0, err
		}
		if err := verify(ref, res.Out, res.MemHash); err != nil {
			return 0, fmt.Errorf("%s unrolled: %w", w.Name, err)
		}
		return res.Cycles, nil
	})
}
