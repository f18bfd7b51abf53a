package experiments

import (
	"context"
	"fmt"
	"sync"

	"boosting"
	"boosting/internal/artifact"
	"boosting/internal/cache"
	"boosting/internal/core"
	"boosting/internal/dynsched"
	"boosting/internal/machine"
	"boosting/internal/memhier"
	"boosting/internal/profile"
	"boosting/internal/regalloc"
	"boosting/internal/sim"
	"boosting/internal/unroll"
	"boosting/internal/workloads"
)

// Store is the harness's memo of verified results over one
// boosting.Pipeline. The pipeline builds every program, runs its
// reference and R2000 baseline and verifies every run; the Store keeps
// what each grid cell measured, with singleflight deduplication, so
// parallel cells never repeat a measurement and repeated table/figure
// generation reuses all shared work.
//
// The Store keeps no schedules. Pipeline.Simulate records every schedule
// on the shared compiled program, which artifacts need, but a machine
// schedule holds a whole scheduled program: the Store schedules a private
// clone for each cell and keeps only the verified result.
//
// Keying scheme (see docs/PIPELINE.md): results are keyed by everything
// that can change them — workload name plus train/test inputs,
// register-allocation mode, machine-model name, every scheduler ablation
// flag and the memory hierarchy. Machine-model names are assumed to
// identify their configuration, as they do for every model constructor in
// internal/machine.
type Store struct {
	pipe *boosting.Pipeline
	// results holds static cells; cycles holds the dynamic, prescheduled
	// and unrolled runs.
	results *cache.Memo[verified]
	cycles  *cache.Memo[int64]

	// own counts the builds, schedules and simulations the Store runs
	// itself, outside the pipeline.
	mu  sync.Mutex
	own boosting.Counts
}

// verified is one static cell's verified run: the simulator's counters
// (its output stream dropped once checked) and the object growth of the
// schedule that ran.
type verified struct {
	res    *sim.ExecResult
	growth float64
}

// NewStore returns an empty store over a fresh pipeline.
func NewStore() *Store {
	return &Store{
		pipe:    boosting.NewPipeline(),
		results: cache.NewMemo[verified](),
		cycles:  cache.NewMemo[int64](),
	}
}

// Metrics returns the pipeline's and the Store's run counts, with the
// memo hit/miss totals folded in.
func (st *Store) Metrics() Snapshot {
	pc := st.pipe.Counts()
	st.mu.Lock()
	own := st.own
	st.mu.Unlock()
	s := Snapshot{
		Builds:      pc.Builds + own.Builds,
		Schedules:   pc.Schedules + own.Schedules,
		Simulations: pc.Simulations + own.Simulations,
		SimCycles:   pc.SimCycles + own.SimCycles,
		BoostedExec: pc.BoostedExec + own.BoostedExec,
		Squashed:    pc.Squashed + own.Squashed,
	}
	s.CacheHits, s.CacheMisses = st.pipe.CacheStats()
	for _, m := range []interface{ Stats() (int64, int64) }{st.results, st.cycles} {
		h, miss := m.Stats()
		s.CacheHits += h
		s.CacheMisses += miss
	}
	return s
}

// count records builds and schedules the Store ran itself.
func (st *Store) count(builds, schedules int64) {
	st.mu.Lock()
	defer st.mu.Unlock()
	st.own.Builds += builds
	st.own.Schedules += schedules
}

// countRun records a machine run the Store made itself.
func (st *Store) countRun(cycles, boosted, squashed int64) {
	st.mu.Lock()
	defer st.mu.Unlock()
	st.own.Simulations++
	st.own.SimCycles += cycles
	st.own.BoostedExec += boosted
	st.own.Squashed += squashed
}

// wkey identifies a workload by name and by its train/test inputs, so
// custom workloads reusing a builder under the same name (different
// seeds/sizes) never collide in one store.
func wkey(w *workloads.Workload) string {
	return fmt.Sprintf("%s;train=%d:%d;test=%d:%d",
		w.Name, w.Train.Seed, w.Train.Size, w.Test.Seed, w.Test.Size)
}

// compile returns the pipeline's compiled program for the workload.
func (st *Store) compile(ctx context.Context, w *workloads.Workload, alloc bool) (*boosting.Compiled, error) {
	if alloc {
		return st.pipe.CompileWorkload(ctx, w)
	}
	return st.pipe.CompileWorkload(ctx, w, boosting.WithInfiniteRegisters())
}

// scalar returns the workload's R2000 baseline under the memory
// hierarchy (nil = perfect memory).
func (st *Store) scalar(ctx context.Context, w *workloads.Workload, mem *memhier.Config) (int64, error) {
	c, err := st.compile(ctx, w, true)
	if err != nil {
		return 0, err
	}
	if mem == nil {
		return st.pipe.ScalarCycles(ctx, c)
	}
	return st.pipe.ScalarCycles(ctx, c, boosting.WithMemHier(*mem))
}

// measure returns a static cell's verified cycle count with perfect
// memory.
func (st *Store) measure(ctx context.Context, w *workloads.Workload, model *machine.Model,
	opts core.Options, alloc bool) (int64, error) {
	v, err := st.run(ctx, w, model, opts, alloc, nil)
	if err != nil {
		return 0, err
	}
	return v.res.Cycles, nil
}

// run returns a static cell's verified run under the memory hierarchy
// (nil = perfect memory).
func (st *Store) run(ctx context.Context, w *workloads.Workload, model *machine.Model,
	opts core.Options, alloc bool, mem *memhier.Config) (verified, error) {
	vs, err := st.runLanes(ctx, w, model, opts, alloc, []*memhier.Config{mem})
	if err != nil {
		return verified{}, err
	}
	return vs[0], nil
}

// runLanes runs one static cell under several memory hierarchies: a
// private clone is scheduled and predecoded once, and sim.ExecBatch runs
// it under each hierarchy in turn. Each run's verified result enters the
// memo under the key a solo run of it uses.
func (st *Store) runLanes(ctx context.Context, w *workloads.Workload, model *machine.Model,
	opts core.Options, alloc bool, mems []*memhier.Config) ([]verified, error) {
	// The batch body runs at most once, on the first memo miss; runs
	// whose keys are already cached are answered from the memo without
	// executing.
	var (
		once  sync.Once
		batch []verified
		errs  []error
	)
	run := func() {
		batch, errs = make([]verified, len(mems)), make([]error, len(mems))
		sp, c, err := st.schedulePrivate(ctx, w, model, opts, alloc)
		if err != nil {
			for i := range errs {
				errs[i] = err
			}
			return
		}
		cfgs := make([]sim.ExecConfig, len(mems))
		for i, mem := range mems {
			cfgs[i] = sim.ExecConfig{Mem: mem}
		}
		results, execErrs := sim.ExecBatch(sp, cfgs)
		for i, res := range results {
			if execErrs[i] != nil {
				errs[i] = fmt.Errorf("%s on %s: exec: %w", w.Name, model.Name, execErrs[i])
				continue
			}
			st.countRun(res.Cycles, res.BoostedExec, res.Squashed)
			if err := c.Verify(res.Out, res.MemHash); err != nil {
				errs[i] = fmt.Errorf("%s on %s: %w", w.Name, model.Name, err)
				continue
			}
			res.Out = nil
			batch[i] = verified{res: res, growth: sp.ObjectGrowth()}
		}
	}
	out := make([]verified, len(mems))
	for i, mem := range mems {
		key := fmt.Sprintf("run|%s|model=%s|%s|alloc=%v", wkey(w), model.Name, artifact.OptsKey(opts), alloc)
		if mem != nil {
			key += "|mem=" + mem.Key()
		}
		v, err := st.results.Do(ctx, key, func() (verified, error) {
			once.Do(run)
			return batch[i], errs[i]
		})
		if err != nil {
			return nil, err
		}
		out[i] = v
	}
	return out, nil
}

// schedulePrivate schedules a private clone of the workload's compiled
// program for the model, recording nothing on the shared compile.
func (st *Store) schedulePrivate(ctx context.Context, w *workloads.Workload, model *machine.Model,
	opts core.Options, alloc bool) (*machine.SchedProgram, *boosting.Compiled, error) {
	c, err := st.compile(ctx, w, alloc)
	if err != nil {
		return nil, nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, nil, err
	}
	sp, err := core.Schedule(c.Program(), model, opts)
	if err != nil {
		return nil, nil, fmt.Errorf("%s on %s: %w", w.Name, model.Name, err)
	}
	st.count(0, 1)
	if err := ctx.Err(); err != nil {
		return nil, nil, err
	}
	return sp, c, nil
}

// dynMeasure runs the dynamically-scheduled machine on the register-
// allocated test program (cached), optionally prescheduled by the
// NoBoost global scheduler first (the §4.3.2 experiment).
func (st *Store) dynMeasure(ctx context.Context, w *workloads.Workload, renaming, presched bool) (int64, error) {
	key := fmt.Sprintf("dyn|%s|ren=%v|presched=%v", wkey(w), renaming, presched)
	return st.cycles.Do(ctx, key, func() (int64, error) {
		if !presched {
			c, err := st.compile(ctx, w, true)
			if err != nil {
				return 0, err
			}
			res, err := st.pipe.SimulateDynamic(ctx, c, renaming)
			if err != nil {
				return 0, err
			}
			return res.Cycles, nil
		}
		// Global scheduling without boosting rewrites every block's
		// instruction list into schedule order and adds compensation
		// blocks; the result is an ordinary sequential program.
		sp, c, err := st.schedulePrivate(ctx, w, machine.NoBoost(), core.Options{}, true)
		if err != nil {
			return 0, err
		}
		cfg := dynsched.Default()
		cfg.Renaming = renaming
		res, err := dynsched.Simulate(sp.Prog, cfg)
		if err != nil {
			return 0, err
		}
		st.countRun(res.Cycles, 0, 0)
		if err := c.Verify(res.Out, res.MemHash); err != nil {
			return 0, fmt.Errorf("%s dynamic: %w", w.Name, err)
		}
		return res.Cycles, nil
	})
}

// unrolled measures MinBoost3 on the workload with its innermost loops
// unrolled ×2 before the standard pipeline (cached), verified against
// the original program's reference run. It builds the program itself:
// unroll.Program can fail, and a workload's Build function cannot.
func (st *Store) unrolled(ctx context.Context, w *workloads.Workload) (int64, error) {
	key := "unroll|" + wkey(w)
	return st.cycles.Do(ctx, key, func() (int64, error) {
		c, err := st.compile(ctx, w, true)
		if err != nil {
			return 0, err
		}
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
		st.count(1, 0)
		if err := ctx.Err(); err != nil {
			return 0, err
		}
		sp, err := core.Schedule(test, machine.MinBoost3(), core.Options{})
		if err != nil {
			return 0, err
		}
		st.count(0, 1)
		res, err := sim.Exec(sp, sim.ExecConfig{})
		if err != nil {
			return 0, err
		}
		st.countRun(res.Cycles, res.BoostedExec, res.Squashed)
		if err := c.Verify(res.Out, res.MemHash); err != nil {
			return 0, fmt.Errorf("%s unrolled: %w", w.Name, err)
		}
		return res.Cycles, nil
	})
}
