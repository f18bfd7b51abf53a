package boosting

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"

	"boosting/internal/artifact"
	"boosting/internal/cache"
	"boosting/internal/core"
	"boosting/internal/dynsched"
	"boosting/internal/machine"
	"boosting/internal/memhier"
	"boosting/internal/passes"
	"boosting/internal/profile"
	"boosting/internal/prog"
	"boosting/internal/regalloc"
	"boosting/internal/sim"
	"boosting/internal/workloads"
)

// Pipeline is the staged, reusable form of the compile-and-simulate
// facade. It separates the two expensive phases —
//
//	Compile   build train/test pair → register-allocate → profile →
//	          transfer predictions (one artifact per workload ×
//	          register-allocation mode)
//	Simulate  clone → schedule for a machine model → execute → verify
//	          against the reference interpreter
//
// — and memoizes compiled artifacts and the scalar-R2000 baseline with
// singleflight deduplication, so one Pipeline can drive many Simulate
// calls (or a whole Grid) concurrently without ever rebuilding shared
// work. All methods are safe for concurrent use.
type Pipeline struct {
	base     config
	compiles *cache.Memo[*Compiled]
	scalars  *cache.Memo[int64]

	// schedPasses counts scheduler invocations (Simulate misses plus
	// scalar-baseline builds). Artifact-cache tests use it to prove a
	// warm start ran zero schedule passes.
	schedPasses atomic.Int64
}

// NewPipeline returns an empty pipeline. opts become the defaults for
// every stage call; per-call options are layered on top.
func NewPipeline(opts ...Option) *Pipeline {
	return &Pipeline{
		base:     config{}.apply(opts),
		compiles: cache.NewMemo[*Compiled](),
		scalars:  cache.NewMemo[int64](),
	}
}

// Compiled is an immutable compiled artifact: the test program of a
// workload with predictions transferred from its training profile,
// together with its reference-interpreter run. It is shared between
// Simulate calls — Program returns a private clone for callers that
// want to mutate or schedule it themselves.
type Compiled struct {
	// Workload is the workload name this artifact was built from.
	Workload string
	// InfiniteRegisters records whether register allocation was skipped.
	InfiniteRegisters bool

	w      *workloads.Workload
	master *prog.Program
	ref    *sim.Result
	acc    float64
	stats  *CompileStats

	// source records where the program came from ("compile", "disk",
	// "peer", "artifact"); see Source.
	source string

	// mu guards the accumulating state below. Everything above is
	// immutable after construction.
	mu sync.Mutex
	// scalarCyc memoizes the R2000 baseline (0 = not yet measured).
	scalarCyc int64
	// variants caches schedules by artifact.VariantKey so repeat
	// Simulate calls — and warm starts from a decoded artifact — skip
	// the scheduler.
	variants map[string]*schedVariant
}

// Program returns a private, mutation-safe clone of the compiled test
// program.
func (c *Compiled) Program() *prog.Program { return prog.Clone(c.master) }

// PredictionAccuracy is the static predictor's accuracy on the test
// input.
func (c *Compiled) PredictionAccuracy() float64 { return c.acc }

// CompileStats reports the per-pass timings of the artifact build
// (workload construction, register allocation, profiling, reference
// run). The artifact is memoized, so the report describes the build that
// actually ran, not the call that hit the cache.
func (c *Compiled) CompileStats() *CompileStats { return c.stats }

// Compile builds the named workload's train/test pair, register-
// allocates it (unless WithInfiniteRegisters), transfers branch
// predictions from the training profile, and runs the reference
// interpreter on the result. The artifact is memoized: concurrent and
// repeated Compile calls for the same (workload, register mode) share
// one build.
func (p *Pipeline) Compile(ctx context.Context, workload string, opts ...Option) (*Compiled, error) {
	cfg := p.base.apply(opts)
	alloc := !cfg.infiniteReg
	key := compileKey(workload, alloc)
	return p.compiles.Do(ctx, key, func() (*Compiled, error) {
		if cfg.artifacts != nil {
			a, source, err := cfg.artifacts.Get(ctx, key)
			if err == nil && a != nil && a.Workload == workload &&
				a.InfiniteRegisters == cfg.infiniteReg {
				return compiledFromArtifact(a, source), nil
			}
		}
		w, err := workloads.ByName(workload)
		if err != nil {
			return nil, err
		}
		pm := passes.NewManager()
		pm.VerifyEach = cfg.verifyEach
		var train, test *prog.Program
		err = pm.Run("build", func() error {
			train, test = w.BuildTrain(), w.BuildTest()
			return nil
		})
		if err == nil && alloc {
			err = pm.Run("regalloc", func() error {
				if _, err := regalloc.Allocate(train); err != nil {
					return fmt.Errorf("train: %w", err)
				}
				if _, err := regalloc.Allocate(test); err != nil {
					return fmt.Errorf("test: %w", err)
				}
				return nil
			}, train, test)
		}
		if err == nil {
			err = pm.Run("profile", func() error {
				if err := profile.Annotate(train); err != nil {
					return err
				}
				return profile.Transfer(train, test)
			}, train, test)
		}
		var ref *sim.Result
		if err == nil {
			err = pm.Run("reference-run", func() error {
				var rerr error
				ref, rerr = sim.Run(test, sim.RefConfig{})
				return rerr
			})
		}
		if err != nil {
			return nil, fmt.Errorf("boosting: %s: %w", workload, err)
		}
		acc, err := profile.Accuracy(test)
		if err != nil {
			return nil, err
		}
		c := &Compiled{
			Workload:          workload,
			InfiniteRegisters: cfg.infiniteReg,
			w:                 w,
			master:            test,
			ref:               ref,
			acc:               acc,
			stats:             pm.Stats(),
			source:            "compile",
		}
		p.saveArtifact(ctx, cfg, c)
		return c, nil
	})
}

// Simulate schedules the compiled artifact for the model (on a private
// clone), executes it on the machine simulator, verifies output and
// final memory against the reference interpreter, and reports cycles
// and speedup over the scalar R2000 baseline. If the compiled artifact
// already carries a schedule for this (model, options) variant — a
// repeat call, or a warm start from a decoded artifact — the scheduler
// is skipped entirely and the recorded schedule is executed.
func (p *Pipeline) Simulate(ctx context.Context, c *Compiled, model *machine.Model, opts ...Option) (*Result, error) {
	cfg := p.base.apply(opts)
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("boosting: simulate %s on %s: %w", c.Workload, model, err)
	}
	vkey := artifact.VariantKey(model, cfg.core)
	sp, schedStats := c.variant(vkey)
	fresh := sp == nil
	if fresh {
		test := c.Program()
		pm := passes.NewManager()
		pm.VerifyEach = cfg.verifyEach
		var err error
		sp, err = pm.Schedule(test, model, cfg.core)
		if err != nil {
			return nil, err
		}
		p.schedPasses.Add(1)
		schedStats = pm.Stats()
	}
	if schedStats == nil {
		schedStats = &CompileStats{}
	}
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("boosting: simulate %s on %s: %w", c.Workload, model, err)
	}
	res, err := sim.Exec(sp, sim.ExecConfig{Mem: cfg.mem})
	if err != nil {
		return nil, err
	}
	if err := verifyRun(c.ref, res.Out, res.MemHash); err != nil {
		return nil, fmt.Errorf("boosting: %s on %s: %w", c.Workload, model, err)
	}
	scalar, err := p.scalarCycles(ctx, c.Workload, c.scalarHint(), cfg.mem)
	if err != nil {
		return nil, err
	}
	// The scalar baseline is workload-global and computed under the
	// pipeline's base options; only record it on the artifact when the
	// base compile matches it (the standard, allocated, perfect-memory
	// configuration — a hierarchy-specific baseline must not poison the
	// artifact's hint).
	scalarChanged := cfg.mem == nil && !p.base.infiniteReg && c.setScalarCycles(scalar)
	if fresh {
		c.addVariant(vkey, sp, schedStats)
	}
	if fresh || scalarChanged {
		p.saveArtifact(ctx, cfg, c)
	}
	return &Result{
		Compile:            schedStats,
		Cycles:             res.Cycles,
		ScalarCycles:       scalar,
		Speedup:            float64(scalar) / float64(res.Cycles),
		Insts:              res.Insts,
		BoostedExec:        res.BoostedExec,
		Squashed:           res.Squashed,
		MemStalls:          res.MemStalls,
		BoostedMemStalls:   res.BoostedMemStalls,
		SquashedMemStalls:  res.SquashedMemStalls,
		Mem:                res.Mem,
		PredictionAccuracy: c.acc,
		ObjectGrowth:       sp.ObjectGrowth(),
		Out:                res.Out,
	}, nil
}

// SimulateBatch is Simulate over N execution lanes of one schedule: the
// compiled artifact is scheduled (or fetched from its variant cache) and
// predecoded once, then every lane runs in a single lockstep
// sim.ExecBatch pass and is verified against the reference interpreter.
// Lane option sets may vary only the memory hierarchy — WithMemHier /
// WithPerfectMemory — because all lanes share the schedule; a lane whose
// options would change the schedule variant (scheduler ablations,
// WithLocalOnly, ...) fails the whole batch, since its result could not
// equal a solo Simulate of those options. results[i]/errs[i]
// mirror Simulate(ctx, c, model, append(opts, lanes[i]...)...) slot for
// slot; err reports batch-level failures (scheduling, lane validation).
func (p *Pipeline) SimulateBatch(ctx context.Context, c *Compiled, model *machine.Model, lanes [][]Option, opts ...Option) (results []*Result, errs []error, err error) {
	base := p.base.apply(opts)
	if err := ctx.Err(); err != nil {
		return nil, nil, fmt.Errorf("boosting: simulate batch %s on %s: %w", c.Workload, model, err)
	}
	vkey := artifact.VariantKey(model, base.core)
	laneCfgs := make([]config, len(lanes))
	for i, lo := range lanes {
		lc := base.apply(lo)
		if lk := artifact.VariantKey(model, lc.core); lk != vkey {
			return nil, nil, fmt.Errorf(
				"boosting: simulate batch %s on %s: lane %d changes the schedule variant; lanes may only vary the memory hierarchy",
				c.Workload, model, i)
		}
		laneCfgs[i] = lc
	}
	sp, schedStats := c.variant(vkey)
	fresh := sp == nil
	if fresh {
		test := c.Program()
		pm := passes.NewManager()
		pm.VerifyEach = base.verifyEach
		var serr error
		sp, serr = pm.Schedule(test, model, base.core)
		if serr != nil {
			return nil, nil, serr
		}
		p.schedPasses.Add(1)
		schedStats = pm.Stats()
	}
	if schedStats == nil {
		schedStats = &CompileStats{}
	}
	if err := ctx.Err(); err != nil {
		return nil, nil, fmt.Errorf("boosting: simulate batch %s on %s: %w", c.Workload, model, err)
	}
	cfgs := make([]sim.ExecConfig, len(lanes))
	for i := range laneCfgs {
		cfgs[i] = sim.ExecConfig{Mem: laneCfgs[i].mem}
	}
	execRes, execErrs := sim.ExecBatch(sp, cfgs)

	results = make([]*Result, len(lanes))
	errs = make([]error, len(lanes))
	saveNeeded := fresh
	for i := range lanes {
		if execErrs[i] != nil {
			errs[i] = execErrs[i]
			continue
		}
		res := execRes[i]
		if verr := verifyRun(c.ref, res.Out, res.MemHash); verr != nil {
			errs[i] = fmt.Errorf("boosting: %s on %s: %w", c.Workload, model, verr)
			continue
		}
		scalar, serr := p.scalarCycles(ctx, c.Workload, c.scalarHint(), laneCfgs[i].mem)
		if serr != nil {
			errs[i] = serr
			continue
		}
		// Mirrors Simulate's artifact-hint policy: only the standard
		// perfect-memory, allocated configuration may record the baseline.
		if laneCfgs[i].mem == nil && !p.base.infiniteReg && c.setScalarCycles(scalar) {
			saveNeeded = true
		}
		results[i] = &Result{
			Compile:            schedStats,
			Cycles:             res.Cycles,
			ScalarCycles:       scalar,
			Speedup:            float64(scalar) / float64(res.Cycles),
			Insts:              res.Insts,
			BoostedExec:        res.BoostedExec,
			Squashed:           res.Squashed,
			MemStalls:          res.MemStalls,
			BoostedMemStalls:   res.BoostedMemStalls,
			SquashedMemStalls:  res.SquashedMemStalls,
			Mem:                res.Mem,
			PredictionAccuracy: c.acc,
			ObjectGrowth:       sp.ObjectGrowth(),
			Out:                res.Out,
		}
	}
	if fresh {
		c.addVariant(vkey, sp, schedStats)
	}
	if saveNeeded {
		p.saveArtifact(ctx, base, c)
	}
	return results, errs, nil
}

// SchedulePasses reports how many times this pipeline has invoked the
// scheduler (variant misses plus scalar-baseline builds). A fully warm
// artifact start keeps it at zero.
func (p *Pipeline) SchedulePasses() int64 { return p.schedPasses.Load() }

// SimulateDynamic runs the compiled artifact on the paper's
// dynamically-scheduled superscalar (30 reservation stations, 16-entry
// reorder buffer, 2048×4 BTB), with or without register renaming.
// WithMemHier applies here too: loads and stores then contend for the
// same finite hierarchy model the static machines use, and the scalar
// baseline is re-measured under it.
func (p *Pipeline) SimulateDynamic(ctx context.Context, c *Compiled, renaming bool, opts ...Option) (*DynamicResult, error) {
	pcfg := p.base.apply(opts)
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("boosting: simulate %s dynamic: %w", c.Workload, err)
	}
	cfg := dynsched.Default()
	cfg.Renaming = renaming
	cfg.Mem = pcfg.mem
	res, err := dynsched.Simulate(c.Program(), cfg)
	if err != nil {
		return nil, err
	}
	if err := verifyRun(c.ref, res.Out, res.MemHash); err != nil {
		return nil, fmt.Errorf("boosting: %s dynamic: %w", c.Workload, err)
	}
	scalar, err := p.scalarCycles(ctx, c.Workload, c.scalarHint(), pcfg.mem)
	if err != nil {
		return nil, err
	}
	return &DynamicResult{
		Cycles:       res.Cycles,
		ScalarCycles: scalar,
		Speedup:      float64(scalar) / float64(res.Cycles),
		Mispredicts:  res.Mispredicts,
		MemStalls:    res.MemStalls,
		Mem:          res.Mem,
		Out:          res.Out,
	}, nil
}

// Run is Compile followed by Simulate.
func (p *Pipeline) Run(ctx context.Context, workload string, model *machine.Model, opts ...Option) (*Result, error) {
	c, err := p.Compile(ctx, workload, opts...)
	if err != nil {
		return nil, err
	}
	return p.Simulate(ctx, c, model, opts...)
}

// CacheStats reports the pipeline's artifact-cache activity: lookups
// served from the memoized compile/baseline stores versus lookups that
// ran the underlying computation. Servers exporting pipeline metrics
// (cmd/boostd's /metrics) read their gauges from here.
func (p *Pipeline) CacheStats() (hits, misses int64) {
	ch, cm := p.compiles.Stats()
	sh, sm := p.scalars.Stats()
	return ch + sh, cm + sm
}

// scalarCycles memoizes the R2000 baseline per workload, keyed by the
// memory hierarchy, because Speedup must compare like-for-like: a run
// against a finite hierarchy is measured against a scalar baseline
// suffering the same hierarchy. A positive hint — carried by a decoded
// artifact — resolves the baseline without building or scheduling
// anything, as long as the pipeline's base compile is the standard
// allocated, perfect-memory configuration the hint was measured under.
func (p *Pipeline) scalarCycles(ctx context.Context, workload string, hint int64, mem *memhier.Config) (int64, error) {
	key := "scalar|" + workload
	if mem != nil {
		key += "|mem=" + mem.Key()
	}
	return p.scalars.Do(ctx, key, func() (int64, error) {
		if hint > 0 && !p.base.infiniteReg && mem == nil {
			return hint, nil
		}
		c, err := p.Compile(ctx, workload)
		if err != nil {
			return 0, err
		}
		sp, err := core.Schedule(c.Program(), machine.Scalar(), core.Options{LocalOnly: true})
		if err != nil {
			return 0, err
		}
		p.schedPasses.Add(1)
		res, err := sim.Exec(sp, sim.ExecConfig{Mem: mem})
		if err != nil {
			return 0, err
		}
		if err := verifyRun(c.ref, res.Out, res.MemHash); err != nil {
			return 0, fmt.Errorf("boosting: %s scalar baseline: %w", workload, err)
		}
		return res.Cycles, nil
	})
}

// GridCell is one (workload, model, options) point of a batch run.
type GridCell struct {
	Workload string
	Model    *machine.Model
	Opts     []Option
	// Label tags the cell for reporting (for example an ablation name);
	// it does not affect execution.
	Label string
}

// AblationCells crosses workloads and models with every scheduler
// ablation from Ablations(), labelling each cell with the ablation
// name. Feed the result to Grid for a full ablation sweep.
func AblationCells(workloadNames []string, models []*machine.Model) []GridCell {
	var cells []GridCell
	for _, w := range workloadNames {
		for _, m := range models {
			for _, ab := range Ablations() {
				cells = append(cells, GridCell{
					Workload: w, Model: m, Opts: ab.Opts, Label: ab.Name,
				})
			}
		}
	}
	return cells
}

// GridResult pairs a cell with its outcome. Exactly one of Result/Err
// is set.
type GridResult struct {
	Cell   GridCell
	Result *Result
	Err    error
}

// Grid compiles and simulates every cell concurrently (bounded by
// WithParallelism, default GOMAXPROCS) and returns results in cell
// order regardless of completion order. Shared artifacts — compiled
// pairs, scalar baselines — are built exactly once across the whole
// grid. A failing cell records its error in its GridResult and does not
// stop the other cells; cancelling ctx stops the batch, and Grid then
// returns the first context error wrapped alongside the partial
// results.
func (p *Pipeline) Grid(ctx context.Context, cells []GridCell) ([]GridResult, error) {
	results := make([]GridResult, len(cells))
	for i, c := range cells {
		results[i].Cell = c
	}
	idx := make(chan int)
	var wg sync.WaitGroup
	workers := p.base.workers()
	if workers > len(cells) {
		workers = len(cells)
	}
	for n := 0; n < workers; n++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				cell := cells[i]
				results[i].Result, results[i].Err = p.Run(ctx, cell.Workload, cell.Model, cell.Opts...)
			}
		}()
	}
feed:
	for i := range cells {
		select {
		case idx <- i:
		case <-ctx.Done():
			break feed
		}
	}
	close(idx)
	wg.Wait()
	if err := ctx.Err(); err != nil {
		for i := range results {
			if results[i].Result == nil && results[i].Err == nil {
				results[i].Err = err
			}
		}
		return results, fmt.Errorf("boosting: grid aborted: %w", err)
	}
	return results, nil
}

// verifyRun compares a simulated run's observable output and final
// memory against the reference interpreter's.
func verifyRun(ref *sim.Result, out []uint32, memHash uint64) error {
	if len(out) != len(ref.Out) {
		return fmt.Errorf("verification failed: %d outputs, want %d", len(out), len(ref.Out))
	}
	for i := range out {
		if out[i] != ref.Out[i] {
			return fmt.Errorf("verification failed: out[%d] = %d, want %d", i, out[i], ref.Out[i])
		}
	}
	if memHash != ref.MemHash {
		return fmt.Errorf("verification failed: final memory differs")
	}
	return nil
}
