package boosting

import (
	"context"
	"errors"
	"fmt"
	"slices"
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

// Pipeline is the reproduction's one compile→simulate→verify path. It
// separates the expensive phases —
//
//	Compile   a workload: build train/test pair → register-allocate →
//	          profile → transfer predictions → reference run (one
//	          artifact per workload × register-allocation mode);
//	          CompileAsm does the same for an assembly program, with a
//	          bounded reference run and a self-trained profile
//	Schedule  schedule a private clone for a machine model, recorded on
//	          the compiled program
//	Simulate  execute → verify against the reference run → normalize by
//	          the R2000 baseline (ScalarCycles)
//
// — and memoizes compiled workloads with singleflight deduplication, and
// on each compiled program the verified runs of its schedules (the R2000
// baseline among them), so one Pipeline can drive many Simulate calls (or
// a whole Grid) concurrently without ever rebuilding shared work. The
// experiment harness (internal/experiments), boostd and boostcc all
// build, baseline and verify through it. All methods are safe for
// concurrent use.
type Pipeline struct {
	base     config
	compiles *cache.Memo[*Compiled]

	// The counters behind Counts.
	builds, schedules, sims, simCycles, boosted, squashed atomic.Int64
	// baseHits and baseMisses count scalar-baseline lookups, which are
	// memoized on each compiled program rather than in one table.
	baseHits, baseMisses atomic.Int64
}

// NewPipeline returns an empty pipeline. opts become the defaults for
// every stage call; per-call options are layered on top.
func NewPipeline(opts ...Option) *Pipeline {
	return &Pipeline{
		base:     config{}.apply(opts),
		compiles: cache.NewMemo[*Compiled](),
	}
}

// Compiled is an immutable compiled program — a workload's test program
// with predictions transferred from its training profile, or a
// self-profiled assembly program — together with its reference-
// interpreter run. It is shared between Simulate calls; Program returns a
// private clone for callers that want to mutate or schedule it
// themselves.
type Compiled struct {
	// Workload is the workload name this artifact was built from ("" for
	// an assembly program).
	Workload string
	// InfiniteRegisters records whether register allocation was skipped.
	InfiniteRegisters bool

	// w is the workload the program was built from; nil for assembly
	// programs and for installed artifacts of workloads this build does
	// not know.
	w *workloads.Workload
	// asm marks a CompileAsm program: it is its own scalar baseline.
	asm bool
	// artKey is the artifact-cache key; empty when the cache must not
	// hold the program (assembly, workloads with custom inputs).
	artKey string
	// maxCycles caps every execution of the program (0 = the
	// simulator's default).
	maxCycles int64

	master *prog.Program
	ref    *sim.Result
	acc    float64
	stats  *CompileStats

	// source records where the program came from ("compile", "disk",
	// "peer", "artifact"); see Source.
	source string

	// scalars memoizes the runs of the R2000 baseline schedule on this
	// program, by memory hierarchy.
	scalars *runs

	// mu guards the accumulating state below. Everything above is
	// immutable after construction.
	mu sync.Mutex
	// scalarCyc is the perfect-memory baseline carried to and from
	// artifacts (0 = not yet measured).
	scalarCyc int64
	// variants caches schedules by artifact.VariantKey so repeat
	// Simulate calls — and warm starts from a decoded artifact — skip
	// the scheduler.
	variants map[string]*schedVariant
	// ran lists, by model fingerprint and in the order they first ran,
	// the variants that own their runs; see runsOf.
	ran map[string][]*schedVariant
}

// Program returns a private, mutation-safe clone of the compiled test
// program.
func (c *Compiled) Program() *prog.Program { return prog.Clone(c.master) }

// PredictionAccuracy is the static predictor's accuracy on the test
// input.
func (c *Compiled) PredictionAccuracy() float64 { return c.acc }

// ReferenceInsts is the number of instructions the reference run
// executed: the useful work every machine model performs on the input.
func (c *Compiled) ReferenceInsts() int64 { return c.ref.Insts }

// CompileStats reports the per-pass timings of the artifact build
// (workload construction or parse, register allocation, profiling,
// reference run). A workload's artifact is memoized, so the report
// describes the build that actually ran, not the call that hit the cache.
func (c *Compiled) CompileStats() *CompileStats { return c.stats }

// ErrVerification marks a run whose observable output or final memory
// differs from the reference interpreter's: a fault of the compiler or
// the simulator, never of the program.
var ErrVerification = errors.New("verification failed")

// Verify checks a run's observable output and final-memory hash against
// the reference run. A mismatch wraps ErrVerification.
func (c *Compiled) Verify(out []uint32, memHash uint64) error {
	want := c.ref.Out
	if len(out) != len(want) {
		return fmt.Errorf("%w: %d outputs, want %d", ErrVerification, len(out), len(want))
	}
	for i := range out {
		if out[i] != want[i] {
			return fmt.Errorf("%w: out[%d] = %d, want %d", ErrVerification, i, out[i], want[i])
		}
	}
	if memHash != c.ref.MemHash {
		return fmt.Errorf("%w: final memory differs", ErrVerification)
	}
	return nil
}

// fail names the workload and machine a stage error came from. An
// assembly program has no name, so its errors keep only their stage
// prefix.
func (c *Compiled) fail(on string, err error) error {
	if c.Workload == "" {
		return err
	}
	return fmt.Errorf("boosting: %s %s: %w", c.Workload, on, err)
}

// Compile is CompileWorkload for the named benchmark workload.
func (p *Pipeline) Compile(ctx context.Context, workload string, opts ...Option) (*Compiled, error) {
	w, err := workloads.ByName(workload)
	if err != nil {
		return nil, err
	}
	return p.CompileWorkload(ctx, w, opts...)
}

// CompileWorkload builds the workload's train/test pair, register-
// allocates it (unless WithInfiniteRegisters), transfers branch
// predictions from the training profile, and runs the reference
// interpreter on the result, which also measures the predictor. The
// artifact is memoized: concurrent and repeated calls for the same
// (workload, inputs, register mode) share one build. Only workloads with
// the registry's inputs read or write the artifact cache.
func (p *Pipeline) CompileWorkload(ctx context.Context, w *workloads.Workload, opts ...Option) (*Compiled, error) {
	cfg := p.base.apply(opts)
	key := compileKey(w.Name, !cfg.infiniteReg)
	artKey := key
	if reg, err := workloads.ByName(w.Name); err != nil || reg.Train != w.Train || reg.Test != w.Test {
		key += fmt.Sprintf("|train=%d:%d|test=%d:%d", w.Train.Seed, w.Train.Size, w.Test.Seed, w.Test.Size)
		artKey = ""
	}
	return p.compiles.Do(ctx, key, func() (*Compiled, error) {
		if cfg.artifacts != nil && artKey != "" {
			a, source, err := cfg.artifacts.Get(ctx, artKey)
			if err == nil && a != nil && a.Workload == w.Name &&
				a.InfiniteRegisters == cfg.infiniteReg {
				return compiledFromArtifact(a, source), nil
			}
		}
		pm := passes.NewManager()
		pm.VerifyEach = cfg.verifyEach
		var train, test *prog.Program
		err := pm.Run("build", func() error {
			train, test = w.BuildTrain(), w.BuildTest()
			return nil
		})
		if err == nil && !cfg.infiniteReg {
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
		var (
			ref  *sim.Result
			hits profile.Hits
		)
		if err == nil {
			err = pm.Run("reference-run", func() error {
				var rerr error
				ref, rerr = sim.Run(test, sim.RefConfig{OnBranch: hits.OnBranch})
				return rerr
			})
		}
		if err != nil {
			return nil, fmt.Errorf("boosting: %s: %w", w.Name, err)
		}
		p.builds.Add(1)
		c := &Compiled{
			Workload:          w.Name,
			InfiniteRegisters: cfg.infiniteReg,
			w:                 w,
			artKey:            artKey,
			master:            test,
			ref:               ref,
			acc:               hits.Accuracy(ref.Branches),
			stats:             pm.Stats(),
			source:            "compile",
			scalars:           newRuns(),
		}
		p.saveArtifact(ctx, cfg, c)
		return c, nil
	})
}

// ParseError reports an assembly program CompileAsm could not parse: a
// fault of the request, where every later stage error is a property of
// the program it describes.
type ParseError struct{ Err error }

func (e *ParseError) Error() string { return "parse: " + e.Err.Error() }

func (e *ParseError) Unwrap() error { return e.Err }

// CompileAsm compiles an assembly program (the textual dialect of
// internal/prog): parse, register-allocate (unless
// WithInfiniteRegisters), a reference run bounded by maxSteps (0 = the
// interpreter's default) that proves the program halts, and a profile
// trained on the same input it predicts — callers benchmarking the
// predictor should use workloads, which keep the paper's train/test
// split. Every later run of the program is capped at 8×maxSteps cycles.
// A parse failure is a *ParseError; other stage errors carry their
// stage's prefix. The result is not memoized, and the artifact cache
// never holds it.
func (p *Pipeline) CompileAsm(ctx context.Context, asm string, maxSteps int64, opts ...Option) (*Compiled, error) {
	cfg := p.base.apply(opts)
	pm := passes.NewManager()
	pm.VerifyEach = cfg.verifyEach
	// stage runs fn as a named pass, keeping the stage's own prefix on
	// its error rather than the manager's wrapping.
	stage := func(name, label string, fn func() error, progs ...*prog.Program) error {
		var ferr error
		err := pm.Run(name, func() error { ferr = fn(); return ferr }, progs...)
		if ferr != nil {
			return fmt.Errorf("%s: %w", label, ferr)
		}
		return err
	}
	var (
		pr   *prog.Program
		perr error
	)
	if pm.Run("parse", func() error {
		pr, perr = prog.Parse(asm)
		return perr
	}) != nil {
		return nil, &ParseError{Err: perr}
	}
	if !cfg.infiniteReg {
		if err := stage("regalloc", "regalloc", func() error {
			_, err := regalloc.Allocate(pr)
			return err
		}, pr); err != nil {
			return nil, err
		}
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	var ref *sim.Result
	if err := stage("reference-run", "reference run", func() (err error) {
		ref, err = sim.Run(pr, sim.RefConfig{MaxSteps: maxSteps})
		return err
	}); err != nil {
		return nil, err
	}
	if err := stage("profile", "profile", func() error { return profile.Annotate(pr) }, pr); err != nil {
		return nil, err
	}
	p.builds.Add(1)
	return &Compiled{
		InfiniteRegisters: cfg.infiniteReg,
		asm:               true,
		maxCycles:         8 * maxSteps,
		master:            pr,
		ref:               ref,
		acc:               profile.SelfAccuracy(pr),
		stats:             pm.Stats(),
		source:            "compile",
		scalars:           newRuns(),
	}, nil
}

// Schedule returns c's schedule for the model under the call's scheduler
// options, with the scheduler's per-pass report: the recorded variant
// when c carries one (a repeat call, or a warm start from a decoded
// artifact), otherwise a fresh schedule of a private clone, which is then
// recorded on c. Simulate writes recorded schedules through the artifact
// cache; Schedule writes nothing.
func (p *Pipeline) Schedule(ctx context.Context, c *Compiled, model *machine.Model, opts ...Option) (*machine.SchedProgram, *CompileStats, error) {
	if err := ctx.Err(); err != nil {
		return nil, nil, err
	}
	v, _, err := p.schedule(c, model, p.base.apply(opts))
	if err != nil {
		return nil, nil, err
	}
	return v.sp, v.compileStats(), nil
}

// schedule is Schedule under resolved options, returning the recorded
// variant; its second result reports whether the scheduler ran.
func (p *Pipeline) schedule(c *Compiled, model *machine.Model, cfg config) (*schedVariant, bool, error) {
	key := artifact.VariantKey(model, cfg.core)
	if v := c.variant(key); v != nil {
		return v, false, nil
	}
	pm := passes.NewManager()
	pm.VerifyEach = cfg.verifyEach
	sp, err := pm.Schedule(c.Program(), model, cfg.core)
	if err != nil {
		return nil, false, fmt.Errorf("schedule: %w", err)
	}
	p.schedules.Add(1)
	return c.addVariant(key, sp, pm.Stats()), true, nil
}

// Simulate schedules the compiled program for the model (see Schedule),
// executes it on the machine simulator, verifies output and final memory
// against the reference interpreter, and reports cycles and speedup over
// the scalar R2000 baseline.
func (p *Pipeline) Simulate(ctx context.Context, c *Compiled, model *machine.Model, opts ...Option) (*Result, error) {
	results, errs := p.simulate(ctx, c, model, []config{p.base.apply(opts)})
	return results[0], errs[0]
}

// simulate runs c on the model under every config. The configs must
// share one schedule variant (they may differ in memory hierarchy). The
// variant's runs come from c's run table, which keeps one verified run
// per (schedule, hierarchy) and shares it between schedules with equal
// digests (runsOf): the hierarchies the table is missing are executed
// together, once, with a timing lane each (sim's ExecBatch), and the
// baselines of the runs that verified are asked for in one call.
// results[i]/errs[i] are what Simulate under cfgs[i] reports.
func (p *Pipeline) simulate(ctx context.Context, c *Compiled, model *machine.Model, cfgs []config) (results []*Result, errs []error) {
	results, errs = make([]*Result, len(cfgs)), make([]error, len(cfgs))
	failAll := func(err error) ([]*Result, []error) {
		for i := range errs {
			errs[i] = err
		}
		return results, errs
	}
	// Whichever wait a cancellation ends, it reads the same.
	canceled := func(err error) error {
		return fmt.Errorf("boosting: simulate %s on %s: %w", c.Workload, model, err)
	}
	if err := ctx.Err(); err != nil {
		return failAll(canceled(err))
	}
	on := "on " + model.Name
	v, save, err := p.schedule(c, model, cfgs[0])
	if err != nil {
		return failAll(c.fail(on, err))
	}
	mems := make([]*memhier.Config, len(cfgs))
	for i, cfg := range cfgs {
		mems[i] = cfg.mem
	}
	keys := memKeys(mems)
	rs := c.runsOf(v, model)
	got, _, err := rs.fill(ctx, keys, func(slots []int) {
		pd, err := sim.Predecode(v.sp)
		if err != nil {
			for _, i := range slots {
				rs.put(keys[i], run{err: fmt.Errorf("simulation: %w", err)})
			}
			return
		}
		execCfgs := make([]sim.ExecConfig, len(slots))
		for k, i := range slots {
			execCfgs[k] = sim.ExecConfig{MaxCycles: c.maxCycles, Mem: mems[i]}
		}
		runs, runErrs := pd.ExecBatch(execCfgs)
		for k, i := range slots {
			if runErrs[k] != nil {
				runErrs[k] = fmt.Errorf("simulation: %w", runErrs[k])
			}
			rs.put(keys[i], p.verified(c, runs[k], runErrs[k]))
		}
	})
	if err != nil {
		return failAll(canceled(err))
	}
	var verified []int
	var verifiedMems []*memhier.Config
	for i, r := range got {
		if r.err != nil {
			errs[i] = c.fail(on, r.err)
			continue
		}
		verified = append(verified, i)
		verifiedMems = append(verifiedMems, mems[i])
	}
	scalars, scalarErrs := p.scalarCycles(ctx, c, verifiedMems, canceled)
	for k, i := range verified {
		res, scalar := got[i].res, scalars[k]
		if scalarErrs[k] != nil {
			errs[i] = scalarErrs[k]
			continue
		}
		// The scalar baseline is workload-global and computed under the
		// pipeline's base options; only record it on the artifact when the
		// base compile matches it (the standard, allocated, perfect-memory
		// configuration — a hierarchy-specific baseline must not poison the
		// artifact's hint).
		if mems[i] == nil && !p.base.infiniteReg && c.setScalarCycles(scalar) {
			save = true
		}
		// A run the table shares is the cell's own: it holds no pointer
		// into another cell's Result. Its output is the reference's,
		// which it verified against.
		var mem *MemStats
		if res.Mem != nil {
			m := *res.Mem
			mem = &m
		}
		results[i] = &Result{
			Compile:            v.compileStats(),
			Cycles:             res.Cycles,
			ScalarCycles:       scalar,
			Speedup:            float64(scalar) / float64(res.Cycles),
			Insts:              res.Insts,
			BoostedExec:        res.BoostedExec,
			Squashed:           res.Squashed,
			MemStalls:          res.MemStalls,
			BoostedMemStalls:   res.BoostedMemStalls,
			SquashedMemStalls:  res.SquashedMemStalls,
			Mem:                mem,
			PredictionAccuracy: c.acc,
			ObjectGrowth:       v.sp.ObjectGrowth(),
			Out:                slices.Clone(c.ref.Out),
		}
	}
	if save {
		p.saveArtifact(ctx, cfgs[0], c)
	}
	return results, errs
}

// SimulateDynamic runs the compiled program on the paper's
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
		return nil, c.fail("dynamic", fmt.Errorf("dynamic simulation: %w", err))
	}
	p.countRun(res.Cycles, 0, 0)
	if err := c.Verify(res.Out, res.MemHash); err != nil {
		return nil, c.fail("dynamic", err)
	}
	scalars, errs := p.scalarCycles(ctx, c, []*memhier.Config{pcfg.mem}, func(err error) error {
		return fmt.Errorf("boosting: simulate %s dynamic: %w", c.Workload, err)
	})
	if errs[0] != nil {
		return nil, errs[0]
	}
	scalar := scalars[0]
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

// ScalarCycles is the R2000 baseline that c's speedups are measured
// against: the compiled program scheduled for the scalar model with
// LocalOnly, executed under the call's memory hierarchy and verified.
// A workload's baseline runs on its compile made under the pipeline's
// base options, so register-allocated and infinite-register runs share
// one baseline; an assembly program's baseline runs on the program
// itself. The result is memoized on that compiled program per memory
// hierarchy. A perfect-memory baseline carried by a decoded artifact
// resolves without scheduling anything, as long as the pipeline's base
// compile is the standard allocated configuration it was measured under.
func (p *Pipeline) ScalarCycles(ctx context.Context, c *Compiled, opts ...Option) (int64, error) {
	cycles, errs := p.scalarCycles(ctx, c, []*memhier.Config{p.base.apply(opts).mem}, bare)
	return cycles[0], errs[0]
}

// ScalarCyclesUnder is ScalarCycles under each of the hierarchies mems,
// returned in their order. The baselines not yet memoized are measured
// together: one R2000 schedule and one predecode, executed once with a
// timing lane per hierarchy. It returns the first error in mems' order.
func (p *Pipeline) ScalarCyclesUnder(ctx context.Context, c *Compiled, mems ...MemConfig) ([]int64, error) {
	ptrs := make([]*memhier.Config, len(mems))
	for i := range mems {
		ptrs[i] = &mems[i]
	}
	cycles, errs := p.scalarCycles(ctx, c, ptrs, bare)
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return cycles, nil
}

// runs memoizes the executions of one schedule of a compiled program by
// memory-hierarchy key: the counters of each verified run, or the
// deterministic error that ended it, never a context error. A compiled
// program's run table is made of these: one per distinct schedule it
// has run, the R2000 baseline's included. mu guards m. lock is a one-slot
// semaphore held across a lookup that misses and the execution of what
// it missed, so two callers never both run one schedule under one
// hierarchy. Only its holder writes m; a lookup that misses nothing takes
// mu alone and never waits for an execution.
type runs struct {
	lock chan struct{}
	mu   sync.Mutex
	m    map[string]run
}

// run is one memoized execution. res keeps the counters of a verified
// run without its output, which equals the reference run's.
type run struct {
	res *sim.ExecResult
	err error
}

func newRuns() *runs {
	return &runs{lock: make(chan struct{}, 1), m: map[string]run{}}
}

// memKeys returns the run-table key of each hierarchy (nil = perfect
// memory).
func memKeys(mems []*memhier.Config) []string {
	keys := make([]string, len(mems))
	for i, mem := range mems {
		keys[i] = "perfect"
		if mem != nil {
			keys[i] = mem.Key()
		}
	}
	return keys
}

// get fills got with the memoized runs of keys, slot for slot, and
// reports whether every key was memoized.
func (rs *runs) get(keys []string, got []run) bool {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	for i, key := range keys {
		r, ok := rs.m[key]
		if !ok {
			return false
		}
		got[i] = r
	}
	return true
}

// put memoizes r under key. The caller holds lock.
func (rs *runs) put(key string, r run) {
	rs.mu.Lock()
	rs.m[key] = r
	rs.mu.Unlock()
}

// fill returns the memoized run of each key, slot for slot, and the keys
// this call filled. If any key is missing, fill waits for the lock,
// returning ctx's error if ctx ends first, and looks again under it:
// measure gets the first slot of each key still missing and must put a
// run under each.
func (rs *runs) fill(ctx context.Context, keys []string, measure func(slots []int)) ([]run, map[string]bool, error) {
	got := make([]run, len(keys))
	if rs.get(keys, got) {
		return got, nil, nil
	}
	select {
	case rs.lock <- struct{}{}:
	case <-ctx.Done():
		return nil, nil, ctx.Err()
	}
	defer func() { <-rs.lock }()
	// The holder reads m without mu, since no one else writes it.
	fresh := map[string]bool{}
	var missing []int
	for i, key := range keys {
		if _, ok := rs.m[key]; ok || fresh[key] {
			continue
		}
		fresh[key] = true
		missing = append(missing, i)
	}
	if len(missing) > 0 {
		measure(missing)
	}
	rs.get(keys, got)
	return got, fresh, nil
}

// verified is the run a table keeps of one execution: the error that
// ended it, or, once its output and final memory match c's reference
// run, its counters with the output dropped.
func (p *Pipeline) verified(c *Compiled, res *sim.ExecResult, err error) run {
	if err != nil {
		return run{err: err}
	}
	p.countRun(res.Cycles, res.BoostedExec, res.Squashed)
	if err := c.Verify(res.Out, res.MemHash); err != nil {
		return run{err: err}
	}
	res.Out = nil
	return run{res: res}
}

// bare leaves a context error as it is.
func bare(err error) error { return err }

// scalarCycles returns c's R2000 baseline under each hierarchy (nil =
// perfect memory), slot for slot. An end of ctx fails every slot with
// canceled of ctx's error.
func (p *Pipeline) scalarCycles(ctx context.Context, c *Compiled, mems []*memhier.Config, canceled func(error) error) ([]int64, []error) {
	cycles, errs := make([]int64, len(mems)), make([]error, len(mems))
	failAll := func(err error) ([]int64, []error) {
		for i := range errs {
			errs[i] = err
		}
		return cycles, errs
	}
	if len(mems) == 0 {
		return cycles, errs
	}
	bc := c
	if !c.asm && c.InfiniteRegisters != p.base.infiniteReg {
		if c.w == nil {
			return failAll(fmt.Errorf("boosting: %s: no workload to measure the scalar baseline on", c.Workload))
		}
		var err error
		if bc, err = p.CompileWorkload(ctx, c.w); err != nil {
			return failAll(err)
		}
	}
	if err := ctx.Err(); err != nil {
		return failAll(canceled(err))
	}
	keys := memKeys(mems)
	got, fresh, err := bc.scalars.fill(ctx, keys, func(slots []int) {
		var measure []int
		for _, i := range slots {
			if mems[i] == nil && !p.base.infiniteReg {
				if hint := max(c.scalarHint(), bc.scalarHint()); hint > 0 {
					bc.scalars.put(keys[i], run{res: &sim.ExecResult{Cycles: hint}})
					continue
				}
			}
			measure = append(measure, i)
		}
		if len(measure) > 0 {
			p.measureScalars(bc, mems, keys, measure)
		}
	})
	if err != nil {
		return failAll(canceled(err))
	}
	for i, key := range keys {
		r := got[i]
		if errs[i] = r.err; r.err == nil {
			cycles[i] = r.res.Cycles
		}
		switch {
		case fresh[key]:
			delete(fresh, key)
			p.baseMisses.Add(1)
		case r.err == nil:
			p.baseHits.Add(1)
		}
	}
	return cycles, errs
}

// measureScalars schedules bc for the R2000 once and runs it under the
// hierarchies of the given slots in one ExecBatch, memoizing each slot's
// verified baseline or error under its key. The caller holds the lock.
func (p *Pipeline) measureScalars(bc *Compiled, mems []*memhier.Config, keys []string, slots []int) {
	fail := func(err error) run { return run{err: bc.fail("on R2000", err)} }
	sp, err := core.Schedule(bc.Program(), machine.Scalar(), core.Options{LocalOnly: true})
	if err != nil {
		for _, i := range slots {
			bc.scalars.put(keys[i], fail(fmt.Errorf("scalar baseline schedule: %w", err)))
		}
		return
	}
	p.schedules.Add(1)
	cfgs := make([]sim.ExecConfig, len(slots))
	for k, i := range slots {
		cfgs[k] = sim.ExecConfig{MaxCycles: bc.maxCycles, Mem: mems[i]}
	}
	results, errs := sim.ExecBatch(sp, cfgs)
	for k, i := range slots {
		r := p.verified(bc, results[k], errs[k])
		if r.err != nil {
			r = fail(fmt.Errorf("scalar baseline: %w", r.err))
		}
		bc.scalars.put(keys[i], r)
	}
}

// Counts reports the work a Pipeline has done.
type Counts struct {
	// Builds counts compiles that ran (memo and artifact-cache hits
	// excluded).
	Builds int64
	// Schedules counts scheduler passes: variant misses plus
	// scalar-baseline schedules.
	Schedules int64
	// Simulations counts completed machine runs — Simulate and Grid
	// runs, scalar baselines and dynamic runs — and SimCycles,
	// BoostedExec and Squashed total their cycles and speculative
	// activity. They count executions, not results: cells whose
	// schedules are byte-identical share one run per hierarchy (see
	// Grid).
	Simulations int64
	SimCycles   int64
	BoostedExec int64
	Squashed    int64
}

// Counts returns the pipeline's counters so far.
func (p *Pipeline) Counts() Counts {
	return Counts{
		Builds:      p.builds.Load(),
		Schedules:   p.schedules.Load(),
		Simulations: p.sims.Load(),
		SimCycles:   p.simCycles.Load(),
		BoostedExec: p.boosted.Load(),
		Squashed:    p.squashed.Load(),
	}
}

// countRun records one completed machine run.
func (p *Pipeline) countRun(cycles, boosted, squashed int64) {
	p.sims.Add(1)
	p.simCycles.Add(cycles)
	p.boosted.Add(boosted)
	p.squashed.Add(squashed)
}

// SchedulePasses reports how many times this pipeline has invoked the
// scheduler (variant misses plus scalar-baseline builds). A fully warm
// artifact start keeps it at zero.
func (p *Pipeline) SchedulePasses() int64 { return p.schedules.Load() }

// CacheStats reports the pipeline's cache activity: lookups of compiled
// workloads and of scalar baselines served from a memo versus lookups
// that ran the underlying computation. Servers exporting pipeline
// metrics (cmd/boostd's /metrics) read their gauges from here.
func (p *Pipeline) CacheStats() (hits, misses int64) {
	ch, cm := p.compiles.Stats()
	return ch + p.baseHits.Load(), cm + p.baseMisses.Load()
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
// order regardless of completion order. opts apply to every cell, under
// the cell's own Opts, as Run layers them. Shared artifacts — compiled
// pairs, scalar baselines — are built exactly once across the whole
// grid. Cells that share a workload, register mode, model and scheduler
// options (a memory sweep, or a repeated cell) form one group, which one
// worker runs on one schedule. Groups whose schedules are byte-identical
// (an ablation that leaves the schedule as it was) execute it once per
// hierarchy between them, through the compiled program's run table;
// each cell still reports its own CompileStats. A failing cell records
// its error in its GridResult and does not stop the other cells;
// cancelling ctx stops the batch, every unfinished cell records the
// context error, and Grid returns that error wrapped alongside the
// partial results.
func (p *Pipeline) Grid(ctx context.Context, cells []GridCell, opts ...Option) ([]GridResult, error) {
	results := make([]GridResult, len(cells))
	gridCfg := p.base.apply(opts)
	cfgs := make([]config, len(cells))
	// Recorded schedules have no singleflight, so two workers given cells
	// of one variant would both schedule it; a group runs on one worker.
	var groups [][]int
	byKey := map[string]int{}
	for i, c := range cells {
		results[i].Cell = c
		cfgs[i] = gridCfg.apply(c.Opts)
		key := fmt.Sprintf("%s|%v|%s|%s", c.Workload, cfgs[i].infiniteReg, c.Model.Name,
			artifact.VariantKey(c.Model, cfgs[i].core))
		g, ok := byKey[key]
		if !ok {
			g = len(groups)
			byKey[key] = g
			groups = append(groups, nil)
		}
		groups[g] = append(groups[g], i)
	}
	// A cell's failure is its result, so only the end of ctx stops the
	// fan-out; ctx.Err() also catches an end that came after the last
	// group started.
	_ = cache.ForEach(ctx, len(groups), gridCfg.workers(), func(ctx context.Context, g int) error {
		group := groups[g]
		first := cells[group[0]]
		c, err := p.Compile(ctx, first.Workload, append(opts[:len(opts):len(opts)], first.Opts...)...)
		if err != nil {
			for _, i := range group {
				results[i].Err = err
			}
			return nil
		}
		groupCfgs := make([]config, len(group))
		for k, i := range group {
			groupCfgs[k] = cfgs[i]
		}
		res, errs := p.simulate(ctx, c, first.Model, groupCfgs)
		for k, i := range group {
			results[i].Result, results[i].Err = res[k], errs[k]
		}
		return nil
	})
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
