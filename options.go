package boosting

import (
	"runtime"

	"boosting/internal/core"
	"boosting/internal/memhier"
)

// Option is a functional option for the Pipeline. Options passed to
// NewPipeline become the pipeline's defaults; options passed to an
// individual Compile/Simulate/Run call are layered on top of those
// defaults for that call only. New ablation knobs can be added as new
// Option constructors without ever breaking existing callers.
type Option func(*config)

// config is the resolved option set.
type config struct {
	core        core.Options
	infiniteReg bool
	parallelism int
	verifyEach  bool
	artifacts   ArtifactCache
	mem         *memhier.Config
}

// apply layers opts on top of a copy of the receiver.
func (c config) apply(opts []Option) config {
	for _, o := range opts {
		o(&c)
	}
	return c
}

func (c config) workers() int {
	if c.parallelism > 0 {
		return c.parallelism
	}
	return runtime.GOMAXPROCS(0)
}

// WithLocalOnly restricts scheduling to basic blocks (no global code
// motion) — the paper's "basic block scheduling" bars and the scalar
// baseline.
func WithLocalOnly() Option {
	return func(c *config) { c.core.LocalOnly = true }
}

// WithInfiniteRegisters skips register allocation and schedules the
// virtual-register program directly (the paper's upper bars).
func WithInfiniteRegisters() Option {
	return func(c *config) { c.infiniteReg = true }
}

// WithoutEquivalence disables the control/data-equivalence shortcut,
// forcing duplication-based bookkeeping everywhere (scheduler ablation).
func WithoutEquivalence() Option {
	return func(c *config) { c.core.DisableEquivalence = true }
}

// WithoutDisambiguation builds maximally conservative memory dependences
// (scheduler ablation).
func WithoutDisambiguation() Option {
	return func(c *config) { c.core.NoDisambiguation = true }
}

// WithMaxTraceBlocks bounds trace length during trace selection
// (0 = the scheduler's default of 32).
func WithMaxTraceBlocks(n int) Option {
	return func(c *config) { c.core.MaxTraceBlocks = n }
}

// WithParallelism bounds the number of concurrently simulated cells in
// Pipeline.Grid (<= 0 means GOMAXPROCS).
func WithParallelism(n int) Option {
	return func(c *config) { c.parallelism = n }
}

// WithArtifactCache installs a persistent artifact cache. Compile
// consults it before building (a hit skips compilation entirely) and the
// pipeline writes freshly compiled programs, new schedules and the
// scalar baseline through it. The canonical implementation is
// internal/artifact.Cache: a content-addressed disk store, optionally
// backed by boostd peer fetch.
func WithArtifactCache(ac ArtifactCache) Option {
	return func(c *config) { c.artifacts = ac }
}

// WithMemHier simulates runs against a finite memory hierarchy
// (internal/memhier: L1/L2 caches, MSHRs, a write buffer and optional
// prefetching). The hierarchy perturbs timing only — Cycles, stall
// counts and Result.Mem statistics change, while architectural results
// (register state, store stream, observable output) stay byte-identical
// to the perfect-memory run. The scalar baseline used for Speedup is
// re-measured under the same hierarchy so the ratio compares
// like-for-like. Use DefaultMemConfig for the stock configuration.
func WithMemHier(cfg MemConfig) Option {
	return func(c *config) { c.mem = &cfg }
}

// WithPerfectMemory removes any configured memory hierarchy (every
// access is single-cycle) — the paper's idealized memory model and the
// pipeline default. It exists to override a pipeline-level WithMemHier
// for an individual call.
func WithPerfectMemory() Option {
	return func(c *config) { c.mem = nil }
}

// WithoutBoostedLoads forbids the scheduler from boosting loads above
// branches (stores and ALU ops still boost). Under a finite memory
// hierarchy a speculative load can stall the machine on a cache miss
// whose work is later squashed; this knob isolates that cost in the
// memory-hierarchy ablation.
func WithoutBoostedLoads() Option {
	return func(c *config) { c.core.NoBoostedLoads = true }
}

// WithVerifyEach runs the prog verifier between compile passes,
// attributing any broken CFG invariant to the pass that introduced it
// (debugging aid; boostcc -verify-each).
func WithVerifyEach() Option {
	return func(c *config) { c.verifyEach = true }
}

// MemConfig configures the simulated memory hierarchy (WithMemHier):
// per-level cache geometry and replacement policy, L2 and memory
// latencies, MSHR and write-buffer depth, and the prefetcher. It is an
// alias of the internal memhier schema, following the precedent of
// machine.Model being exposed directly.
type MemConfig = memhier.Config

// MemCacheConfig is the geometry of one cache level of a MemConfig.
type MemCacheConfig = memhier.CacheConfig

// MemStats reports one run's memory-hierarchy activity (hits, misses,
// MSHR merges and stalls, prefetch counters); see Result.Mem.
type MemStats = memhier.Stats

// DefaultMemConfig returns the stock hierarchy: 8 KiB direct-mapped L1
// (16-byte lines), 32 KiB 4-way L2 (32-byte lines), 6-cycle L2 and
// 24-cycle memory latency, 4 MSHRs, a 4-entry write buffer, and no
// prefetching.
func DefaultMemConfig() MemConfig { return memhier.Default() }

// SingleLevelMemConfig returns a hierarchy with one blocking
// direct-mapped-or-associative cache in front of memory (no L2, no
// MSHRs, no write buffer): every miss stalls for missPenalty cycles.
// This reproduces the simple data-cache model earlier versions exposed.
func SingleLevelMemConfig(sets, ways, lineBytes int, missPenalty int64) MemConfig {
	return memhier.SingleLevel(sets, ways, lineBytes, missPenalty)
}

// Ablation is one named scheduler-ablation bundle: a baseline or a
// configuration with one optimization disabled (or one resource
// stressed). The differential-testing oracle and the experiment grids
// iterate this list so that every ablation the scheduler supports is
// exercised by both.
type Ablation struct {
	// Name is a stable identifier ("baseline", "no-equiv", ...).
	Name string
	// Opts configures a Pipeline call for this ablation.
	Opts []Option
}

// Ablations enumerates the supported scheduler ablations, baseline
// first. The list is the public face of the core scheduler's option
// set: adding a scheduler knob means adding a constructor above and an
// entry here, and every ablation-sweeping consumer picks it up.
func Ablations() []Ablation {
	return []Ablation{
		{Name: "baseline"},
		{Name: "no-equiv", Opts: []Option{WithoutEquivalence()}},
		{Name: "no-disamb", Opts: []Option{WithoutDisambiguation()}},
		{Name: "short-traces", Opts: []Option{WithMaxTraceBlocks(2)}},
		{Name: "local-only", Opts: []Option{WithLocalOnly()}},
	}
}
