package boosting

import (
	"context"
	"fmt"
	"sort"

	"boosting/internal/artifact"
	"boosting/internal/machine"
	"boosting/internal/sim"
	"boosting/internal/workloads"
)

// Artifact is a serializable compiled workload: the compiled test
// program, its reference-run observables, the compile report, the scalar
// baseline, and any scheduled variants (one per machine model ×
// scheduler-option combination). Encode/Decode give it a versioned,
// checksummed binary form that survives processes and machines — a warm
// start decodes an artifact instead of compiling. An artifact shares
// storage with the Compiled it came from; treat its program as read-only.
//
// See docs/ARTIFACTS.md for the wire layout and compatibility policy.
type Artifact = artifact.Artifact

// DecodeArtifact deserializes an encoded artifact, rejecting corrupt
// input, other encoding versions, and artifacts built against a
// different instruction-set definition with typed errors — never a
// panic.
func DecodeArtifact(data []byte) (*Artifact, error) {
	return artifact.Decode(data)
}

// ArtifactCache is a pluggable artifact store the pipeline consults
// before compiling and writes through after. Get returns the artifact
// for a cache key plus the name of the tier that served it ("disk",
// "peer", ...), or (nil, "", nil) on a miss; a cache must treat its own
// failures as misses, because compiling is always a safe fallback.
// Implementations must be safe for concurrent use. The canonical
// implementation is internal/artifact.Cache (disk store + boostd peer
// fetch), installed with WithArtifactCache.
type ArtifactCache interface {
	Get(ctx context.Context, key string) (*Artifact, string, error)
	Put(ctx context.Context, key string, a *Artifact) error
}

// compileKey is the cache identity of a compiled artifact — the same
// (workload × register-allocation mode) key the compile memo's
// singleflight dedup uses, so memo entries, disk files and peer URLs all
// name the same thing.
func compileKey(workload string, alloc bool) string {
	return fmt.Sprintf("compile|%s|alloc=%v", workload, alloc)
}

// Artifact snapshots the compiled program, its reference run and every
// schedule recorded so far into a serializable artifact.
func (c *Compiled) Artifact() *Artifact {
	c.mu.Lock()
	defer c.mu.Unlock()
	a := &artifact.Artifact{
		Workload:          c.Workload,
		InfiniteRegisters: c.InfiniteRegisters,
		Program:           c.master,
		Ref: artifact.RefResult{
			Out:      c.ref.Out,
			Insts:    c.ref.Insts,
			Branches: c.ref.Branches,
			Taken:    c.ref.Taken,
			MemHash:  c.ref.MemHash,
		},
		Accuracy:     c.acc,
		ScalarCycles: c.scalarCyc,
		Stats:        c.stats,
	}
	for key, v := range c.variants {
		a.Variants = append(a.Variants, &artifact.Variant{Key: key, Sched: v.sp, Stats: v.stats})
	}
	sortVariants(a.Variants)
	return a
}

// CompileFromArtifact installs a decoded artifact as the pipeline's
// compiled program for its workload, under the same memoization identity
// Compile uses. Subsequent Simulate calls reuse the artifact's recorded
// schedules where they match and schedule fresh variants otherwise. If
// the workload is already compiled (or installed) in this pipeline, the
// existing entry wins and is returned.
func (p *Pipeline) CompileFromArtifact(ctx context.Context, a *Artifact) (*Compiled, error) {
	if a == nil || a.Program == nil {
		return nil, fmt.Errorf("boosting: nil artifact")
	}
	key := compileKey(a.Workload, !a.InfiniteRegisters)
	return p.compiles.Do(ctx, key, func() (*Compiled, error) {
		return compiledFromArtifact(a, "artifact"), nil
	})
}

// compiledFromArtifact adapts a decoded artifact into the pipeline's
// in-memory compiled form, with source recording which tier it came
// from.
func compiledFromArtifact(a *artifact.Artifact, source string) *Compiled {
	w, _ := workloads.ByName(a.Workload)
	c := &Compiled{
		Workload:          a.Workload,
		InfiniteRegisters: a.InfiniteRegisters,
		w:                 w,
		artKey:            compileKey(a.Workload, !a.InfiniteRegisters),
		master:            a.Program,
		ref: &sim.Result{
			Out:      a.Ref.Out,
			Insts:    a.Ref.Insts,
			Branches: a.Ref.Branches,
			Taken:    a.Ref.Taken,
			MemHash:  a.Ref.MemHash,
		},
		acc:       a.Accuracy,
		stats:     a.Stats,
		source:    source,
		scalars:   newBaselines(),
		scalarCyc: a.ScalarCycles,
	}
	for _, v := range a.Variants {
		c.addVariant(v.Key, v.Sched, v.Stats)
	}
	return c
}

// schedVariant is one recorded schedule of a compiled program.
type schedVariant struct {
	sp    *machine.SchedProgram
	stats *CompileStats
}

// Source reports where the compiled program came from: "compile" for a
// local build, "disk" or "peer" for an artifact-cache hit, "artifact"
// for CompileFromArtifact.
func (c *Compiled) Source() string {
	if c.source == "" {
		return "compile"
	}
	return c.source
}

// variant returns the recorded schedule for a variant key, if any.
func (c *Compiled) variant(key string) (*machine.SchedProgram, *CompileStats) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if v, ok := c.variants[key]; ok {
		return v.sp, v.stats
	}
	return nil, nil
}

// addVariant records a schedule under its variant key.
func (c *Compiled) addVariant(key string, sp *machine.SchedProgram, stats *CompileStats) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.variants == nil {
		c.variants = map[string]*schedVariant{}
	}
	c.variants[key] = &schedVariant{sp: sp, stats: stats}
}

// scalarHint returns the memoized scalar baseline carried by the
// compiled program (0 = unknown).
func (c *Compiled) scalarHint() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.scalarCyc
}

// setScalarCycles records the scalar baseline, reporting whether the
// value changed (and the artifact is worth re-saving).
func (c *Compiled) setScalarCycles(v int64) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.scalarCyc == v {
		return false
	}
	c.scalarCyc = v
	return true
}

// saveArtifact writes the compiled program's current state through the
// configured artifact cache, unless the cache must not hold it. Failures
// are deliberately dropped: the cache is an accelerator, never a
// correctness dependency.
func (p *Pipeline) saveArtifact(ctx context.Context, cfg config, c *Compiled) {
	if cfg.artifacts == nil || c.artKey == "" {
		return
	}
	_ = cfg.artifacts.Put(ctx, c.artKey, c.Artifact())
}

func sortVariants(vs []*artifact.Variant) {
	sort.Slice(vs, func(i, j int) bool { return vs[i].Key < vs[j].Key })
}
