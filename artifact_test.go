package boosting_test

import (
	"bytes"
	"context"
	"fmt"
	"sort"
	"strings"
	"testing"

	"boosting"
	"boosting/internal/artifact"
	"boosting/internal/core"
	"boosting/internal/machine"
	"boosting/internal/prog"
	"boosting/internal/sim"
)

// matrixAblations are the scheduler-option cells of the round-trip
// matrix, mirroring boosting.Ablations().
func matrixAblations() []struct {
	name string
	opts core.Options
} {
	return []struct {
		name string
		opts core.Options
	}{
		{"baseline", core.Options{}},
		{"no-equiv", core.Options{DisableEquivalence: true}},
		{"no-disamb", core.Options{NoDisambiguation: true}},
		{"short-traces", core.Options{MaxTraceBlocks: 2}},
		{"local-only", core.Options{LocalOnly: true}},
	}
}

// formatSchedListing renders a scheduled program (including recovery
// sites) as the byte-comparable listing the matrix test diffs.
func formatSchedListing(sp *machine.SchedProgram) string {
	var b strings.Builder
	for _, name := range sp.Prog.Order {
		proc := sp.Procs[name]
		b.WriteString(proc.Format())
		ids := make([]int, 0, len(proc.Recovery))
		for id := range proc.Recovery {
			ids = append(ids, id)
		}
		sort.Ints(ids)
		for _, id := range ids {
			fmt.Fprintf(&b, ".recovery %d:\n", id)
			for _, inst := range proc.Recovery[id] {
				fmt.Fprintf(&b, "\t%s\n", inst.String())
			}
		}
	}
	return b.String()
}

// TestArtifactScheduleMatrix is the round-trip property test: for every
// workload, encoding the compiled program and decoding it back must give
// a program that schedules byte-identically to the original across every
// machine model × scheduler-ablation cell (7 × 6 × 5 = 210 cells in the
// full run).
func TestArtifactScheduleMatrix(t *testing.T) {
	ctx := context.Background()
	workloads := boosting.Workloads()
	if testing.Short() {
		workloads = workloads[:2]
	}
	models := goldenModels()
	ablations := matrixAblations()
	cells := 0
	for _, name := range workloads {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			c, err := boosting.NewPipeline().Compile(ctx, name)
			if err != nil {
				t.Fatalf("compile: %v", err)
			}
			data, err := c.Artifact().Encode()
			if err != nil {
				t.Fatalf("encode: %v", err)
			}
			a, err := boosting.DecodeArtifact(data)
			if err != nil {
				t.Fatalf("decode: %v", err)
			}
			if want, got := prog.FormatProgram(c.Program()), prog.FormatProgram(a.Program); want != got {
				t.Fatal("decoded program listing differs from the original")
			}
			for _, m := range models {
				for _, ab := range ablations {
					opts := ab.opts
					if m.model.IssueWidth == 1 {
						opts.LocalOnly = true
					}
					sp1, err := core.Schedule(prog.Clone(c.Program()), m.model, opts)
					if err != nil {
						t.Fatalf("%s/%s: schedule original: %v", m.name, ab.name, err)
					}
					sp2, err := core.Schedule(prog.Clone(a.Program), m.model, opts)
					if err != nil {
						t.Fatalf("%s/%s: schedule decoded: %v", m.name, ab.name, err)
					}
					if formatSchedListing(sp1) != formatSchedListing(sp2) {
						t.Errorf("%s/%s/%s: schedule from decoded artifact differs from original",
							name, m.name, ab.name)
					}
				}
			}
		})
		cells += len(models) * len(ablations)
	}
	t.Logf("matrix: %d workloads × %d models × %d ablations = %d cells",
		len(workloads), len(models), len(ablations), cells)
}

// artifactDigest schedules the program, round-trips the schedule through
// the artifact codec, and executes the decoded schedule — the exact code
// path of a warm start.
func artifactDigest(t *testing.T, master *prog.Program, model *machine.Model) goldenDigest {
	t.Helper()
	sp, err := core.Schedule(prog.Clone(master), model, core.Options{LocalOnly: model.IssueWidth == 1})
	if err != nil {
		t.Fatalf("%s: schedule: %v", model.Name, err)
	}
	data, err := artifact.EncodeSchedProgram(sp)
	if err != nil {
		t.Fatalf("%s: encode: %v", model.Name, err)
	}
	sp2, err := artifact.DecodeSchedProgram(data)
	if err != nil {
		t.Fatalf("%s: decode: %v", model.Name, err)
	}
	return schedDigest(t, model.Name, sp2, sim.Exec)
}

// TestGoldenViaArtifact asserts that executing a schedule decoded from
// its artifact encoding produces the same golden digest as executing the
// schedule that was encoded — every counter, output word and store event.
func TestGoldenViaArtifact(t *testing.T) {
	names := []string{"grep", "eqntott"}
	if testing.Short() {
		names = names[:1]
	}
	for _, name := range names {
		t.Run(name, func(t *testing.T) {
			master := compileGolden(t, name)
			for _, m := range goldenModels() {
				direct := execDigest(t, master, m.model, sim.Exec)
				via := artifactDigest(t, master, m.model)
				if direct != via {
					t.Errorf("%s on %s: decoded-artifact digest differs:\ndirect: %+v\nvia:    %+v",
						name, m.name, direct, via)
				}
			}
		})
	}
}

// TestCompileFromArtifact is the fresh-process warm start: a pipeline
// that has never compiled anything installs a decoded artifact and
// simulates with zero schedule passes, matching the original results.
func TestCompileFromArtifact(t *testing.T) {
	ctx := context.Background()
	model := machine.MinBoost3()

	p1 := boosting.NewPipeline()
	c1, err := p1.Compile(ctx, boosting.WorkloadGrep)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	r1, err := p1.Simulate(ctx, c1, model)
	if err != nil {
		t.Fatalf("simulate: %v", err)
	}
	data, err := c1.Artifact().Encode()
	if err != nil {
		t.Fatalf("encode: %v", err)
	}

	// A brand-new pipeline: nothing compiled, nothing cached.
	p2 := boosting.NewPipeline()
	a, err := boosting.DecodeArtifact(data)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	c2, err := p2.CompileFromArtifact(ctx, a)
	if err != nil {
		t.Fatalf("CompileFromArtifact: %v", err)
	}
	if c2.Source() != "artifact" {
		t.Errorf("Source = %q, want artifact", c2.Source())
	}
	r2, err := p2.Simulate(ctx, c2, model)
	if err != nil {
		t.Fatalf("simulate from artifact: %v", err)
	}
	if n := p2.SchedulePasses(); n != 0 {
		t.Errorf("warm pipeline ran %d schedule passes, want 0", n)
	}
	if r1.Cycles != r2.Cycles || r1.ScalarCycles != r2.ScalarCycles || r1.Insts != r2.Insts ||
		r1.BoostedExec != r2.BoostedExec || r1.Squashed != r2.Squashed {
		t.Errorf("results differ:\ncold: %+v\nwarm: %+v", r1, r2)
	}
	if !equalUint32s(r1.Out, r2.Out) {
		t.Error("output stream differs between cold and warm runs")
	}

	// Re-installing under the same identity returns the existing entry.
	c3, err := p2.CompileFromArtifact(ctx, a)
	if err != nil {
		t.Fatalf("second CompileFromArtifact: %v", err)
	}
	if c3 != c2 {
		t.Error("second CompileFromArtifact did not return the memoized entry")
	}
}

func equalUint32s(a, b []uint32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestPipelineDiskWarmStart drives the full disk path through the public
// option: pipeline 1 writes through an artifact cache, pipeline 2 (same
// directory, fresh process state) compiles nothing at all.
func TestPipelineDiskWarmStart(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	model := machine.MinBoost3()

	store1, err := artifact.OpenStore(dir, 0)
	if err != nil {
		t.Fatalf("open store: %v", err)
	}
	cache1 := artifact.NewCache(store1, nil)
	p1 := boosting.NewPipeline(boosting.WithArtifactCache(cache1))
	r1, err := p1.Run(ctx, boosting.WorkloadGrep, model)
	if err != nil {
		t.Fatalf("cold run: %v", err)
	}
	if _, err := cache1.Close(); err != nil {
		t.Fatalf("close cache: %v", err)
	}

	store2, err := artifact.OpenStore(dir, 0)
	if err != nil {
		t.Fatalf("reopen store: %v", err)
	}
	cache2 := artifact.NewCache(store2, nil)
	defer cache2.Close()
	p2 := boosting.NewPipeline(boosting.WithArtifactCache(cache2))
	c2, err := p2.Compile(ctx, boosting.WorkloadGrep)
	if err != nil {
		t.Fatalf("warm compile: %v", err)
	}
	if c2.Source() != "disk" {
		t.Errorf("warm compile source = %q, want disk", c2.Source())
	}
	r2, err := p2.Simulate(ctx, c2, model)
	if err != nil {
		t.Fatalf("warm simulate: %v", err)
	}
	if n := p2.SchedulePasses(); n != 0 {
		t.Errorf("warm pipeline ran %d schedule passes, want 0", n)
	}
	if r1.Cycles != r2.Cycles || r1.ScalarCycles != r2.ScalarCycles || !equalUint32s(r1.Out, r2.Out) {
		t.Errorf("disk-warm results differ: cold cycles=%d/%d, warm cycles=%d/%d",
			r1.Cycles, r1.ScalarCycles, r2.Cycles, r2.ScalarCycles)
	}
	if st := cache2.Stats(); st.DiskHits != 1 {
		t.Errorf("warm cache stats = %+v, want one disk hit", st)
	}
}

// TestDecodeArtifactAdversarial exercises the public decoder with hostile
// input: every prefix truncation and a sample of bit flips must fail with
// an error — never a panic, never a silently wrong artifact.
func TestDecodeArtifactAdversarial(t *testing.T) {
	ctx := context.Background()
	c, err := boosting.NewPipeline().Compile(ctx, boosting.WorkloadGrep)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	data, err := c.Artifact().Encode()
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	for i := 0; i < len(data); i += 127 {
		if _, err := boosting.DecodeArtifact(data[:i]); err == nil {
			t.Fatalf("truncation to %d bytes decoded successfully", i)
		}
	}
	for i := 0; i < len(data); i += 379 {
		mut := append([]byte(nil), data...)
		mut[i] ^= 0x10
		if _, err := boosting.DecodeArtifact(mut); err == nil {
			t.Fatalf("bit flip at byte %d decoded successfully", i)
		}
	}
	if _, err := boosting.DecodeArtifact(bytes.Repeat([]byte{0xFF}, 256)); err == nil {
		t.Fatal("garbage decoded successfully")
	}
	if _, err := boosting.DecodeArtifact(nil); err == nil {
		t.Fatal("nil input decoded successfully")
	}
}

// TestArtifactCacheIsAccelerator: a cache whose Get always errors must
// never break compilation — compiling is the fallback.
func TestArtifactCacheIsAccelerator(t *testing.T) {
	ctx := context.Background()
	p := boosting.NewPipeline(boosting.WithArtifactCache(failingCache{}))
	c, err := p.Compile(ctx, boosting.WorkloadGrep)
	if err != nil {
		t.Fatalf("compile with failing cache: %v", err)
	}
	if c.Source() != "compile" {
		t.Errorf("source = %q, want compile", c.Source())
	}
}

type failingCache struct{}

func (failingCache) Get(ctx context.Context, key string) (*boosting.Artifact, string, error) {
	return nil, "", fmt.Errorf("cache offline")
}

func (failingCache) Put(ctx context.Context, key string, a *boosting.Artifact) error {
	return fmt.Errorf("cache offline")
}

var _ boosting.ArtifactCache = failingCache{}
