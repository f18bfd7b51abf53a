package service

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"strings"

	"boosting"
	"boosting/internal/memhier"
)

// SchemaVersion is the wire-schema version stamped on every /v1/* JSON
// response (success and error alike). It is bumped when a field changes
// meaning or disappears; purely additive fields do not bump it. See
// docs/SERVICE.md for the compatibility policy.
//
// Version 2: a mem block on /v1/simulate and /v1/grid plugs a finite
// memory hierarchy into the timing model. When it is present, cycles,
// scalar_cycles and speedup are measured under that hierarchy (the
// scalar baseline suffers it too), which changes the meaning of those
// fields relative to version 1's perfect-memory numbers.
//
// Version 3: the simulator-engine selector is gone. Requests may no
// longer send options.engine (it is rejected like any unknown field) and
// /v1/simulate responses no longer carry engine.
const SchemaVersion = 3

// OptionsRequest is the wire form of the pipeline's functional options.
// Field names mirror the Option constructors in the boosting package.
type OptionsRequest struct {
	LocalOnly         bool `json:"local_only,omitempty"`
	InfiniteRegisters bool `json:"infinite_registers,omitempty"`
	NoEquivalence     bool `json:"no_equivalence,omitempty"`
	NoDisambiguation  bool `json:"no_disambiguation,omitempty"`
	// NoBoostedLoads forbids the scheduler from boosting loads above
	// branches (the memory-hierarchy ablation knob).
	NoBoostedLoads bool `json:"no_boosted_loads,omitempty"`
	MaxTraceBlocks int  `json:"max_trace_blocks,omitempty"`
}

func (o OptionsRequest) opts() []boosting.Option {
	var opts []boosting.Option
	if o.LocalOnly {
		opts = append(opts, boosting.WithLocalOnly())
	}
	if o.InfiniteRegisters {
		opts = append(opts, boosting.WithInfiniteRegisters())
	}
	if o.NoEquivalence {
		opts = append(opts, boosting.WithoutEquivalence())
	}
	if o.NoDisambiguation {
		opts = append(opts, boosting.WithoutDisambiguation())
	}
	if o.NoBoostedLoads {
		opts = append(opts, boosting.WithoutBoostedLoads())
	}
	if o.MaxTraceBlocks > 0 {
		opts = append(opts, boosting.WithMaxTraceBlocks(o.MaxTraceBlocks))
	}
	return opts
}

// key spells out every field so the response cache never conflates two
// distinct configurations.
func (o OptionsRequest) key() string {
	return fmt.Sprintf("local=%v;inf=%v;noeq=%v;nodis=%v;nobl=%v;trace=%d",
		o.LocalOnly, o.InfiniteRegisters, o.NoEquivalence, o.NoDisambiguation,
		o.NoBoostedLoads, o.MaxTraceBlocks)
}

func (o OptionsRequest) validate() error {
	if o.MaxTraceBlocks < 0 {
		return fmt.Errorf("max_trace_blocks must be >= 0, got %d", o.MaxTraceBlocks)
	}
	return nil
}

// MemRequest is the wire form of a memory-hierarchy configuration
// (boosting.MemConfig). An absent mem block means the paper's perfect
// memory. When present, fields left at zero take the stock defaults of
// boosting.DefaultMemConfig (8 KiB direct-mapped L1, 32 KiB 4-way L2,
// 6/24-cycle latencies, 4 MSHRs, 4-entry write buffer, no prefetch);
// structure sizes that are meaningfully zero use -1 as the "disabled"
// sentinel (l2_sets: -1 removes the L2, write_buffer: -1 makes store
// misses block like loads).
type MemRequest struct {
	L1Sets         int    `json:"l1_sets,omitempty"`
	L1Ways         int    `json:"l1_ways,omitempty"`
	L1LineBytes    int    `json:"l1_line_bytes,omitempty"`
	L1Policy       string `json:"l1_policy,omitempty"` // lru (default), fifo, random
	L2Sets         int    `json:"l2_sets,omitempty"`   // -1 disables the L2
	L2Ways         int    `json:"l2_ways,omitempty"`
	L2LineBytes    int    `json:"l2_line_bytes,omitempty"`
	L2Policy       string `json:"l2_policy,omitempty"`
	L2Latency      int64  `json:"l2_latency,omitempty"`
	MemLatency     int64  `json:"mem_latency,omitempty"`
	MSHRs          int    `json:"mshrs,omitempty"`
	WriteBuffer    int    `json:"write_buffer,omitempty"` // -1 disables it
	Prefetch       string `json:"prefetch,omitempty"`     // none (default), stride, stream
	PrefetchDegree int    `json:"prefetch_degree,omitempty"`
}

// config resolves the wire block to a validated-shape MemConfig: stock
// defaults overlaid with every explicitly set field.
func (m *MemRequest) config() memhier.Config {
	cfg := memhier.Default()
	set := func(dst *int, v int) {
		if v != 0 {
			*dst = v
		}
	}
	set(&cfg.L1.Sets, m.L1Sets)
	set(&cfg.L1.Ways, m.L1Ways)
	set(&cfg.L1.LineBytes, m.L1LineBytes)
	if m.L1Policy != "" {
		cfg.L1.Policy = memhier.Policy(m.L1Policy)
	}
	if m.L2Sets < 0 {
		cfg.L2 = memhier.CacheConfig{}
	} else {
		set(&cfg.L2.Sets, m.L2Sets)
		set(&cfg.L2.Ways, m.L2Ways)
		set(&cfg.L2.LineBytes, m.L2LineBytes)
		if m.L2Policy != "" {
			cfg.L2.Policy = memhier.Policy(m.L2Policy)
		}
	}
	if m.L2Latency != 0 {
		cfg.L2Latency = m.L2Latency
	}
	if m.MemLatency != 0 {
		cfg.MemLatency = m.MemLatency
	}
	set(&cfg.MSHRs, m.MSHRs)
	if m.WriteBuffer < 0 {
		cfg.WriteBuffer = 0
	} else {
		set(&cfg.WriteBuffer, m.WriteBuffer)
	}
	if m.Prefetch != "" {
		cfg.Prefetch = m.Prefetch
	}
	set(&cfg.PrefetchDegree, m.PrefetchDegree)
	return cfg
}

func (m *MemRequest) validate() error {
	if m == nil {
		return nil
	}
	return m.config().Validate()
}

// key renders the resolved configuration canonically, so wire blocks
// that resolve to the same hierarchy share a cache entry.
func (m *MemRequest) key() string {
	if m == nil {
		return "mem=perfect"
	}
	return "mem=" + m.config().Key()
}

// MemStatsResponse reports one run's memory-hierarchy activity.
type MemStatsResponse struct {
	Accesses   int64   `json:"accesses"`
	L1Misses   int64   `json:"l1_misses"`
	L1MissRate float64 `json:"l1_miss_rate"`
	L2MissRate float64 `json:"l2_miss_rate,omitempty"`
	// MSHRMerges counts misses that merged into an in-flight fill;
	// MSHRFullStalls and WriteBufferStalls count structural-hazard
	// cycles.
	MSHRMerges        int64 `json:"mshr_merges,omitempty"`
	MSHRFullStalls    int64 `json:"mshr_full_stalls,omitempty"`
	WriteBufferStalls int64 `json:"write_buffer_stalls,omitempty"`
	// MemStalls is the total stall cycles charged; BoostedMemStalls the
	// share from speculative accesses; SquashedMemStalls the share spent
	// on speculative misses whose work was later squashed.
	MemStalls         int64 `json:"mem_stalls"`
	BoostedMemStalls  int64 `json:"boosted_mem_stalls,omitempty"`
	SquashedMemStalls int64 `json:"squashed_mem_stalls,omitempty"`
	// Prefetcher counters (zero without a prefetcher).
	PrefIssued       int64   `json:"pref_issued,omitempty"`
	PrefUseful       int64   `json:"pref_useful,omitempty"`
	PrefLate         int64   `json:"pref_late,omitempty"`
	PrefetchAccuracy float64 `json:"prefetch_accuracy,omitempty"`
	PrefetchCoverage float64 `json:"prefetch_coverage,omitempty"`
}

// memStatsResponse flattens hierarchy counters and the simulator's
// speculative-stall attribution into the wire form.
func memStatsResponse(mem *memhier.Stats, memStalls, boosted, squashed int64) *MemStatsResponse {
	if mem == nil {
		return nil
	}
	return &MemStatsResponse{
		Accesses:          mem.Accesses,
		L1Misses:          mem.L1Misses,
		L1MissRate:        mem.L1MissRate(),
		L2MissRate:        mem.L2MissRate(),
		MSHRMerges:        mem.MSHRMerges,
		MSHRFullStalls:    mem.MSHRFullStalls,
		WriteBufferStalls: mem.WriteBufferStalls,
		MemStalls:         memStalls,
		BoostedMemStalls:  boosted,
		SquashedMemStalls: squashed,
		PrefIssued:        mem.PrefIssued,
		PrefUseful:        mem.PrefUseful,
		PrefLate:          mem.PrefLate,
		PrefetchAccuracy:  mem.PrefetchAccuracy(),
		PrefetchCoverage:  mem.PrefetchCoverage(),
	}
}

// CompileRequest asks /v1/compile to schedule an assembly program for a
// machine model and return the machine-schedule listing plus stats.
type CompileRequest struct {
	// Asm is the program in the textual assembly dialect of
	// internal/prog (the format cmd/boostcc consumes).
	Asm     string         `json:"asm"`
	Model   string         `json:"model"`
	Options OptionsRequest `json:"options"`
}

func (r CompileRequest) validate() error {
	if strings.TrimSpace(r.Asm) == "" {
		return fmt.Errorf("asm is required")
	}
	if r.Model == "" {
		return fmt.Errorf("model is required")
	}
	if _, err := boosting.ModelByName(r.Model); err != nil {
		return err
	}
	return r.Options.validate()
}

func (r CompileRequest) cacheKey() string {
	return requestKey("compile", "asm:"+hashText(r.Asm), "model="+strings.ToLower(r.Model), r.Options.key())
}

// CompileResponse reports the scheduled program.
type CompileResponse struct {
	// SchemaVersion is the wire-schema version: the SchemaVersion constant.
	SchemaVersion int    `json:"schema_version"`
	Model         string `json:"model"`
	// Listing is the formatted machine schedule (cycles × issue slots,
	// boosting labels, recovery sites) for every procedure.
	Listing string `json:"listing"`
	// Insts counts scheduled instruction slots (NOP padding excluded).
	Insts int `json:"insts"`
	// Procs is the number of scheduled procedures.
	Procs int `json:"procs"`
	// ObjectGrowth is scheduled size (with recovery code) over original.
	ObjectGrowth float64 `json:"object_growth"`
	// PassStats is the per-pass compile report: parse, regalloc,
	// reference-run and profile rows, then the scheduler's stage rows and
	// the "schedule" row with the full scheduler counter set. Timings are
	// measured on the compile that actually ran; a cached response repeats
	// the original measurement byte-for-byte.
	PassStats *boosting.CompileStats `json:"pass_stats,omitempty"`
}

// SimulateRequest asks /v1/simulate to compile and execute either a named
// benchmark workload or a raw assembly program. Exactly one of Workload
// and Asm must be set. Dynamic selects the dynamically-scheduled
// comparison machine (Model is then ignored); otherwise Model names one
// of the paper's statically-scheduled configurations.
type SimulateRequest struct {
	Workload string         `json:"workload,omitempty"`
	Asm      string         `json:"asm,omitempty"`
	Model    string         `json:"model,omitempty"`
	Dynamic  bool           `json:"dynamic,omitempty"`
	Renaming bool           `json:"renaming,omitempty"`
	Options  OptionsRequest `json:"options"`
	// Mem plugs a finite memory hierarchy into the timing model (absent
	// = perfect memory). Architectural results are unchanged; cycles,
	// the scalar baseline and speedup are measured under the hierarchy.
	Mem *MemRequest `json:"mem,omitempty"`
}

func (r SimulateRequest) validate() error {
	hasW, hasA := r.Workload != "", strings.TrimSpace(r.Asm) != ""
	switch {
	case hasW && hasA:
		return fmt.Errorf("workload and asm are mutually exclusive")
	case !hasW && !hasA:
		return fmt.Errorf("one of workload or asm is required")
	}
	if hasW && !knownWorkload(r.Workload) {
		return fmt.Errorf("unknown workload %q (want one of %s)", r.Workload, strings.Join(boosting.Workloads(), ", "))
	}
	if r.Dynamic {
		if r.Model != "" {
			return fmt.Errorf("model and dynamic are mutually exclusive")
		}
	} else {
		if r.Model == "" {
			return fmt.Errorf("model is required (or set dynamic)")
		}
		if _, err := boosting.ModelByName(r.Model); err != nil {
			return err
		}
		if r.Renaming {
			return fmt.Errorf("renaming applies to the dynamic machine only")
		}
	}
	if err := r.Mem.validate(); err != nil {
		return err
	}
	return r.Options.validate()
}

// programID identifies the simulated program for cache keying: the
// workload name, or a content hash of the assembly text.
func (r SimulateRequest) programID() string {
	if r.Workload != "" {
		return "workload:" + r.Workload
	}
	return "asm:" + hashText(r.Asm)
}

func (r SimulateRequest) cacheKey() string {
	return requestKey("simulate", r.programID(),
		fmt.Sprintf("model=%s;dynamic=%v;renaming=%v", strings.ToLower(r.Model), r.Dynamic, r.Renaming),
		r.Options.key(), r.Mem.key())
}

// SimulateResponse reports a verified run. All fields are deterministic
// functions of the request, so identical requests always serialize to
// byte-identical bodies.
type SimulateResponse struct {
	// SchemaVersion is the wire-schema version: the SchemaVersion constant.
	SchemaVersion int    `json:"schema_version"`
	Workload      string `json:"workload,omitempty"`
	Machine       string `json:"machine"`
	Cycles        int64  `json:"cycles"`
	// ScalarCycles is the single-issue R2000 baseline on the same
	// program and input; Speedup is ScalarCycles/Cycles.
	ScalarCycles int64   `json:"scalar_cycles"`
	Speedup      float64 `json:"speedup"`
	Insts        int64   `json:"insts"`
	IPC          float64 `json:"ipc"`
	// BoostedExec and Squashed count speculative activity (static
	// machines only).
	BoostedExec int64 `json:"boosted_exec"`
	Squashed    int64 `json:"squashed"`
	// Mispredicts counts BTB mispredictions (dynamic machine only).
	Mispredicts        int64   `json:"mispredicts,omitempty"`
	PredictionAccuracy float64 `json:"prediction_accuracy,omitempty"`
	ObjectGrowth       float64 `json:"object_growth,omitempty"`
	// Mem reports memory-hierarchy activity; present exactly when the
	// request carried a mem block.
	Mem *MemStatsResponse `json:"mem,omitempty"`
	// OutLen is the length of the observable output stream, which was
	// verified against the reference interpreter before this response
	// was produced.
	OutLen int `json:"out_len"`
}

// GridRequest asks /v1/grid for an ablation sweep: every requested
// workload × model × ablation cell, run in parallel. Empty lists default
// to the full set.
type GridRequest struct {
	Workloads []string `json:"workloads,omitempty"`
	Models    []string `json:"models,omitempty"`
	// Ablations filters boosting.Ablations() by name ("baseline",
	// "no-equiv", "no-disamb", "short-traces", "local-only").
	Ablations []string `json:"ablations,omitempty"`
	// Parallelism bounds the per-request worker pool; it is capped by
	// the server's configured grid parallelism.
	Parallelism int `json:"parallelism,omitempty"`
	// Mem plugs a finite memory hierarchy into every cell of the sweep
	// (absent = perfect memory). The scalar baselines behind each cell's
	// speedup are re-measured under the same hierarchy.
	Mem *MemRequest `json:"mem,omitempty"`
	// MemSweep fans every cell out over several memory hierarchies: the
	// cell's program is scheduled once and run under each hierarchy in
	// turn, one response row per (cell, hierarchy). Mutually exclusive
	// with Mem.
	MemSweep []*MemRequest `json:"mem_sweep,omitempty"`
}

func (r GridRequest) validate() error {
	for _, w := range r.Workloads {
		if !knownWorkload(w) {
			return fmt.Errorf("unknown workload %q", w)
		}
	}
	for _, m := range r.Models {
		if _, err := boosting.ModelByName(m); err != nil {
			return err
		}
	}
	for _, a := range r.Ablations {
		if !knownAblation(a) {
			return fmt.Errorf("unknown ablation %q (want one of %s)", a, strings.Join(ablationNames(), ", "))
		}
	}
	if r.Parallelism < 0 {
		return fmt.Errorf("parallelism must be >= 0, got %d", r.Parallelism)
	}
	if len(r.MemSweep) > 0 {
		if r.Mem != nil {
			return fmt.Errorf("mem and mem_sweep are mutually exclusive")
		}
		for i, m := range r.MemSweep {
			if m == nil {
				return fmt.Errorf("mem_sweep[%d] is null", i)
			}
			if err := m.validate(); err != nil {
				return fmt.Errorf("mem_sweep[%d]: %w", i, err)
			}
		}
	}
	return r.Mem.validate()
}

// cacheKey ignores Parallelism: results are deterministic at any worker
// count, so the same sweep at a different parallelism is the same sweep.
func (r GridRequest) cacheKey() string {
	sweep := make([]string, len(r.MemSweep))
	for i, m := range r.MemSweep {
		sweep[i] = m.key()
	}
	return requestKey("grid",
		"workloads="+strings.Join(r.Workloads, ","),
		"models="+strings.Join(lowerAll(r.Models), ","),
		"ablations="+strings.Join(r.Ablations, ","),
		r.Mem.key(),
		"sweep="+strings.Join(sweep, ";"))
}

// GridRow is one cell of the sweep. Exactly one of (Cycles, Speedup) and
// Error is meaningful.
type GridRow struct {
	Workload string `json:"workload"`
	Model    string `json:"model"`
	Ablation string `json:"ablation"`
	// Mem names the memory hierarchy of this row (canonical config
	// key); present exactly when the request carried a mem_sweep.
	Mem     string  `json:"mem,omitempty"`
	Cycles  int64   `json:"cycles,omitempty"`
	Speedup float64 `json:"speedup,omitempty"`
	Error   string  `json:"error,omitempty"`
}

// GridResponse lists every cell in deterministic (workload, model,
// ablation) order.
type GridResponse struct {
	// SchemaVersion is the wire-schema version: the SchemaVersion constant.
	SchemaVersion int       `json:"schema_version"`
	Cells         int       `json:"cells"`
	Rows          []GridRow `json:"rows"`
}

// errorResponse is the body of every non-2xx JSON response. Construction
// sites pass just the message; the schema_version field every /v1/*
// response carries is injected at marshal time.
type errorResponse struct {
	Error string `json:"error"`
}

// MarshalJSON stamps the wire-schema version onto every error body.
func (e errorResponse) MarshalJSON() ([]byte, error) {
	return json.Marshal(struct {
		SchemaVersion int    `json:"schema_version"`
		Error         string `json:"error"`
	}{SchemaVersion, e.Error})
}

func knownWorkload(name string) bool {
	for _, w := range boosting.Workloads() {
		if w == name {
			return true
		}
	}
	return false
}

func knownAblation(name string) bool {
	for _, ab := range boosting.Ablations() {
		if ab.Name == name {
			return true
		}
	}
	return false
}

func ablationNames() []string {
	var names []string
	for _, ab := range boosting.Ablations() {
		names = append(names, ab.Name)
	}
	return names
}

func lowerAll(ss []string) []string {
	out := make([]string, len(ss))
	for i, s := range ss {
		out[i] = strings.ToLower(s)
	}
	return out
}

func hashText(s string) string {
	sum := sha256.Sum256([]byte(s))
	return hex.EncodeToString(sum[:])
}

// requestKey builds the canonical cache key for a request: the endpoint
// plus every field that can change the response (callers pass them in a
// fixed order), hashed so keys stay bounded regardless of program size.
func requestKey(endpoint string, parts ...string) string {
	return endpoint + "|" + hashText(endpoint+"|"+strings.Join(parts, "|"))
}
