package difftest

import (
	"fmt"

	"boosting/internal/artifact"
	"boosting/internal/core"
	"boosting/internal/dynsched"
	"boosting/internal/machine"
	"boosting/internal/memhier"
	"boosting/internal/profile"
	"boosting/internal/prog"
	"boosting/internal/regalloc"
	"boosting/internal/sim"
	"boosting/internal/testgen"
)

// Options parameterizes one oracle pass.
type Options struct {
	// Configs lists the configurations to check (nil = Configs(false)).
	Configs []Config
	// Inject deliberately breaks the boosting hardware of every static
	// configuration; used by the oracle's self-tests to prove divergences
	// are caught. The zero value injects nothing.
	Inject sim.FaultInjection
	// MaxSteps bounds the reference run (0 = 10M instructions — generated
	// programs finish in thousands).
	MaxSteps int64
	// SkipDynamic drops the dynamic-scheduler configurations; the
	// shrinker uses it when minimizing a static-machine failure.
	SkipDynamic bool
}

func (o Options) configs() []Config {
	cfgs := o.Configs
	if cfgs == nil {
		cfgs = Configs(false)
	}
	if !o.SkipDynamic {
		return cfgs
	}
	var out []Config
	for _, c := range cfgs {
		if !c.Dynamic {
			out = append(out, c)
		}
	}
	return out
}

func (o Options) maxSteps() int64 {
	if o.MaxSteps > 0 {
		return o.MaxSteps
	}
	return 10_000_000
}

// Divergence describes one oracle failure: a configuration whose
// observable behavior differs from the sequential reference semantics, or
// whose speculative hardware state violates the precise-exception
// invariants.
type Divergence struct {
	// Config is the Name() of the failing configuration.
	Config string `json:"config"`
	// Kind classifies the failure: "output", "memory", "store-stream",
	// "squash-leak", "halt-leak", "batch-lane" or "error".
	Kind string `json:"kind"`
	// Detail is a human-readable description of the mismatch.
	Detail string `json:"detail"`
}

func (d Divergence) String() string {
	return fmt.Sprintf("%s: %s: %s", d.Config, d.Kind, d.Detail)
}

// reference captures the ground-truth observables of one sequential run.
type reference struct {
	out    []uint32
	memh   uint64
	stores []storeEvent
	insts  int64
}

type storeEvent struct {
	addr uint32
	size int
	val  uint32
}

// CheckRecipe builds the recipe's program freshly for every configuration
// (compilation mutates the program) and reports every divergence from the
// sequential reference semantics. The returned error is reserved for an
// invalid program — a reference run that faults or fails to halt — which
// is a generator bug, not a scheduler divergence.
func CheckRecipe(rec testgen.Recipe, opt Options) ([]Divergence, error) {
	return Check(func() *prog.Program { return testgen.Build(rec) }, opt)
}

// CheckProgram checks a fixed program (for example a corpus entry); a
// private clone is compiled per configuration.
func CheckProgram(pr *prog.Program, opt Options) ([]Divergence, error) {
	return Check(func() *prog.Program { return prog.Clone(pr) }, opt)
}

// Check is the oracle core: build() must return a fresh, semantically
// identical program on every call.
//
// Register allocation inserts spill traffic, so the memory image of an
// allocated run legitimately differs from the virtual-register run. The
// oracle therefore keeps one reference per register regime — each the
// sequential interpretation of exactly the program that regime's
// configurations compile — and additionally asserts the regimes agree on
// the observable output stream (allocation must never change results).
func Check(build func() *prog.Program, opt Options) ([]Divergence, error) {
	refVirt, err := runReference(build(), opt.maxSteps())
	if err != nil {
		return nil, err
	}
	var divs []Divergence
	refs := map[bool]*reference{false: refVirt}
	buildAlloc := func() *prog.Program {
		pr := build()
		if _, err := regalloc.Allocate(pr); err != nil {
			// Surfaced once below as a divergence; callers get a stub
			// reference so per-config checks are skipped cleanly.
			return nil
		}
		return pr
	}
	if pr := buildAlloc(); pr != nil {
		refAlloc, err := runReference(pr, opt.maxSteps())
		if err != nil {
			divs = append(divs, Divergence{Config: "regalloc", Kind: "error",
				Detail: fmt.Sprintf("allocated reference run: %v", err)})
		} else {
			refs[true] = refAlloc
			if d := compareOut(refVirt.out, refAlloc.out); d != "" {
				divs = append(divs, Divergence{Config: "regalloc", Kind: "output",
					Detail: "register allocation changed program output: " + d})
			}
		}
	} else {
		divs = append(divs, Divergence{Config: "regalloc", Kind: "error", Detail: "register allocation failed"})
	}
	for _, cfg := range opt.configs() {
		ref := refs[cfg.Alloc || cfg.Dynamic]
		if ref == nil {
			continue
		}
		divs = append(divs, checkConfig(build, cfg, ref, opt)...)
	}
	return divs, nil
}

func runReference(pr *prog.Program, maxSteps int64) (*reference, error) {
	if err := prog.VerifyProgram(pr); err != nil {
		return nil, fmt.Errorf("difftest: invalid program: %w", err)
	}
	ref := &reference{}
	res, err := sim.Run(pr, sim.RefConfig{
		MaxSteps: maxSteps,
		OnStore: func(addr uint32, size int, val uint32) {
			ref.stores = append(ref.stores, storeEvent{addr, size, val})
		},
	})
	if err != nil {
		return nil, fmt.Errorf("difftest: reference run: %w", err)
	}
	if res.Fault != nil {
		return nil, fmt.Errorf("difftest: reference run faults: %v", res.Fault)
	}
	ref.out = res.Out
	ref.memh = res.MemHash
	ref.insts = res.Insts
	return ref, nil
}

// checkConfig compiles and runs one configuration and compares every
// observable against the reference.
func checkConfig(build func() *prog.Program, cfg Config, ref *reference, opt Options) []Divergence {
	if cfg.Dynamic {
		return checkDynamic(build, cfg, ref)
	}
	return checkStatic(build, cfg, ref, opt)
}

func checkStatic(build func() *prog.Program, cfg Config, ref *reference, opt Options) []Divergence {
	name := cfg.Name()
	pr := build()
	if cfg.Alloc {
		if _, err := regalloc.Allocate(pr); err != nil {
			return []Divergence{{Config: name, Kind: "error", Detail: fmt.Sprintf("regalloc: %v", err)}}
		}
	}
	if err := profile.Annotate(pr); err != nil {
		return []Divergence{{Config: name, Kind: "error", Detail: fmt.Sprintf("profile: %v", err)}}
	}
	sp, err := core.Schedule(pr, cfg.Model, cfg.Opts)
	if err != nil {
		return []Divergence{{Config: name, Kind: "error", Detail: fmt.Sprintf("schedule: %v", err)}}
	}
	if cfg.ViaArtifact {
		// Round-trip the schedule through the binary artifact codec: what
		// executes is what a warm start would decode from disk or a peer.
		data, err := artifact.EncodeSchedProgram(sp)
		if err != nil {
			return []Divergence{{Config: name, Kind: "error", Detail: fmt.Sprintf("artifact encode: %v", err)}}
		}
		if sp, err = artifact.DecodeSchedProgram(data); err != nil {
			return []Divergence{{Config: name, Kind: "error", Detail: fmt.Sprintf("artifact decode: %v", err)}}
		}
	}

	var divs []Divergence
	var stores []storeEvent
	leaks := 0
	ecfg := sim.ExecConfig{
		Inject: opt.Inject,
		Mem:    cfg.Mem,
		OnStore: func(addr uint32, size int, val uint32) {
			stores = append(stores, storeEvent{addr, size, val})
		},
		OnSquash: func(info sim.SquashInfo) {
			if info.Leaked > 0 {
				leaks++
				if leaks == 1 { // report the first, count the rest
					divs = append(divs, Divergence{Config: name, Kind: "squash-leak", Detail: fmt.Sprintf(
						"branch %d squash left %d speculative entries outstanding",
						info.BranchID, info.Leaked)})
				}
			}
		},
	}
	var res *sim.ExecResult
	switch {
	case cfg.Legacy:
		res, err = sim.ExecOracle(sp, ecfg)
	case cfg.Batch:
		var batchDivs []Divergence
		res, err, batchDivs = execBatched(sp, ecfg, name)
		divs = append(divs, batchDivs...)
	default:
		res, err = sim.Exec(sp, ecfg)
	}
	if err != nil {
		divs = append(divs, Divergence{Config: name, Kind: "error", Detail: fmt.Sprintf("exec: %v", err)})
		return divs
	}
	divs = append(divs, compareRun(name, ref, res.Out, res.MemHash, stores)...)
	return divs
}

// execBatched runs the configuration as lane 0 of a lockstep ExecBatch,
// flanked by companion lanes (perfect memory and a tiny blocking
// hierarchy) so the lockstep loop genuinely interleaves lanes in
// different states, and asserts lane 0 is byte-identical to a
// sequential Exec of the same configuration.
func execBatched(sp *machine.SchedProgram, ecfg sim.ExecConfig, name string) (*sim.ExecResult, error, []Divergence) {
	tiny := memhier.SingleLevel(4, 1, 8, 20)
	batch := []sim.ExecConfig{
		ecfg,
		{Inject: ecfg.Inject},
		{Inject: ecfg.Inject, Mem: &tiny},
	}
	results, errs := sim.ExecBatch(sp, batch)
	res, err := results[0], errs[0]
	solo, soloErr := sim.Exec(sp, sim.ExecConfig{Inject: ecfg.Inject, Mem: ecfg.Mem})

	var divs []Divergence
	switch {
	case (err == nil) != (soloErr == nil):
		divs = append(divs, Divergence{Config: name, Kind: "batch-lane",
			Detail: fmt.Sprintf("batch lane error %v, solo Exec error %v", err, soloErr)})
	case err == nil:
		if d := compareExecResults(res, solo); d != "" {
			divs = append(divs, Divergence{Config: name, Kind: "batch-lane",
				Detail: "batch lane diverges from solo Exec: " + d})
		}
	}
	return res, err, divs
}

// compareExecResults diffs every architectural and timing observable of
// two runs of the same configuration; "" means byte-identical.
func compareExecResults(batch, solo *sim.ExecResult) string {
	if d := compareOut(solo.Out, batch.Out); d != "" {
		return d
	}
	if batch.MemHash != solo.MemHash {
		return "final memory state differs"
	}
	type pair struct {
		name        string
		batch, solo int64
	}
	for _, p := range []pair{
		{"cycles", batch.Cycles, solo.Cycles},
		{"insts", batch.Insts, solo.Insts},
		{"squashed", batch.Squashed, solo.Squashed},
		{"boosted", batch.BoostedExec, solo.BoostedExec},
		{"branches", batch.Branches, solo.Branches},
		{"correct", batch.Correct, solo.Correct},
		{"recoveries", batch.Recoveries, solo.Recoveries},
		{"stalls", batch.Stalls, solo.Stalls},
		{"mem-stalls", batch.MemStalls, solo.MemStalls},
		{"boosted-mem-stalls", batch.BoostedMemStalls, solo.BoostedMemStalls},
		{"squashed-mem-stalls", batch.SquashedMemStalls, solo.SquashedMemStalls},
	} {
		if p.batch != p.solo {
			return fmt.Sprintf("%s = %d, solo %d", p.name, p.batch, p.solo)
		}
	}
	if (batch.Fault == nil) != (solo.Fault == nil) {
		return fmt.Sprintf("fault %v, solo %v", batch.Fault, solo.Fault)
	}
	return ""
}

func checkDynamic(build func() *prog.Program, cfg Config, ref *reference) []Divergence {
	name := cfg.Name()
	pr := build()
	if _, err := regalloc.Allocate(pr); err != nil {
		return []Divergence{{Config: name, Kind: "error", Detail: fmt.Sprintf("regalloc: %v", err)}}
	}
	dc := dynsched.Default()
	dc.Renaming = cfg.Renaming
	dc.Mem = cfg.Mem
	res, err := dynsched.Simulate(pr, dc)
	if err != nil {
		return []Divergence{{Config: name, Kind: "error", Detail: fmt.Sprintf("simulate: %v", err)}}
	}
	// The dynamic machine is trace-driven off the reference interpreter,
	// so its store stream is the reference's by construction; compare the
	// end-to-end observables.
	return compareRun(name, ref, res.Out, res.MemHash, nil)
}

// compareRun checks output, final memory and (when captured) the committed
// architectural store stream against the reference.
func compareRun(name string, ref *reference, out []uint32, memh uint64, stores []storeEvent) []Divergence {
	var divs []Divergence
	if d := compareOut(ref.out, out); d != "" {
		divs = append(divs, Divergence{Config: name, Kind: "output", Detail: d})
	}
	if memh != ref.memh {
		divs = append(divs, Divergence{Config: name, Kind: "memory", Detail: "final memory state differs from reference"})
	}
	if stores != nil {
		if d := compareStores(ref.stores, stores); d != "" {
			divs = append(divs, Divergence{Config: name, Kind: "store-stream", Detail: d})
		}
	}
	return divs
}

func compareOut(want, got []uint32) string {
	if len(got) != len(want) {
		return fmt.Sprintf("%d output values, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			return fmt.Sprintf("out[%d] = %d, want %d", i, int32(got[i]), int32(want[i]))
		}
	}
	return ""
}

// compareStores checks that the committed store stream is byte-for-byte
// the reference's program-order store stream. Boosted stores commit in
// buffer (execution) order at branch commit, and the scheduler never
// reorders stores with respect to each other (memory output dependences
// are always honored), so architectural memory writes must occur in
// exactly the sequential order.
func compareStores(want, got []storeEvent) string {
	n := len(want)
	if len(got) < n {
		n = len(got)
	}
	for i := 0; i < n; i++ {
		if want[i] != got[i] {
			return fmt.Sprintf("store[%d] = %d bytes @%#x val %#x, want %d bytes @%#x val %#x",
				i, got[i].size, got[i].addr, got[i].val, want[i].size, want[i].addr, want[i].val)
		}
	}
	if len(got) != len(want) {
		return fmt.Sprintf("%d architectural stores, want %d", len(got), len(want))
	}
	return ""
}
