// Package difftest is the differential-testing oracle for the boosting
// compiler and its machine models. It runs one program through the
// reference interpreter (the sequential semantics every schedule must
// preserve) and through every compiled configuration — machine model ×
// register-allocation mode × scheduler ablation — plus the
// dynamically-scheduled comparison machine, and reports every observable
// divergence: outputs, final memory, architectural store streams,
// speculative state leaking past a squash, or a configuration erroring
// where the reference succeeds.
//
// On a divergence, Shrink minimizes the generation recipe with delta
// debugging (drop segments, flatten nesting, shorten loops, reduce the
// register working set) until the failure no longer reproduces, yielding
// a small, parseable assembly reproducer for the corpus.
package difftest

import (
	"fmt"

	"boosting/internal/core"
	"boosting/internal/machine"
	"boosting/internal/memhier"
)

// Config identifies one compiled configuration under test.
type Config struct {
	// Model is the static machine model (nil for Dynamic configurations).
	Model *machine.Model
	// Alloc selects the register-allocated pipeline (false = the paper's
	// infinite-register regime).
	Alloc bool
	// Opts are the scheduler ablation knobs.
	Opts core.Options
	// Ablation names the ablation bundle for reporting ("" = baseline).
	Ablation string
	// Legacy runs the configuration on sim.ExecOracle, the original
	// interpreter, instead of the fast core (static configurations only),
	// making fast-vs-legacy equivalence part of the oracle's matrix.
	Legacy bool
	// ViaArtifact round-trips the schedule through the binary artifact
	// codec before execution (static configurations only), making
	// serialize-then-simulate equivalence part of the oracle's matrix.
	ViaArtifact bool
	// Dynamic selects the dynamically-scheduled comparison machine;
	// Renaming enables its register renaming.
	Dynamic  bool
	Renaming bool
	// Mem runs the configuration under a finite memory hierarchy, which
	// must be timing-only: every architectural observable still has to
	// match the perfect-memory reference exactly. MemName labels the
	// hierarchy in Name().
	Mem     *memhier.Config
	MemName string
}

// Name renders a stable, human-readable configuration identifier used in
// divergence reports and corpus headers. The fast core is unnamed so
// existing corpus entries keep their identifiers; configurations run on
// the oracle interpreter gain a "/legacy" suffix.
func (c Config) Name() string {
	if c.Dynamic {
		name := "dynamic"
		if c.Renaming {
			name = "dynamic/renaming"
		}
		if c.MemName != "" {
			name += "/mem/" + c.MemName
		}
		return name
	}
	reg := "virt"
	if c.Alloc {
		reg = "alloc"
	}
	name := fmt.Sprintf("%s/%s", c.Model.Name, reg)
	if c.Ablation != "" {
		name += "/" + c.Ablation
	}
	if c.Legacy {
		name += "/legacy"
	}
	if c.ViaArtifact {
		name += "/artifact"
	}
	if c.MemName != "" {
		name += "/mem/" + c.MemName
	}
	return name
}

// ablation is a named scheduler-ablation bundle.
type ablation struct {
	name string
	opts core.Options
}

// ablations enumerates the scheduler ablation axes. The baseline comes
// first; the rest disable one optimization each, plus the trace-length
// stressor.
func ablations() []ablation {
	return []ablation{
		{"", core.Options{}},
		{"no-equiv", core.Options{DisableEquivalence: true}},
		{"no-disamb", core.Options{NoDisambiguation: true}},
		{"short-traces", core.Options{MaxTraceBlocks: 2}},
		{"local-only", core.Options{LocalOnly: true}},
	}
}

// memHierarchy is a named finite-memory configuration of the oracle's
// timing-only axis.
type memHierarchy struct {
	name string
	cfg  memhier.Config
}

// memHierarchies enumerates the hierarchies the mem axis runs under.
// Caches are tiny so the small generated programs actually miss; the
// variants stress the paths most likely to leak timing into semantics:
// prefetch fills racing demand accesses, a single MSHR forcing merges
// and structural stalls, and a disabled write buffer making store
// misses block.
func memHierarchies() []memHierarchy {
	tiny := memhier.SingleLevel(4, 1, 8, 20)
	stride := memhier.Default()
	stride.L1 = memhier.CacheConfig{Sets: 4, Ways: 2, LineBytes: 8}
	stride.L2 = memhier.CacheConfig{Sets: 16, Ways: 2, LineBytes: 16}
	stride.Prefetch = "stride"
	// SingleLevel already disables the write buffer (store misses block
	// like loads); one MSHR maximizes merges and structural stalls.
	squeeze := memhier.SingleLevel(2, 1, 8, 30)
	squeeze.MSHRs = 1
	squeeze.Prefetch = "stream"
	return []memHierarchy{
		{"tiny", tiny},
		{"stride", stride},
		{"squeeze", squeeze},
	}
}

// Configs enumerates the configurations of one oracle pass.
//
// The quick set (full=false) covers every machine model in both register
// regimes plus the dynamic scheduler — the surface a fuzzing campaign
// iterates millions of times. The full set additionally crosses the
// boosting models with every scheduler ablation and adds the intermediate
// boost levels (the "raising the boost level never changes results"
// metamorphic axis).
func Configs(full bool) []Config {
	models := []*machine.Model{
		machine.NoBoost(), machine.Squashing(), machine.Boost1(),
		machine.MinBoost3(), machine.Boost7(),
	}
	var out []Config
	// The scalar baseline schedules locally only (it is the paper's
	// sequential machine; global motion has nothing to overlap with).
	for _, alloc := range []bool{false, true} {
		out = append(out, Config{
			Model: machine.Scalar(), Alloc: alloc,
			Opts: core.Options{LocalOnly: true}, Ablation: "local-only",
		})
	}
	for _, m := range models {
		for _, alloc := range []bool{false, true} {
			out = append(out, Config{Model: m, Alloc: alloc})
		}
	}
	// The fast/legacy axis: every static configuration must behave
	// identically on the fast core and on the oracle interpreter. The
	// quick set re-runs the allocated regime on the oracle; the full
	// matrix covers both register regimes.
	for _, m := range append([]*machine.Model{machine.Scalar()}, models...) {
		regimes := []bool{true}
		if full {
			regimes = []bool{false, true}
		}
		for _, alloc := range regimes {
			c := Config{Model: m, Alloc: alloc, Legacy: true}
			if m.IssueWidth == 1 {
				c.Opts = core.Options{LocalOnly: true}
				c.Ablation = "local-only"
			}
			out = append(out, c)
		}
	}
	// The artifact-codec axis: encode→decode→simulate must match
	// schedule→simulate exactly. The quick set round-trips the two
	// headline boosting models; the full matrix covers every model in
	// the allocated regime.
	if full {
		for _, m := range models {
			out = append(out, Config{Model: m, Alloc: true, ViaArtifact: true})
		}
	} else {
		out = append(out,
			Config{Model: machine.MinBoost3(), Alloc: true, ViaArtifact: true},
			Config{Model: machine.Boost7(), Alloc: true, ViaArtifact: true},
		)
	}
	if full {
		for _, m := range models {
			for _, alloc := range []bool{false, true} {
				for _, ab := range ablations()[1:] {
					out = append(out, Config{Model: m, Alloc: alloc, Opts: ab.opts, Ablation: ab.name})
				}
			}
		}
		// Intermediate boost depths: results must be invariant in the level.
		for _, n := range []int{2, 4, 5, 6} {
			out = append(out, Config{Model: machine.BoostN(n), Alloc: true})
		}
	}
	// The memory-hierarchy axis: a finite hierarchy is timing-only, so
	// every observable must still match the perfect-memory reference.
	// The quick set runs the deepest-speculation model under every
	// hierarchy on the fast core and the oracle (plus the dynamic machine
	// under one); the full matrix crosses every boosting model with every
	// hierarchy.
	for _, mh := range memHierarchies() {
		mem := mh.cfg
		if full {
			for _, m := range models {
				for _, legacy := range []bool{false, true} {
					out = append(out, Config{Model: m, Alloc: true, Legacy: legacy,
						Mem: &mem, MemName: mh.name})
				}
			}
		} else {
			out = append(out,
				Config{Model: machine.Boost7(), Alloc: true, Mem: &mem, MemName: mh.name},
				Config{Model: machine.Boost7(), Alloc: true, Legacy: true,
					Mem: &mem, MemName: mh.name},
			)
		}
	}
	out = append(out,
		Config{Dynamic: true},
		Config{Dynamic: true, Renaming: true},
		Config{Dynamic: true, Renaming: true,
			Mem: &memHierarchies()[0].cfg, MemName: memHierarchies()[0].name},
	)
	return out
}

// ConfigByName resolves a Name() string back to a configuration, for
// corpus replay of a specific failing config.
func ConfigByName(name string) (Config, error) {
	for _, full := range []bool{false, true} {
		for _, c := range Configs(full) {
			if c.Name() == name {
				return c, nil
			}
		}
	}
	return Config{}, fmt.Errorf("difftest: unknown config %q", name)
}
