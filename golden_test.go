// Golden-trace equivalence suite: every machine model's full execution
// digest — cycle counts, speculation counters, squash events, and the
// committed store stream — is pinned against checked-in golden files under
// testdata/golden/, and the fast pre-decoded core (sim.Exec) is asserted
// identical to the oracle interpreter (sim.ExecOracle) on every digest
// before either is compared to the golden copy. Regenerate after an
// intentional behavior change with
//
//	go test -run TestGoldenTraces -update .
//
// and review the golden-file diff like any other code change: an
// unexplained delta in cycles or squashes is a simulator or scheduler
// regression, not noise.
package boosting_test

import (
	"encoding/binary"
	"encoding/json"
	"flag"
	"fmt"
	"hash"
	"hash/fnv"
	"os"
	"path/filepath"
	"testing"

	"boosting/internal/core"
	"boosting/internal/dynsched"
	"boosting/internal/machine"
	"boosting/internal/memhier"
	"boosting/internal/profile"
	"boosting/internal/prog"
	"boosting/internal/regalloc"
	"boosting/internal/sim"
	"boosting/internal/workloads"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/golden trace digests")

// goldenDigest summarizes one (workload, model) execution. Streams are
// digested (FNV-64a) so the files stay reviewable while still pinning
// every event byte-for-byte.
type goldenDigest struct {
	Cycles       int64  `json:"cycles"`
	Insts        int64  `json:"insts"`
	BoostedExec  int64  `json:"boostedExec"`
	Squashed     int64  `json:"squashed"`
	Branches     int64  `json:"branches"`
	Correct      int64  `json:"correct"`
	Recoveries   int64  `json:"recoveries"`
	Stalls       int64  `json:"stalls"`
	SquashEvents int    `json:"squashEvents"`
	OutLen       int    `json:"outLen"`
	OutHash      string `json:"outHash"`
	MemHash      string `json:"memHash"`
	StoreCount   int    `json:"storeCount"`
	StoreHash    string `json:"storeHash"`
}

// dynamicDigest summarizes one run of the dynamically-scheduled machine.
type dynamicDigest struct {
	Cycles      int64  `json:"cycles"`
	Insts       int64  `json:"insts"`
	Branches    int64  `json:"branches"`
	Mispredicts int64  `json:"mispredicts"`
	OutLen      int    `json:"outLen"`
	OutHash     string `json:"outHash"`
	MemHash     string `json:"memHash"`
}

// goldenFile is one testdata/golden/<workload>.json document.
type goldenFile struct {
	Workload string                   `json:"workload"`
	Models   map[string]goldenDigest  `json:"models"`
	Dynamic  map[string]dynamicDigest `json:"dynamic"`
}

// goldenModels lists the pinned machine models in the paper's order.
func goldenModels() []struct {
	name  string
	model *machine.Model
} {
	return []struct {
		name  string
		model *machine.Model
	}{
		{"Scalar", machine.Scalar()},
		{"NoBoost", machine.NoBoost()},
		{"Squashing", machine.Squashing()},
		{"Boost1", machine.Boost1()},
		{"MinBoost3", machine.MinBoost3()},
		{"Boost7", machine.Boost7()},
	}
}

// compileGolden runs the full production pipeline on a workload: build
// train/test, register-allocate both, profile on train, transfer
// predictions to test.
func compileGolden(t *testing.T, name string) *prog.Program {
	t.Helper()
	w, err := workloads.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	train, test := w.BuildTrain(), w.BuildTest()
	if _, err := regalloc.Allocate(train); err != nil {
		t.Fatal(err)
	}
	if _, err := regalloc.Allocate(test); err != nil {
		t.Fatal(err)
	}
	if err := profile.Annotate(train); err != nil {
		t.Fatal(err)
	}
	if err := profile.Transfer(train, test); err != nil {
		t.Fatal(err)
	}
	return test
}

func hashUint32s(vals []uint32) string {
	h := fnv.New64a()
	var buf [4]byte
	for _, v := range vals {
		binary.LittleEndian.PutUint32(buf[:], v)
		h.Write(buf[:])
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// executor runs a schedule: sim.Exec (the fast core) or sim.ExecOracle.
type executor func(*machine.SchedProgram, sim.ExecConfig) (*sim.ExecResult, error)

// execDigest schedules the program for the model and executes it on
// exec, digesting every observable stream.
func execDigest(t *testing.T, master *prog.Program, model *machine.Model, exec executor) goldenDigest {
	t.Helper()
	sp, err := core.Schedule(prog.Clone(master), model, core.Options{LocalOnly: model.IssueWidth == 1})
	if err != nil {
		t.Fatalf("%s: schedule: %v", model.Name, err)
	}
	return schedDigest(t, model.Name, sp, exec)
}

// digestTap captures one execution's store and squash streams so they
// can be digested alongside the counters; wrap() installs its callbacks
// on an ExecConfig, digest() assembles the goldenDigest afterwards.
type digestTap struct {
	storeHash    hash.Hash64
	storeCount   int
	squashEvents int
}

func newDigestTap() *digestTap { return &digestTap{storeHash: fnv.New64a()} }

func (d *digestTap) wrap(cfg sim.ExecConfig) sim.ExecConfig {
	cfg.OnStore = func(addr uint32, size int, val uint32) {
		var buf [12]byte
		binary.LittleEndian.PutUint32(buf[0:], addr)
		binary.LittleEndian.PutUint32(buf[4:], uint32(size))
		binary.LittleEndian.PutUint32(buf[8:], val)
		d.storeHash.Write(buf[:])
		d.storeCount++
	}
	cfg.OnSquash = func(sim.SquashInfo) { d.squashEvents++ }
	return cfg
}

func (d *digestTap) digest(res *sim.ExecResult) goldenDigest {
	return goldenDigest{
		Cycles:       res.Cycles,
		Insts:        res.Insts,
		BoostedExec:  res.BoostedExec,
		Squashed:     res.Squashed,
		Branches:     res.Branches,
		Correct:      res.Correct,
		Recoveries:   res.Recoveries,
		Stalls:       res.Stalls,
		SquashEvents: d.squashEvents,
		OutLen:       len(res.Out),
		OutHash:      hashUint32s(res.Out),
		MemHash:      fmt.Sprintf("%016x", res.MemHash),
		StoreCount:   d.storeCount,
		StoreHash:    fmt.Sprintf("%016x", d.storeHash.Sum64()),
	}
}

// schedDigest executes an already-scheduled program and digests every
// observable stream (also used by the artifact round-trip suite, which
// feeds it schedules decoded from their binary encoding).
func schedDigest(t *testing.T, label string, sp *machine.SchedProgram, exec executor) goldenDigest {
	t.Helper()
	tap := newDigestTap()
	res, err := exec(sp, tap.wrap(sim.ExecConfig{}))
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	return tap.digest(res)
}

func dynDigest(t *testing.T, master *prog.Program, renaming bool) dynamicDigest {
	t.Helper()
	cfg := dynsched.Default()
	cfg.Renaming = renaming
	res, err := dynsched.Simulate(prog.Clone(master), cfg)
	if err != nil {
		t.Fatalf("dynamic(renaming=%v): %v", renaming, err)
	}
	return dynamicDigest{
		Cycles:      res.Cycles,
		Insts:       res.Insts,
		Branches:    res.Branches,
		Mispredicts: res.Mispredicts,
		OutLen:      len(res.Out),
		OutHash:     hashUint32s(res.Out),
		MemHash:     fmt.Sprintf("%016x", res.MemHash),
	}
}

// TestGoldenTraces pins every model's execution digest against the golden
// files, with the fast core and the oracle first proven identical on every
// digest. -update rewrites the files from the current implementation.
func TestGoldenTraces(t *testing.T) {
	names := []string{"grep", "eqntott"}
	if testing.Short() {
		names = names[:1]
	}
	for _, name := range names {
		t.Run(name, func(t *testing.T) {
			master := compileGolden(t, name)
			got := goldenFile{
				Workload: name,
				Models:   map[string]goldenDigest{},
				Dynamic:  map[string]dynamicDigest{},
			}
			for _, m := range goldenModels() {
				fast := execDigest(t, master, m.model, sim.Exec)
				legacy := execDigest(t, master, m.model, sim.ExecOracle)
				if fast != legacy {
					t.Errorf("%s on %s: fast core and oracle disagree:\nfast:   %+v\nlegacy: %+v", name, m.name, fast, legacy)
				}
				got.Models[m.name] = fast
			}
			got.Dynamic["base"] = dynDigest(t, master, false)
			got.Dynamic["renaming"] = dynDigest(t, master, true)

			path := filepath.Join("testdata", "golden", name+".json")
			if *updateGolden {
				b, err := json.MarshalIndent(got, "", "  ")
				if err != nil {
					t.Fatal(err)
				}
				if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, append(b, '\n'), 0o644); err != nil {
					t.Fatal(err)
				}
				t.Logf("wrote %s", path)
				return
			}
			raw, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing golden file %s (generate with `go test -run TestGoldenTraces -update .`): %v", path, err)
			}
			var want goldenFile
			if err := json.Unmarshal(raw, &want); err != nil {
				t.Fatalf("%s: %v", path, err)
			}
			for _, m := range goldenModels() {
				w, ok := want.Models[m.name]
				if !ok {
					t.Errorf("%s: golden file lacks model %s; re-run with -update", path, m.name)
					continue
				}
				if g := got.Models[m.name]; g != w {
					t.Errorf("%s on %s: digest drifted from golden (re-run with -update if intended):\ngot:    %+v\ngolden: %+v",
						name, m.name, g, w)
				}
			}
			for _, k := range []string{"base", "renaming"} {
				w, ok := want.Dynamic[k]
				if !ok {
					t.Errorf("%s: golden file lacks dynamic/%s; re-run with -update", path, k)
					continue
				}
				if g := got.Dynamic[k]; g != w {
					t.Errorf("%s dynamic/%s: digest drifted from golden (re-run with -update if intended):\ngot:    %+v\ngolden: %+v",
						name, k, g, w)
				}
			}
		})
	}
}

// TestGoldenBatchLanes: every lane of a lockstep ExecBatch produces
// exactly the digest a solo Exec of the same configuration produces —
// and the solo digests are themselves pinned by TestGoldenTraces, so
// the batch path is chained to the same golden files. Lanes mix
// perfect memory, a small blocking cache, the default two-level
// hierarchy with a stride prefetcher, and a duplicate lane, so the
// lockstep loop interleaves lanes in genuinely different states.
func TestGoldenBatchLanes(t *testing.T) {
	names := []string{"grep", "eqntott"}
	if testing.Short() {
		names = names[:1]
	}
	tiny := memhier.SingleLevel(64, 1, 16, 20)
	stride := memhier.Default()
	stride.Prefetch = "stride"
	for _, name := range names {
		t.Run(name, func(t *testing.T) {
			master := compileGolden(t, name)
			for _, m := range []*machine.Model{machine.MinBoost3(), machine.Boost7()} {
				sp, err := core.Schedule(prog.Clone(master), m, core.Options{})
				if err != nil {
					t.Fatalf("%s: schedule: %v", m.Name, err)
				}
				laneCfgs := []sim.ExecConfig{
					{},
					{Mem: &tiny},
					{Mem: &stride},
					{},
				}
				taps := make([]*digestTap, len(laneCfgs))
				batch := make([]sim.ExecConfig, len(laneCfgs))
				for i, c := range laneCfgs {
					taps[i] = newDigestTap()
					batch[i] = taps[i].wrap(c)
				}
				results, errs := sim.ExecBatch(sp, batch)
				for i := range laneCfgs {
					if errs[i] != nil {
						t.Fatalf("%s lane %d: %v", m.Name, i, errs[i])
					}
					soloTap := newDigestTap()
					solo, err := sim.Exec(sp, soloTap.wrap(laneCfgs[i]))
					if err != nil {
						t.Fatalf("%s lane %d solo: %v", m.Name, i, err)
					}
					if got, want := taps[i].digest(results[i]), soloTap.digest(solo); got != want {
						t.Errorf("%s on %s lane %d diverges from solo Exec:\nbatch: %+v\nsolo:  %+v",
							name, m.Name, i, got, want)
					}
					if results[i].MemStalls != solo.MemStalls {
						t.Errorf("%s on %s lane %d: batch mem stalls %d, solo %d",
							name, m.Name, i, results[i].MemStalls, solo.MemStalls)
					}
				}
			}
		})
	}
}
