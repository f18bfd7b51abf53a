package difftest

import (
	"reflect"
	"testing"

	"boosting/internal/core"
	"boosting/internal/machine"
	"boosting/internal/profile"
	"boosting/internal/prog"
	"boosting/internal/regalloc"
	"boosting/internal/sim"
	"boosting/internal/testgen"
)

// FuzzOracle is the native-fuzzing entry point over campaign seeds: every
// seed derives a random program shape and recipe and must survive the full
// differential oracle. `go test -fuzz=FuzzOracle ./internal/difftest/`
// explores beyond the sequential seeds a campaign visits.
func FuzzOracle(f *testing.F) {
	f.Add(int64(0))
	f.Add(int64(42))
	f.Add(int64(999)) // known squash-carried-store shape
	for _, s := range triggerSeeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		rec := testgen.Derive(seed, testgen.RandomShape(seed))
		divs, err := CheckRecipe(rec, Options{})
		if err != nil {
			t.Fatalf("seed %d: oracle infrastructure error: %v", seed, err)
		}
		for _, d := range divs {
			t.Errorf("seed %d: %s", seed, d)
		}
	})
}

// FuzzFastCore is the engine-differential fuzz target: every seed derives
// a random program, and the fast pre-decoded core (sim.Exec) must be
// byte-identical to the oracle interpreter (sim.ExecOracle) — the whole
// ExecResult plus the committed store stream — on every static machine
// model. Unlike FuzzOracle, which compares each configuration against the
// sequential reference, this target compares the two executors against
// each other, so purely microarchitectural counters (cycles, stalls,
// squashes) are covered too. Each model also runs one sim.ExecBatch over
// perfect memory and the mem axis's hierarchies, and every slot must
// equal the oracle under its hierarchy: the lanes that share one
// execution are held to the independent interpreter, timing included.
func FuzzFastCore(f *testing.F) {
	f.Add(int64(0))
	f.Add(int64(42))
	f.Add(int64(999)) // known squash-carried-store shape
	for _, s := range triggerSeeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		rec := testgen.Derive(seed, testgen.RandomShape(seed))
		pr := testgen.Build(rec)
		if _, err := regalloc.Allocate(pr); err != nil {
			t.Fatalf("seed %d: regalloc: %v", seed, err)
		}
		if err := profile.Annotate(pr); err != nil {
			t.Fatalf("seed %d: profile: %v", seed, err)
		}
		models := []*machine.Model{
			machine.Scalar(), machine.NoBoost(), machine.Squashing(),
			machine.Boost1(), machine.MinBoost3(), machine.Boost7(),
		}
		for _, m := range models {
			sp, err := core.Schedule(prog.Clone(pr), m, core.Options{LocalOnly: m.IssueWidth == 1})
			if err != nil {
				t.Fatalf("seed %d on %s: schedule: %v", seed, m.Name, err)
			}
			type run struct {
				res    *sim.ExecResult
				err    string
				stores []storeEvent
			}
			exec := func(execute func(*machine.SchedProgram, sim.ExecConfig) (*sim.ExecResult, error)) run {
				var r run
				res, err := execute(sp, sim.ExecConfig{OnStore: func(addr uint32, size int, val uint32) {
					r.stores = append(r.stores, storeEvent{addr, size, val})
				}})
				r.res = res
				if err != nil {
					r.err = err.Error()
				}
				return r
			}
			fast, legacy := exec(sim.Exec), exec(sim.ExecOracle)
			if fast.err != legacy.err {
				t.Fatalf("seed %d on %s: error mismatch: fast=%q legacy=%q", seed, m.Name, fast.err, legacy.err)
			}
			if !reflect.DeepEqual(fast.res, legacy.res) {
				t.Fatalf("seed %d on %s: ExecResult mismatch:\nfast:   %+v\nlegacy: %+v", seed, m.Name, fast.res, legacy.res)
			}
			if !reflect.DeepEqual(fast.stores, legacy.stores) {
				t.Fatalf("seed %d on %s: store stream mismatch (%d vs %d events)",
					seed, m.Name, len(fast.stores), len(legacy.stores))
			}
			hs := memHierarchies()
			cfgs := []sim.ExecConfig{{}}
			for i := range hs {
				cfgs = append(cfgs, sim.ExecConfig{Mem: &hs[i].cfg})
			}
			batch, berrs := sim.ExecBatch(sp, cfgs)
			for i, cfg := range cfgs {
				name := "perfect"
				if i > 0 {
					name = hs[i-1].name
				}
				want, werr := sim.ExecOracle(sp, cfg)
				if errText(berrs[i]) != errText(werr) {
					t.Fatalf("seed %d on %s, %s lane: error mismatch: batch=%q legacy=%q",
						seed, m.Name, name, errText(berrs[i]), errText(werr))
				}
				if !reflect.DeepEqual(batch[i], want) {
					t.Fatalf("seed %d on %s, %s lane: ExecResult mismatch:\nbatch:  %+v\nlegacy: %+v",
						seed, m.Name, name, batch[i], want)
				}
			}
		}
	})
}

// errText is an error's text, "" for nil.
func errText(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// FuzzRecipeDecode hammers the recipe decoder with arbitrary JSON: any
// recipe it accepts must build into a verifying program (Build's totality
// contract), and well-formed recipes must round-trip.
func FuzzRecipeDecode(f *testing.F) {
	for _, seed := range []int64{1, 7, 999} {
		enc, err := testgen.EncodeRecipe(testgen.Derive(seed, testgen.RandomShape(seed)))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(enc)
	}
	f.Add(`{"seed":1,"regs":2,"segments":[{"kind":3,"n":4,"body":[{"kind":1,"n":2}]}]}`)
	f.Fuzz(func(t *testing.T, s string) {
		rec, err := testgen.DecodeRecipe(s)
		if err != nil {
			t.Skip()
		}
		pr := testgen.Build(rec)
		if err := prog.VerifyProgram(pr); err != nil {
			t.Fatalf("accepted recipe builds invalid program: %v\nrecipe: %s", err, s)
		}
	})
}
