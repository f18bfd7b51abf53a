package dataflow

import (
	"math/rand"
	"testing"

	"boosting/internal/isa"
	"boosting/internal/prog"
)

// TestManagerLazyComputeAndHits checks the memoization contract: each
// analysis is computed once on first query and served from cache (same
// pointer, hit counted) while the IR generation is unchanged.
func TestManagerLazyComputeAndHits(t *testing.T) {
	p := buildDiamond().Main()
	m := NewManager(p)
	if m.Proc() != p {
		t.Fatal("Proc() does not return the managed procedure")
	}
	if s := m.Stats(); s != (ManagerStats{}) {
		t.Fatalf("fresh manager has nonzero stats: %+v", s)
	}

	cfg := m.CFG()
	if cfg2 := m.CFG(); cfg2 != cfg {
		t.Error("second CFG() returned a different object")
	}
	lv := m.Liveness()
	if lv2 := m.Liveness(); lv2 != lv {
		t.Error("second Liveness() returned a different object")
	}
	regs := m.Regions()
	if len(regs) == 0 {
		t.Fatal("Regions() returned no regions")
	}
	m.Regions()

	s := m.Stats()
	if s.CFGComputes != 1 || s.LivenessComputes != 1 || s.LoopComputes != 1 {
		t.Errorf("computes = cfg:%d live:%d loops:%d, want 1 each",
			s.CFGComputes, s.LivenessComputes, s.LoopComputes)
	}
	// Hits: one repeat query per analysis, plus Regions' two internal
	// CFG() queries (both after the initial compute).
	if s.Hits < 4 {
		t.Errorf("hits = %d, want >= 4", s.Hits)
	}
	if s.Invalidations != 0 {
		t.Errorf("invalidations = %d, want 0", s.Invalidations)
	}

	// LiveIntoEdge is the edge-level liveness view used by planMotion:
	// the join block reads r, so r is live into it.
	join := p.Blocks[3]
	r := p.Blocks[0].Insts[0].Rd
	if !lv.LiveIntoEdge(join).Has(int(r)) {
		t.Errorf("r%d not live into %s", r, join)
	}
}

// TestManagerInvalidateLivenessRetags checks the selective-invalidation
// semantics: declaring a liveness-only clobber recomputes liveness but
// retags the CFG and region caches to the new generation, so they keep
// serving hits without recomputation.
func TestManagerInvalidateLivenessRetags(t *testing.T) {
	p := buildDiamond().Main()
	m := NewManager(p)
	cfg, lv := m.CFG(), m.Liveness()
	regs := m.Regions()
	before := m.Stats()
	gen := p.Generation()

	// An Insts-only edit (no CFG rewiring) followed by its declaration.
	join := p.Blocks[3]
	join.Insts = append([]isa.Inst{{Op: isa.ADDI, Rd: 9, Rs: 9}}, join.Insts...)
	m.Invalidate(KindLiveness)

	if p.Generation() != gen+1 {
		t.Errorf("generation = %d, want %d", p.Generation(), gen+1)
	}
	if m.CFG() != cfg {
		t.Error("CFG cache was not retagged across a liveness-only clobber")
	}
	if got := m.Regions(); len(got) != len(regs) || got[0] != regs[0] {
		t.Error("regions cache was not retagged across a liveness-only clobber")
	}
	if m.Liveness() == lv {
		t.Error("liveness served stale cache after being clobbered")
	}

	after := m.Stats()
	if after.CFGComputes != before.CFGComputes || after.LoopComputes != before.LoopComputes {
		t.Errorf("structural analyses recomputed on a liveness-only clobber: %+v -> %+v",
			before, after)
	}
	if after.LivenessComputes != before.LivenessComputes+1 {
		t.Errorf("liveness computes = %d, want %d", after.LivenessComputes, before.LivenessComputes+1)
	}
	if after.Invalidations != before.Invalidations+1 {
		t.Errorf("invalidations = %d, want %d", after.Invalidations, before.Invalidations+1)
	}
}

// TestManagerInvalidateStructural checks the KindAll path: a CFG edit
// clobbers every cache and Preds are recomputed immediately, before any
// analysis is queried.
func TestManagerInvalidateStructural(t *testing.T) {
	pr := buildDiamond()
	p := pr.Main()
	m := NewManager(p)
	cfg, lv := m.CFG(), m.Liveness()
	m.Regions()
	before := m.Stats()

	// Splice a new block into the then -> join edge.
	thenB, join := p.Blocks[1], p.Blocks[3]
	nb := p.NewBlockAfter("split")
	nb.Succs = []*prog.Block{join}
	thenB.Succs[0] = nb
	m.Invalidate(KindAll)

	found := false
	for _, x := range nb.Preds {
		if x == thenB {
			found = true
		}
	}
	if !found {
		t.Error("Preds not recomputed by the structural invalidation")
	}
	for _, x := range join.Preds {
		if x == thenB {
			t.Error("stale pred edge survived the structural invalidation")
		}
	}

	ncfg, nlv := m.CFG(), m.Liveness()
	if ncfg == cfg || nlv == lv {
		t.Error("analysis served stale cache after KindAll")
	}
	if !ncfg.Dominates(thenB, nb) {
		t.Error("recomputed dominance does not see the new block")
	}
	m.Regions()
	after := m.Stats()
	if after.CFGComputes != before.CFGComputes+1 ||
		after.LivenessComputes != before.LivenessComputes+1 ||
		after.LoopComputes != before.LoopComputes+1 {
		t.Errorf("want one recompute of each analysis after KindAll: %+v -> %+v", before, after)
	}
}

// TestManagerForeignGenerationBump checks that a generation bump the
// manager did not itself perform (another Manager, or NoteMutation called
// directly) still misses the cache: validity is keyed by generation, not
// by Invalidate bookkeeping.
func TestManagerForeignGenerationBump(t *testing.T) {
	p := buildDiamond().Main()
	m := NewManager(p)
	cfg := m.CFG()
	p.NoteMutation()
	if m.CFG() == cfg {
		t.Error("cache served across an unannounced generation bump")
	}
	if s := m.Stats(); s.CFGComputes != 2 {
		t.Errorf("CFG computes = %d, want 2", s.CFGComputes)
	}
}

// TestManagerInvalidateInstsExact applies random instruction edits to
// random procedures, declares each batch with InvalidateInsts, and
// requires every Liveness result to be a new value equal to a fresh
// ComputeLiveness, NumRegs included. Edits insert, delete and rewrite
// instructions, so they add and remove last uses around loops and raise
// and lower the highest register.
func TestManagerInvalidateInstsExact(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var updates int
	for trial := 0; trial < 300; trial++ {
		pr := genRandomCFG(rng, 2+rng.Intn(10))
		p := pr.Main()
		pool := []isa.Reg{isa.RV, isa.A0, 9, pr.FreshReg(), pr.FreshReg(), pr.FreshReg()}
		m := NewManager(p)
		prev := m.Liveness()
		const steps = 10
		for step := 0; step < steps; step++ {
			var edited []*prog.Block
			for k := 1 + rng.Intn(3); k > 0; k-- {
				b := p.Blocks[rng.Intn(len(p.Blocks))]
				if rng.Intn(4) == 0 {
					pool = append(pool, pr.FreshReg()) // raises the highest register
				}
				editBlock(rng, b, pool)
				edited = append(edited, b)
				if rng.Intn(3) == 0 {
					m.InvalidateInsts(edited...) // batches may be declared piecewise
					edited = edited[:0]
				}
			}
			m.InvalidateInsts(edited...)
			if m.live.valid && len(m.edited) > 0 {
				updates++
			}
			got, want := m.Liveness(), ComputeLiveness(p)
			if got == prev {
				t.Fatalf("trial %d step %d: Liveness returned the previous value", trial, step)
			}
			if !got.Equal(want) {
				t.Fatalf("trial %d step %d: updated liveness differs from a full computation (NumRegs %d, want %d)\n%s",
					trial, step, got.NumRegs, want.NumRegs, prog.Format(p))
			}
			prev = got
		}
		if s := m.Stats(); s.LivenessComputes != steps+1 {
			t.Fatalf("trial %d: %d liveness computations, want %d", trial, s.LivenessComputes, steps+1)
		}
	}
	if updates == 0 {
		t.Fatal("no query took the incremental path")
	}
}

// editBlock inserts, deletes or rewrites one non-terminator instruction
// of b, drawing registers from pool.
func editBlock(rng *rand.Rand, b *prog.Block, pool []isa.Reg) {
	body := len(b.Body())
	reg := func() isa.Reg { return pool[rng.Intn(len(pool))] }
	switch op := rng.Intn(3); {
	case op == 0 && body > 0:
		i := rng.Intn(body)
		b.Insts = append(b.Insts[:i:i], b.Insts[i+1:]...)
	case op == 1 && body > 0:
		in := &b.Insts[rng.Intn(body)]
		in.Rd, in.Rs = reg(), reg()
	default:
		i := rng.Intn(body + 1)
		in := isa.Inst{Op: isa.ADD, Rd: reg(), Rs: reg(), Rt: reg()}
		b.Insts = append(b.Insts[:i:i], append([]isa.Inst{in}, b.Insts[i:]...)...)
	}
}

// TestManagerStatsAdd checks the per-procedure aggregation used by
// core.Stats.
func TestManagerStatsAdd(t *testing.T) {
	a := ManagerStats{CFGComputes: 1, LivenessComputes: 2, LoopComputes: 3, Hits: 4, Invalidations: 5}
	b := ManagerStats{CFGComputes: 10, LivenessComputes: 20, LoopComputes: 30, Hits: 40, Invalidations: 50}
	a.Add(b)
	want := ManagerStats{CFGComputes: 11, LivenessComputes: 22, LoopComputes: 33, Hits: 44, Invalidations: 55}
	if a != want {
		t.Errorf("Add = %+v, want %+v", a, want)
	}
}
