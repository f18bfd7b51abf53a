package dynsched

import (
	"testing"

	"boosting/internal/isa"
	"boosting/internal/memhier"
	"boosting/internal/sim"
)

// feedInsts pushes a synthetic instruction stream into a fresh pipeline
// without running the functional simulator.
func feedInsts(cfg Config, insts []isa.Inst, addrs []uint32) *pipeline {
	p := newPipeline(cfg)
	for i := range insts {
		insts[i].ID = i
		ev := sim.InstEvent{Inst: &insts[i]}
		if i < len(addrs) {
			ev.Addr = addrs[i]
		}
		p.feed(ev)
	}
	return p
}

// stepUntilEmpty drains the pipeline and returns the cycle count.
func stepUntilEmpty(p *pipeline) int64 {
	p.drainAll()
	return p.cycle
}

// TestScoreboardDependencyChains drives the bitmap scoreboard with
// hand-built instruction sequences and checks the cycle counts implied
// by the dependency, functional-unit, and memory-ordering rules.
func TestScoreboardDependencyChains(t *testing.T) {
	alu := func(d, s, u isa.Reg) isa.Inst { return isa.Inst{Op: isa.ADD, Rd: d, Rs: s, Rt: u} }
	tests := []struct {
		name   string
		insts  []isa.Inst
		addrs  []uint32
		cfg    func() Config
		cycles int64
	}{
		{
			// Four independent ALU ops: fetch width 2, two ALUs — two
			// dispatch rounds, last pair completes one cycle later.
			// Timeline: c0 dispatch {0,1}; c1 issue {0,1}, dispatch {2,3};
			// c2 done {0,1}, issue {2,3}; c3 retire {0,1}, done {2,3};
			// c4 retire {2,3}; c5 ROB observed empty.
			name:   "independent ALU pairs",
			insts:  []isa.Inst{alu(1, 0, 0), alu(2, 0, 0), alu(3, 0, 0), alu(4, 0, 0)},
			cycles: 5,
		},
		{
			// A serial dependency chain through r1..r4: each op waits for
			// the previous result (deps bit cleared by the completion
			// sweep), so issue is one per cycle despite two free ALUs.
			name:   "serial chain",
			insts:  []isa.Inst{alu(1, 0, 0), alu(2, 1, 0), alu(3, 2, 0), alu(4, 3, 0)},
			cycles: 7,
		},
		{
			// The same chain through virtual registers: fed without a
			// program, the producer table grows on demand and the
			// timing matches the architectural chain.
			name:   "serial chain, virtual registers",
			insts:  []isa.Inst{alu(40, 0, 0), alu(41, 40, 0), alu(42, 41, 0), alu(43, 42, 0)},
			cycles: 7,
		},
		{
			// Two independent chains interleave perfectly on the two ALUs:
			// six dependent ops finish only two cycles after four
			// independent ones, proving out-of-order wakeup.
			name: "interleaved chains",
			insts: []isa.Inst{
				alu(1, 0, 0), alu(10, 0, 0),
				alu(2, 1, 0), alu(11, 10, 0),
				alu(3, 2, 0), alu(12, 11, 0),
			},
			cycles: 6,
		},
		{
			// Store then load on the single memory port: the load issues
			// the cycle after the store regardless of address (the port
			// serializes them; the store completes in one cycle).
			name: "store then load",
			insts: []isa.Inst{
				{Op: isa.SW, Rs: 0, Rt: 0},
				{Op: isa.LW, Rd: 1, Rs: 0},
			},
			addrs:  []uint32{64, 128},
			cycles: 6,
		},
		{
			// The non-pipelined multiply unit: two MULs serialize on the
			// busy horizon (12 cycles each) even though both are ready.
			name: "muldiv serializes",
			insts: []isa.Inst{
				{Op: isa.MUL, Rd: 1, Rs: 0, Rt: 0},
				{Op: isa.MUL, Rd: 2, Rs: 0, Rt: 0},
			},
			cycles: 27,
		},
		{
			// A 2-entry ROB forces in-order everything: the second pair
			// cannot dispatch until the first retires.
			name: "tiny rob",
			cfg: func() Config {
				c := Default()
				c.ROBSize = 2
				return c
			},
			insts:  []isa.Inst{alu(1, 0, 0), alu(2, 0, 0), alu(3, 0, 0), alu(4, 0, 0)},
			cycles: 7,
		},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			cfg := Default()
			if tc.cfg != nil {
				cfg = tc.cfg()
			}
			p := feedInsts(cfg, tc.insts, tc.addrs)
			if got := stepUntilEmpty(p); got != tc.cycles {
				t.Errorf("cycles = %d, want %d", got, tc.cycles)
			}
			if p.issuedM != 0 || p.doneM != 0 || p.storeM != 0 || p.memM != 0 || p.muldivM != 0 {
				t.Errorf("scoreboard bitmaps not drained: issued=%b done=%b store=%b mem=%b muldiv=%b",
					p.issuedM, p.doneM, p.storeM, p.memM, p.muldivM)
			}
			if p.dispatched != int64(len(tc.insts)) {
				t.Errorf("dispatched %d insts, want %d", p.dispatched, len(tc.insts))
			}
		})
	}
}

// TestScoreboardMemoryOrdering: under a write-through hierarchy whose
// store misses block (no write buffer), a load overlapping an older
// pending store waits for the store's completion, while a disjoint load
// only waits for the store to issue — the conservative-forwarding rule
// the overlap scan in earlierStoresDone implements.
func TestScoreboardMemoryOrdering(t *testing.T) {
	// loadIssueCycle runs store→load and reports the cycle the load
	// (seq 1) starts executing.
	loadIssueCycle := func(loadAddr uint32) int64 {
		cfg := Default()
		mc := memhier.SingleLevel(2, 1, 16, 20)
		cfg.Mem = &mc
		p := newPipeline(cfg)
		mh, err := memhier.New(mc)
		if err != nil {
			t.Fatal(err)
		}
		p.mh = mh
		insts := []isa.Inst{
			{Op: isa.SW, Rs: 0, Rt: 0, ID: 0},
			{Op: isa.LW, Rd: 1, Rs: 0, ID: 1},
		}
		p.feed(sim.InstEvent{Inst: &insts[0], Addr: 64})
		p.feed(sim.InstEvent{Inst: &insts[1], Addr: loadAddr})
		for p.cycle < 1000 {
			if pos := 1 - p.head; pos >= 0 && pos < int64(p.robLen()) &&
				p.issuedM>>uint(pos)&1 == 1 {
				return p.cycle
			}
			if p.tail == p.head {
				break
			}
			p.step()
		}
		t.Fatalf("load never issued (addr %d)", loadAddr)
		return 0
	}
	overlap := loadIssueCycle(64)
	disjoint := loadIssueCycle(256)
	// The store's miss blocks for ~20 cycles with no write buffer; only
	// the overlapping load has to sit through it.
	if overlap < disjoint+10 {
		t.Errorf("overlapping load issued at cycle %d, disjoint at %d; want the overlap held back by the store's miss",
			overlap, disjoint)
	}
}

// TestScoreboardBitmapInvariants single-steps a dependent pair and checks
// the bitmap states cycle by cycle: dispatch sets the producer mask,
// completion folds into the done bitmap, retire shifts every mask right.
func TestScoreboardBitmapInvariants(t *testing.T) {
	p := newPipeline(Default())
	i0 := isa.Inst{Op: isa.ADD, Rd: 1, ID: 0}
	i1 := isa.Inst{Op: isa.ADD, Rd: 2, Rs: 1, ID: 1}
	p.feed(sim.InstEvent{Inst: &i0})
	p.feed(sim.InstEvent{Inst: &i1})

	p.step() // cycle 0: both dispatch
	if p.robLen() != 2 {
		t.Fatalf("after dispatch: rob=%d", p.robLen())
	}
	if p.at(0).deps != 0 {
		t.Errorf("producer has deps %b, want none", p.at(0).deps)
	}
	if p.at(1).deps != 1 {
		t.Errorf("consumer deps = %b, want bit 0 (its producer's position)", p.at(1).deps)
	}

	p.step() // cycle 1: producer issues; consumer blocked on deps
	if p.issuedM != 1 {
		t.Errorf("after cycle 1: issuedM = %b, want only the producer", p.issuedM)
	}

	p.step() // cycle 2: producer completes (done bitmap), consumer issues
	if p.doneM&1 == 0 {
		t.Errorf("after cycle 2: producer not in doneM (%b)", p.doneM)
	}
	if p.issuedM != 3 {
		t.Errorf("after cycle 2: issuedM = %b, want both issued", p.issuedM)
	}

	p.step() // cycle 3: producer retires; masks shift right
	if p.robLen() != 1 {
		t.Fatalf("after cycle 3: rob=%d, want 1", p.robLen())
	}
	if p.at(0).deps != 0 {
		t.Errorf("retired producer still in consumer deps: %b", p.at(0).deps)
	}
	if p.issuedM != 1 || p.doneM != 1 {
		t.Errorf("masks not shifted: issuedM=%b doneM=%b", p.issuedM, p.doneM)
	}

	p.drainAll()
	if p.robLen() != 0 || p.issuedM != 0 || p.doneM != 0 {
		t.Errorf("pipeline not drained: rob=%d issuedM=%b doneM=%b", p.robLen(), p.issuedM, p.doneM)
	}
}

// TestScoreboardROBWindowCap: the one-word scoreboard caps the ROB at 64
// entries; larger configurations are rejected up front.
func TestScoreboardROBWindowCap(t *testing.T) {
	cfg := Default()
	cfg.ROBSize = 65
	if _, err := Simulate(nil, cfg); err == nil {
		t.Fatal("ROBSize 65 accepted; the scoreboard window is one 64-bit word")
	}
	// The boundary itself must work (also exercised by TestROBSizeMatters).
	cfg.ROBSize = 64
	p := feedInsts(cfg, []isa.Inst{{Op: isa.ADD, Rd: 1}}, nil)
	if got := stepUntilEmpty(p); got <= 0 {
		t.Fatalf("64-entry ROB run produced %d cycles", got)
	}
}
