package core

// Every motion-rejection bucket in RejectReasons() is exercised here, so
// a rejection path can never silently stop reporting. Ten buckets are
// reachable through Schedule on real inputs (workloads, or small crafted
// kernels for the two that need a specific CFG shape); the remaining
// three guard conditions the trace selector already rules out, so they
// are hit by calling planMotion directly on hand-built trace states.
// TestRejectionBucketsComplete cross-checks that the union of both tests
// covers the full RejectReasons() list.

import (
	"testing"

	"boosting/internal/dataflow"
	"boosting/internal/ddg"
	"boosting/internal/machine"
	"boosting/internal/profile"
	"boosting/internal/prog"
	"boosting/internal/workloads"
)

// programBuckets maps each scheduler-reachable rejection reason to one
// deterministic (program, model, options) cell known to hit it.
var programBuckets = []struct {
	reason   string
	workload string // built via benchMaster; empty when asm is set
	asm      string // parsed + self-profiled; empty when workload is set
	model    *machine.Model
	opts     Options
}{
	{reason: RejectSlotLegality, workload: "awk", model: machine.NoBoost()},
	{reason: RejectDependence, workload: "awk", model: machine.NoBoost()},
	{reason: RejectMemoryDep, workload: "awk", model: machine.NoBoost()},
	{reason: RejectShadowLimit, workload: "awk", model: machine.NoBoost()},
	{reason: RejectSquashZone, workload: "awk", model: machine.Squashing()},
	{reason: RejectStoreBuffer, workload: "awk", model: machine.MinBoost3(),
		opts: Options{MaxTraceBlocks: 2}},
	{reason: RejectCompCost, workload: "compress", model: machine.NoBoost()},
	{reason: RejectCompBoost, workload: "grep", model: machine.MinBoost3()},
	{reason: RejectBoostedLoad, workload: "awk", model: machine.MinBoost3(),
		opts: Options{NoBoostedLoads: true}},

	// OUT is ready and slot-legal for the hole in entry's branch cycle,
	// but sits below a conditional branch: observable output is never
	// speculated.
	{reason: RejectObservableOut, model: machine.MinBoost3(), asm: `
.proc main
entry:
	li v1, 1
	bgtz v1, hot, cold
hot:
	out v1
	j done
cold:
	j done
done:
	halt
`},
	// Two loads of v3 boosted toward entry with different committing
	// branches: on single-shadow hardware (MinBoost3) the second in-flight
	// v3 conflicts with the first (Figure 6c). The add chain keeps entry's
	// memory slots empty so both motions are attempted.
	{reason: RejectShadowConflict, model: machine.MinBoost3(), asm: `
.word 5
.word 6
.proc main
entry:
	li v1, 0x10000
	li v2, 1
	add v9, v2, v2
	add v10, v9, v9
	bgtz v2, a, c1
a:
	lw v3, 0(v1)
	bgtz v2, b, c2
b:
	lw v3, 4(v1)
	out v3
	j done
c1:
	j done
c2:
	j done
done:
	halt
`},
}

// TestRejectionBuckets schedules each cell and asserts its bucket
// increments in the reported stats. Scheduling is deterministic, so a
// cell that stops producing its reason signals a behavior change.
func TestRejectionBuckets(t *testing.T) {
	for _, tc := range programBuckets {
		name := tc.reason
		t.Run(name, func(t *testing.T) {
			var pr *prog.Program
			if tc.workload != "" {
				w, err := workloads.ByName(tc.workload)
				if err != nil {
					t.Fatal(err)
				}
				pr = prog.Clone(benchMaster(t, w))
			} else {
				var err error
				pr, err = prog.Parse(tc.asm)
				if err != nil {
					t.Fatalf("parse: %v", err)
				}
				if err := profile.Annotate(pr); err != nil {
					t.Fatalf("profile: %v", err)
				}
			}
			_, st, err := ScheduleWithStats(pr, tc.model, tc.opts)
			if err != nil {
				t.Fatalf("schedule: %v", err)
			}
			if st.Rejections[tc.reason] == 0 {
				t.Errorf("Rejections[%s] = 0, want > 0 (got %v)", tc.reason, st.Rejections)
			}
		})
	}
}

// parseTrace parses asm, computes its profile, and returns a synthetic
// trace over main's blocks at the given indices plus a planMotion-ready
// scheduler and trace state. Used to reach the defensive rejection paths
// the trace selector never produces.
func parseTrace(t *testing.T, asm string, model *machine.Model, blockIdx ...int) (*scheduler, *traceState) {
	t.Helper()
	pr, err := prog.Parse(asm)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	p := pr.ProcList()[0]
	trace := make([]*prog.Block, len(blockIdx))
	for i, bi := range blockIdx {
		trace[i] = p.Blocks[bi]
	}
	s := &scheduler{
		pr:        pr,
		p:         p,
		model:     model,
		opts:      Options{},
		stats:     NewStats(),
		am:        dataflow.NewManager(p),
		scheduled: map[int]bool{},
		splits:    map[splitKey]*prog.Block{},
	}
	st := newTraceState(trace, ddg.Build(trace, ddg.Options{}), model.IssueWidth)
	return s, st
}

// nodeAt returns the graph node for instruction ii of trace block bi.
func nodeAt(t *testing.T, st *traceState, bi, ii int) *ddg.Node {
	t.Helper()
	k := 0
	for _, n := range st.g.Nodes {
		if n.BlockIdx != bi {
			continue
		}
		if k == ii {
			return n
		}
		k++
	}
	t.Fatalf("no node %d in trace block %d", ii, bi)
	return nil
}

// TestRejectionDefensiveBuckets drives planMotion directly on trace
// states the selector cannot produce, pinning the three guard buckets:
//
//   - call-boundary: selectTrace ends every trace AT a call/return/halt
//     block, so no trace ever has one interior; the guard still rejects a
//     synthetic trace that crosses one.
//   - terminator-operand: via bestForeign the mover always sits below the
//     branch that would read its destination, making branches >= 1 and
//     routing the conflict to the boosted-upgrade path instead; only a
//     same-block (bi == oi) motion reaches the branches == 0 reject.
//   - shadow-visibility: in-trace producers are never left with more
//     uncommitted shadow levels than a consumer boosted across the same
//     branches can see, so the reject needs a hand-planted deep-level
//     producer placement.
func TestRejectionDefensiveBuckets(t *testing.T) {
	t.Run(RejectCallBoundary, func(t *testing.T) {
		s, st := parseTrace(t, `
.proc main
entry:
	li v1, 1
	halt
after:
	add v2, v1, v1
	halt
`, machine.MinBoost3(), 0, 1)
		n := nodeAt(t, st, 1, 0) // the add, below entry's halt
		plan, why := s.planMotion(st, n, 0, false)
		if plan != nil || why != RejectCallBoundary {
			t.Fatalf("planMotion = (%v, %q), want (nil, %q)", plan, why, RejectCallBoundary)
		}
	})

	t.Run(RejectTermOperand, func(t *testing.T) {
		s, st := parseTrace(t, `
.proc main
entry:
	li v1, 1
	bgtz v1, a, b
a:
	j done
b:
	j done
done:
	halt
`, machine.MinBoost3(), 0)
		n := nodeAt(t, st, 0, 0) // li v1: defines the branch operand
		plan, why := s.planMotion(st, n, 0, false)
		if plan != nil || why != RejectTermOperand {
			t.Fatalf("planMotion = (%v, %q), want (nil, %q)", plan, why, RejectTermOperand)
		}
	})

	t.Run(RejectShadowVisibility, func(t *testing.T) {
		s, st := parseTrace(t, `
.word 7
.proc main
entry:
	li v1, 0x10000
	li v2, 1
	bgtz v2, a, off
a:
	lw v3, 0(v1)
	lw v5, 0(v3)
	add v6, v3, v3
	j done
off:
	j done
done:
	halt
`, machine.MinBoost3(), 0, 1)
		// Plant the producing load in entry with three uncommitted shadow
		// levels; any consumer boosted across entry's single branch sees
		// at most level 1 < 3.
		producer := nodeAt(t, st, 1, 0)
		st.mark(producer, placement{blockIdx: 0, level: 3})

		load := nodeAt(t, st, 1, 1) // lw v5, 0(v3): needs boosting itself
		plan, why := s.planMotion(st, load, 0, false)
		if plan != nil || why != RejectShadowVisibility {
			t.Fatalf("boosted consumer: planMotion = (%v, %q), want (nil, %q)",
				plan, why, RejectShadowVisibility)
		}

		add := nodeAt(t, st, 1, 2) // add v6, v3, v3: safe, upgrade path
		plan, why = s.planMotion(st, add, 0, false)
		if plan != nil || why != RejectShadowVisibility {
			t.Fatalf("upgraded consumer: planMotion = (%v, %q), want (nil, %q)",
				plan, why, RejectShadowVisibility)
		}
	})
}

// TestRejectionBucketsComplete asserts the two tests above jointly cover
// every bucket RejectReasons() knows about, so adding a bucket without a
// test fails here.
func TestRejectionBucketsComplete(t *testing.T) {
	covered := map[string]bool{
		RejectCallBoundary:     true, // TestRejectionDefensiveBuckets
		RejectTermOperand:      true, // TestRejectionDefensiveBuckets
		RejectShadowVisibility: true, // TestRejectionDefensiveBuckets
	}
	for _, tc := range programBuckets {
		covered[tc.reason] = true
	}
	for _, r := range RejectReasons() {
		if !covered[r] {
			t.Errorf("rejection bucket %q has no test exercising it", r)
		}
	}
	if got, want := len(covered), len(RejectReasons()); got != want {
		t.Errorf("tests cover %d buckets, RejectReasons() has %d", got, want)
	}
}
