package core

// Counter-based proof that the dataflow.Manager turns per-trace analysis
// recomputation into per-mutation recomputation, and that the cache never
// changes the schedule.

import (
	"testing"

	"boosting/internal/machine"
	"boosting/internal/prog"
	"boosting/internal/workloads"
)

// TestAnalysisCacheRecomputeCounts schedules a trace-heavy workload with
// the analysis cache on and off and compares the manager's counters:
// uncached scheduling recomputes the CFG for every trace selection
// (O(traces)), cached scheduling recomputes it only after structural
// mutations (O(edge splits)), and liveness recomputes are bounded by
// declared invalidations rather than trace count.
func TestAnalysisCacheRecomputeCounts(t *testing.T) {
	w, err := workloads.ByName("awk")
	if err != nil {
		t.Fatal(err)
	}
	master := benchMaster(t, w)
	model := machine.MinBoost3()

	_, cached, err := ScheduleWithStats(prog.Clone(master), model, Options{})
	if err != nil {
		t.Fatal(err)
	}
	_, uncached, err := ScheduleWithStats(prog.Clone(master), model, Options{uncachedAnalyses: true})
	if err != nil {
		t.Fatal(err)
	}
	procs := int64(len(master.ProcList()))

	if uncached.TracesFormed < 4 {
		t.Fatalf("workload too small to be meaningful: %d traces", uncached.TracesFormed)
	}
	// Uncached restores the old behavior: every trace selection starts
	// with Invalidate(KindAll), so dominators are rebuilt per trace.
	if uncached.Analysis.CFGComputes < uncached.TracesFormed {
		t.Errorf("uncached CFG computes = %d, want >= traces formed (%d)",
			uncached.Analysis.CFGComputes, uncached.TracesFormed)
	}
	// Cached: one initial build per proc plus one rebuild per structural
	// mutation batch — edge splits are the only structural edits.
	if max := procs + cached.EdgeSplits; cached.Analysis.CFGComputes > max {
		t.Errorf("cached CFG computes = %d, want <= procs+edge splits (%d+%d)",
			cached.Analysis.CFGComputes, procs, cached.EdgeSplits)
	}
	if cached.Analysis.CFGComputes >= uncached.Analysis.CFGComputes {
		t.Errorf("cached CFG computes = %d, not below uncached %d",
			cached.Analysis.CFGComputes, uncached.Analysis.CFGComputes)
	}
	// Every liveness recompute must be preceded by a declared mutation:
	// recomputations track mutating passes, not traces.
	if max := procs + cached.Analysis.Invalidations; cached.Analysis.LivenessComputes > max {
		t.Errorf("cached liveness computes = %d, want <= procs+invalidations (%d+%d)",
			cached.Analysis.LivenessComputes, procs, cached.Analysis.Invalidations)
	}
	if cached.Analysis.Hits == 0 {
		t.Error("cached scheduling recorded no analysis cache hits")
	}
	t.Logf("traces=%d cached: cfg=%d live=%d hits=%d inval=%d | uncached: cfg=%d live=%d",
		cached.TracesFormed, cached.Analysis.CFGComputes, cached.Analysis.LivenessComputes,
		cached.Analysis.Hits, cached.Analysis.Invalidations,
		uncached.Analysis.CFGComputes, uncached.Analysis.LivenessComputes)
}

// TestAnalysisCacheScheduleIdentity asserts byte-identical schedules with
// the cache on and off for every workload on a boosting and a
// non-boosting model: the analyses are pure functions of the IR, so
// serving them from cache must not change a single placement.
func TestAnalysisCacheScheduleIdentity(t *testing.T) {
	models := []*machine.Model{machine.NoBoost(), machine.Boost7()}
	for _, w := range workloads.All() {
		master := benchMaster(t, w)
		for _, model := range models {
			spc, err := Schedule(prog.Clone(master), model, Options{})
			if err != nil {
				t.Fatalf("%s/%s cached: %v", w.Name, model, err)
			}
			spu, err := Schedule(prog.Clone(master), model, Options{uncachedAnalyses: true})
			if err != nil {
				t.Fatalf("%s/%s uncached: %v", w.Name, model, err)
			}
			for name, pc := range spc.Procs {
				pu := spu.Procs[name]
				if pu == nil {
					t.Fatalf("%s/%s: uncached schedule lacks proc %s", w.Name, model, name)
					continue
				}
				if got, want := pc.Format(), pu.Format(); got != want {
					t.Errorf("%s/%s proc %s: cached and uncached schedules differ",
						w.Name, model, name)
				}
			}
		}
	}
}

// TestIncrementalLivenessExact schedules the 128 pool programs and every
// workload on every machine model with Options.checkLiveness, which
// compares each liveness result the scheduler reads (after the manager
// updated it for the blocks a trace rewrite or a compensation copy
// edited) with a full computation, and fails the schedule on any
// difference.
func TestIncrementalLivenessExact(t *testing.T) {
	var masters []*prog.Program
	for j := 0; j < asmPoolSize; j++ {
		masters = append(masters, asmPoolProgram(t, j))
	}
	for _, w := range workloads.All() {
		masters = append(masters, benchMaster(t, w))
	}
	models := append([]*machine.Model{machine.Scalar(), machine.NoBoost()}, machine.AllEvaluated()...)
	var traces, computes int64
	for i, master := range masters {
		for _, model := range models {
			for _, opts := range []Options{{checkLiveness: true}, {checkLiveness: true, DisableEquivalence: true}} {
				_, st, err := ScheduleWithStats(prog.Clone(master), model, opts)
				if err != nil {
					t.Fatalf("program %d on %s: %v", i, model, err)
				}
				traces += st.TracesFormed
				computes += st.Analysis.LivenessComputes
			}
		}
	}
	t.Logf("%d programs: %d traces, %d liveness computations checked", len(masters), traces, computes)
}
