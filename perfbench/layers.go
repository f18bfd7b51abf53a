package main

import (
	"fmt"
	"time"

	"boosting/internal/core"
	"boosting/internal/dynsched"
	"boosting/internal/machine"
	"boosting/internal/profile"
	"boosting/internal/prog"
	"boosting/internal/regalloc"
	"boosting/internal/sim"
	"boosting/internal/workloads"
)

// replayer re-executes a traced unit's work through the layers' public
// functions, in the order and with the options the program uses, one span
// per call. Replays run after the unit's root span has closed, so their
// time never lands in a root span; each replay hangs under a "replay"
// root carrying the unit's id.
type replayer struct {
	tr   *tracer
	unit int
	root int

	// Counts taken from replayed results, summed over the run.
	execCalls         int
	execCallTime      time.Duration // predecode + exec of solo calls
	execCycles        int64
	laneCycles        int64
	l1Misses          int64
	dynCycles         int64
	placed, attempted int64
}

func (rp *replayer) start(unit int) {
	rp.unit = unit
	rp.root = rp.tr.begin("replay", unit, -1)
}

func (rp *replayer) finish() { rp.tr.end(rp.root) }

func (rp *replayer) span(name string, fn func()) time.Duration {
	i := rp.tr.begin(name, rp.unit, rp.root)
	fn()
	rp.tr.end(i)
	return rp.tr.spans[i].dur()
}

// compile mirrors experiments.Store's pair and reference steps and
// boosting.Pipeline.Compile: build the train and test inputs,
// register-allocate both (unless infinite registers), profile the
// training run, transfer its predictions, and run the reference
// interpreter on the test program.
func (rp *replayer) compile(w *workloads.Workload, alloc bool) (*prog.Program, *sim.Result, error) {
	var train, test *prog.Program
	rp.span("workloads.build", func() { train, test = w.BuildTrain(), w.BuildTest() })
	var err error
	if alloc {
		for _, p := range []*prog.Program{train, test} {
			if rp.span("regalloc.allocate", func() { _, err = regalloc.Allocate(p) }); err != nil {
				return nil, nil, fmt.Errorf("%s: regalloc: %w", w.Name, err)
			}
		}
	}
	if rp.span("profile.annotate", func() { err = profile.Annotate(train) }); err != nil {
		return nil, nil, fmt.Errorf("%s: profile: %w", w.Name, err)
	}
	if rp.span("profile.transfer", func() { err = profile.Transfer(train, test) }); err != nil {
		return nil, nil, fmt.Errorf("%s: transfer: %w", w.Name, err)
	}
	var ref *sim.Result
	if rp.span("sim.ref", func() { ref, err = sim.Run(test, sim.RefConfig{}) }); err != nil {
		return nil, nil, fmt.Errorf("%s: reference: %w", w.Name, err)
	}
	return test, ref, nil
}

// schedule clones the master program and schedules the clone, as every
// caller of the scheduler does.
func (rp *replayer) schedule(master *prog.Program, model *machine.Model, opts core.Options) (*machine.SchedProgram, error) {
	var test *prog.Program
	rp.span("prog.clone", func() { test = prog.Clone(master) })
	name := "core.schedule"
	if model.Name == machine.Scalar().Name {
		name = "core.schedule_scalar"
	}
	var (
		sp  *machine.SchedProgram
		st  *core.Stats
		err error
	)
	if rp.span(name, func() { sp, st, err = core.ScheduleWithStats(test, model, opts) }); err != nil {
		return nil, fmt.Errorf("schedule %s: %w", model.Name, err)
	}
	rp.placed += st.MotionsPlaced
	rp.attempted += st.MotionsAttempted
	return sp, nil
}

// exec mirrors sim.Exec on the fast core: predecode, then execute, and
// verifies the run against the reference.
func (rp *replayer) exec(sp *machine.SchedProgram, cfg sim.ExecConfig, ref *sim.Result) (*sim.ExecResult, error) {
	var (
		pd  *sim.Predecoded
		res *sim.ExecResult
		err error
	)
	d := rp.span("sim.predecode", func() { pd, err = sim.Predecode(sp) })
	if err != nil {
		return nil, err
	}
	d += rp.span("sim.exec", func() { res, err = pd.Exec(cfg) })
	if err != nil {
		return nil, err
	}
	rp.execCalls++
	rp.execCallTime += d
	rp.execCycles += res.Cycles
	return res, rp.verify(ref, res.Out, res.MemHash)
}

// schedExec mirrors experiments.Store.scheduleAndExec.
func (rp *replayer) schedExec(master *prog.Program, model *machine.Model, opts core.Options, ref *sim.Result) error {
	sp, err := rp.schedule(master, model, opts)
	if err != nil {
		return err
	}
	_, err = rp.exec(sp, sim.ExecConfig{}, ref)
	return err
}

// batch mirrors experiments.Store.measureMemBatch: one schedule, one
// predecode, and every memory hierarchy as a lane of one lockstep pass.
func (rp *replayer) batch(master *prog.Program, model *machine.Model, opts core.Options, cfgs []sim.ExecConfig, ref *sim.Result) error {
	sp, err := rp.schedule(master, model, opts)
	if err != nil {
		return err
	}
	var pd *sim.Predecoded
	if rp.span("sim.predecode", func() { pd, err = sim.Predecode(sp) }); err != nil {
		return err
	}
	var (
		results []*sim.ExecResult
		errs    []error
	)
	rp.span("memhier.batch", func() { results, errs = pd.ExecBatch(cfgs) })
	for i, res := range results {
		if errs[i] != nil {
			return errs[i]
		}
		rp.laneCycles += res.Cycles
		if res.Mem != nil {
			rp.l1Misses += res.Mem.L1Misses
		}
		if err := rp.verify(ref, res.Out, res.MemHash); err != nil {
			return err
		}
	}
	return nil
}

// dyn mirrors experiments.Store.dynMeasure without prescheduling.
func (rp *replayer) dyn(master *prog.Program, renaming bool, ref *sim.Result) error {
	var test *prog.Program
	rp.span("prog.clone", func() { test = prog.Clone(master) })
	cfg := dynsched.Default()
	cfg.Renaming = renaming
	var (
		res *dynsched.Result
		err error
	)
	if rp.span("dynsched.simulate", func() { res, err = dynsched.Simulate(test, cfg) }); err != nil {
		return err
	}
	rp.dynCycles += res.Cycles
	return rp.verify(ref, res.Out, res.MemHash)
}

// verify is the comparison every simulating caller makes against the
// reference interpreter's output and final memory.
func (rp *replayer) verify(ref *sim.Result, out []uint32, memHash uint64) error {
	var err error
	rp.span("verify", func() { err = sameRun(ref, out, memHash) })
	return err
}

func sameRun(ref *sim.Result, out []uint32, memHash uint64) error {
	if len(out) != len(ref.Out) {
		return fmt.Errorf("verification failed: %d outputs, want %d", len(out), len(ref.Out))
	}
	for i := range out {
		if out[i] != ref.Out[i] {
			return fmt.Errorf("verification failed: out[%d] = %d, want %d", i, out[i], ref.Out[i])
		}
	}
	if memHash != ref.MemHash {
		return fmt.Errorf("verification failed: final memory differs")
	}
	return nil
}

// setLayerMetrics reports the per-layer metrics the spans and the replay
// counts give. plain and traced are the workload's headline time from its
// untraced and its traced units, whose difference is the tracing overhead.
func (r *runState) setLayerMetrics(rp *replayer, containers map[string]bool, plain, traced time.Duration) {
	lt := r.tr.selfTimes()
	perCall := func(name, spanName string) {
		if l := lt[spanName]; l.n > 0 {
			r.set(name, us(l.self)/float64(l.n), "us")
		}
	}
	perCall("prog.parse_us", "prog.parse")
	perCall("regalloc.allocate_us", "regalloc.allocate")
	perCall("profile.annotate_us", "profile.annotate")
	perCall("sim.ref_us", "sim.ref")
	perCall("sim.predecode_us", "sim.predecode")
	perCall("core.schedule_us", "core.schedule")
	perCall("core.schedule_scalar_us", "core.schedule_scalar")
	perCall("artifact.decode_us", "artifact.decode")
	perCall("artifact.encode_us", "artifact.encode")

	perCycle := func(name, spanName string, cycles int64) {
		if cycles > 0 {
			r.set(name, float64(lt[spanName].self.Nanoseconds())/float64(cycles), "ns/cycle")
		}
	}
	perCycle("sim.exec_ns_per_cycle", "sim.exec", rp.execCycles)
	perCycle("dynsched.ns_per_cycle", "dynsched.simulate", rp.dynCycles)
	perCycle("memhier.batch_ns_per_lane_cycle", "memhier.batch", rp.laneCycles)

	if rp.execCalls > 0 {
		r.set("sim.exec_call_us", us(rp.execCallTime)/float64(rp.execCalls), "us")
	}
	if rp.attempted > 0 {
		r.set("core.place_ratio", float64(rp.placed)/float64(rp.attempted), "share")
	}

	unitSum, layerSum := r.tr.unaccountedParts(containers)
	share := 0.0
	if unitSum > 0 {
		share = float64(unitSum-layerSum) / float64(unitSum)
	}
	r.set("unaccounted_share", share, "share")
	overhead := 0.0
	if plain > 0 {
		overhead = float64(traced-plain) / float64(plain)
	}
	r.set("trace.overhead_share", overhead, "share")
	r.setFailCounts()
}

// unaccountedParts returns, over every unit that has both a "unit" root
// and a replay, the summed duration of the unit roots and the summed self
// time of the layer spans: every non-root span of the unit and its replay
// except containers, the spans whose work the replay decomposes.
func (t *tracer) unaccountedParts(containers map[string]bool) (unitSum, layerSum time.Duration) {
	hasUnit, hasReplay := map[int]bool{}, map[int]bool{}
	children := map[int][]int{}
	for i, s := range t.spans {
		switch {
		case s.Parent >= 0:
			children[s.Parent] = append(children[s.Parent], i)
		case s.Name == "unit":
			hasUnit[s.Unit] = true
		case s.Name == "replay":
			hasReplay[s.Unit] = true
		}
	}
	for i, s := range t.spans {
		switch {
		case !hasUnit[s.Unit] || !hasReplay[s.Unit]:
		case s.Parent < 0:
			if s.Name == "unit" {
				unitSum += s.dur()
			}
		case !containers[s.Name]:
			layerSum += s.dur() - t.covered(s, children[i])
		}
	}
	return unitSum, layerSum
}
