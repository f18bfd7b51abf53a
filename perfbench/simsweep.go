package main

import (
	"context"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"runtime"
	"time"

	"boosting"
	"boosting/internal/core"
	"boosting/internal/machine"
	"boosting/internal/profile"
	"boosting/internal/prog"
	"boosting/internal/sim"
	"boosting/internal/workloads"
)

// sweepKeep is how many of each kernel's 25 (model × ablation) cells a
// seed keeps.
const sweepKeep = 20

// ablationOpts maps each boosting.Ablations() name to the scheduler options
// it sets, so a replay can find the cell's recorded schedule.
var ablationOpts = map[string]core.Options{
	"baseline":     {},
	"no-equiv":     {DisableEquivalence: true},
	"no-disamb":    {NoDisambiguation: true},
	"short-traces": {MaxTraceBlocks: 2},
	"local-only":   {LocalOnly: true},
}

func sweepModels() []*machine.Model {
	m := boosting.Models()
	return []*machine.Model{m.NoBoost, m.Squashing, m.Boost1, m.MinBoost3, m.Boost7}
}

// sweepCells picks the seed's cells from the 7 × 5 × 5
// AblationCells(Workloads(), NoBoost…Boost7) space: sweepKeep of each
// kernel's 25 cells, then all of them in a seeded order.
func sweepCells(seed int64) []boosting.GridCell {
	all := boosting.AblationCells(boosting.Workloads(), sweepModels())
	rng := rand.New(rand.NewSource(seed))
	per := len(all) / len(boosting.Workloads())
	var cells []boosting.GridCell
	for k := 0; k < len(all); k += per {
		for _, i := range rng.Perm(per)[:sweepKeep] {
			cells = append(cells, all[k+i])
		}
	}
	rng.Shuffle(len(cells), func(i, j int) { cells[i], cells[j] = cells[j], cells[i] })
	return cells
}

func cellKey(c boosting.GridCell) string {
	return c.Workload + "/" + c.Model.Name + "/" + c.Label
}

// sweepSetup compiles every kernel on a fresh Pipeline, simulates every
// cell once (recording each schedule on its kernel's compiled program)
// and encodes each kernel's Artifact. Each step's time goes to steps.
func sweepSetup(ctx context.Context, cells []boosting.GridCell, steps *samples, tr *tracer, unit int) ([][]byte, error) {
	p := boosting.NewPipeline()
	compiled := map[string]*boosting.Compiled{}
	for _, w := range boosting.Workloads() {
		t0 := time.Now()
		c, err := p.Compile(ctx, w)
		if err != nil {
			return nil, err
		}
		steps.add("compile/"+w, time.Since(t0))
		compiled[w] = c
	}
	for _, c := range cells {
		t0 := time.Now()
		if _, err := p.Simulate(ctx, compiled[c.Workload], c.Model, c.Opts...); err != nil {
			return nil, err
		}
		steps.add("simulate/"+cellKey(c), time.Since(t0))
	}
	var enc [][]byte
	for _, w := range boosting.Workloads() {
		t0 := time.Now()
		sp := tr.begin("artifact.encode", unit, -1)
		b, err := compiled[w].Artifact().Encode()
		tr.end(sp)
		if err != nil {
			return nil, fmt.Errorf("encode %s: %w", w, err)
		}
		steps.add("encode/"+w, time.Since(t0))
		enc = append(enc, b)
	}
	return enc, nil
}

// sweepUnit is what one sweep produced.
type sweepUnit struct {
	digest            uint64
	cycles            int64
	boosted, squashed int64
	speedups          []float64
	arts              map[string]*boosting.Artifact
}

// simSweep is the library sweep path: every unit is a fresh Pipeline that
// installs each kernel from its encoded Artifact (the cache-served
// operation) and then simulates every cell from the recorded schedules
// (the computing operation), with perfect memory and no scheduler pass.
func simSweep(ctx context.Context, r *runState) error {
	cells := sweepCells(r.cfg.seed)

	// Set-up time is the sum of each set-up step's fastest repetition
	// over several fresh set-ups.
	const setups = 6
	var (
		setupSteps = newSamples()
		enc        [][]byte
		peak       float64
	)
	setupUnit := r.unit()
	for i := 0; i < setups; i++ {
		r.clock.sample()
		runtime.GC()
		var tr *tracer
		if i == setups-1 {
			tr = r.tr
		}
		e, err := sweepSetup(ctx, cells, setupSteps, tr, setupUnit)
		if err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		enc = e
	}
	peak = liveHeapMiB()

	rp := &replayer{tr: r.tr}
	if r.tr != nil {
		rp.start(setupUnit)
		err := replaySweepSetup(rp, cells)
		rp.finish()
		if err != nil {
			return fmt.Errorf("set-up replay: %w", err)
		}
	}

	miss, hit := newSamples(), newSamples()
	plainUnits, tracedUnits := newSamples(), newSamples()
	var (
		alloc allocMeter
		first *sweepUnit
	)
	runtime.GC()
	since := readCounters()
	deadline := time.Now().Add(r.cfg.seconds)
	for n := 0; n < 2 || time.Now().Before(deadline); n++ {
		traced := r.tr != nil && n%2 == 1
		o := r.op()
		r.clock.sample()
		runtime.GC()
		unit := r.unit()
		alloc.begin()
		t0 := time.Now()
		var utr *tracer // spans only in traced units
		root := -1
		if traced {
			utr = r.tr
			root = r.tr.begin("unit", unit, -1)
		}
		p := boosting.NewPipeline()
		su, err := runSweepUnit(ctx, p, cells, enc, utr, unit, root, hit, miss, !traced)
		d := time.Since(t0)
		r.tr.end(root)
		alloc.end()
		if o.fail("verify", err) {
			continue
		}
		if traced {
			tracedUnits.add("sweep", d)
		} else {
			plainUnits.add("sweep", d)
		}
		if passes := p.SchedulePasses(); passes != 0 {
			o.fail("cache", fmt.Errorf("sweep ran %d scheduler passes; every schedule should come from its artifact", passes))
		}
		if first == nil {
			first = su
			if mb := liveHeapMiB(); mb > peak {
				peak = mb
			}
		} else if su.digest != first.digest {
			o.fail("digest", errDigest)
		}
		runtime.KeepAlive(p)
		if traced {
			rp.start(unit)
			if err := replaySweepUnit(rp, cells, su.arts); err != nil {
				o.fail("verify", fmt.Errorf("replay: %w", err))
			}
			rp.finish()
		}
	}
	if first == nil {
		return fmt.Errorf("every sweep failed")
	}

	if r.tr != nil {
		r.setRuntimeMetrics(&alloc, since)
		r.setResultCounts(first.boosted, first.squashed)
		lt := r.tr.selfTimes()
		// Simulate minus the replayed predecode, exec and verify of the
		// same cells leaves the memo and variant lookups.
		simulate := lt["boosting.simulate"]
		var replayed time.Duration
		for _, s := range r.tr.spans {
			if s.Unit != setupUnit && (s.Name == "sim.predecode" || s.Name == "sim.exec" || s.Name == "verify") {
				replayed += s.dur()
			}
		}
		if simulate.n > 0 {
			r.set("boosting.simulate_rest_us", us(simulate.total-replayed)/float64(simulate.n), "us")
		}
		r.setLayerMetrics(rp, map[string]bool{"boosting.simulate": true},
			minDur(plainUnits.pooled()), minDur(tracedUnits.pooled()))
		return nil
	}
	// Installs are per kernel: their mean stands in for the median, as on
	// paper-eval.
	eval := hit.fastestSum() + miss.fastestSum()
	r.setEndToEnd(setupSteps.fastestSum(), peak, eval, eval, first.cycles,
		miss.fastestMedian(), hit.fastestMean(), geoMean(first.speedups))
	return nil
}

// runSweepUnit installs every kernel from its artifact and simulates every
// cell on p. Operation times go to hit (installs) and miss (simulations)
// when record is set.
func runSweepUnit(ctx context.Context, p *boosting.Pipeline, cells []boosting.GridCell, enc [][]byte,
	tr *tracer, unit, root int, hit, miss *samples, record bool) (*sweepUnit, error) {
	su := &sweepUnit{arts: map[string]*boosting.Artifact{}}
	compiled := map[string]*boosting.Compiled{}
	for _, b := range enc {
		t0 := time.Now()
		sp := tr.begin("artifact.decode", unit, root)
		a, err := boosting.DecodeArtifact(b)
		tr.end(sp)
		if err != nil {
			return nil, err
		}
		sp = tr.begin("boosting.compile_from_artifact", unit, root)
		c, err := p.CompileFromArtifact(ctx, a)
		tr.end(sp)
		if err != nil {
			return nil, err
		}
		if record {
			hit.add(c.Workload, time.Since(t0))
		}
		compiled[c.Workload], su.arts[c.Workload] = c, a
	}
	h := fnv.New64a()
	for _, c := range cells {
		t0 := time.Now()
		sp := tr.begin("boosting.simulate", unit, root)
		res, err := p.Simulate(ctx, compiled[c.Workload], c.Model, c.Opts...)
		tr.end(sp)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", cellKey(c), err)
		}
		if record {
			miss.add(cellKey(c), time.Since(t0))
		}
		fmt.Fprintf(h, "%s %d %d %d %d %x %v\n", cellKey(c), res.Cycles, res.ScalarCycles, res.BoostedExec,
			res.Squashed, math.Float64bits(res.Speedup), res.Out)
		su.cycles += res.Cycles
		su.boosted += res.BoostedExec
		su.squashed += res.Squashed
		su.speedups = append(su.speedups, res.Speedup)
	}
	su.digest = h.Sum64()
	return su, nil
}

// replaySweepSetup mirrors the set-up's Pipeline calls: Compile for every
// kernel, then each cell's Simulate (schedule, exec, verify), with the
// kernel's scalar baseline scheduled and run on its first cell.
func replaySweepSetup(rp *replayer, cells []boosting.GridCell) error {
	type kernel struct {
		test *prog.Program
		ref  *sim.Result
	}
	masters := map[string]*kernel{}
	for _, name := range boosting.Workloads() {
		w, err := workloads.ByName(name)
		if err != nil {
			return err
		}
		test, ref, err := rp.compile(w, true)
		if err != nil {
			return err
		}
		if rp.span("profile.accuracy", func() { _, err = profile.Accuracy(test) }); err != nil {
			return err
		}
		masters[name] = &kernel{test, ref}
	}
	scalarDone := map[string]bool{}
	for _, c := range cells {
		k := masters[c.Workload]
		if err := rp.schedExec(k.test, c.Model, ablationOpts[c.Label], k.ref); err != nil {
			return err
		}
		if !scalarDone[c.Workload] {
			scalarDone[c.Workload] = true
			if err := rp.schedExec(k.test, machine.Scalar(), core.Options{LocalOnly: true}, k.ref); err != nil {
				return err
			}
		}
	}
	return nil
}

// replaySweepUnit mirrors each Simulate of a sweep unit: the recorded
// schedule is predecoded, executed and verified.
func replaySweepUnit(rp *replayer, cells []boosting.GridCell, arts map[string]*boosting.Artifact) error {
	for _, c := range cells {
		a := arts[c.Workload]
		v := a.FindVariant(c.Model, ablationOpts[c.Label])
		if v == nil {
			return fmt.Errorf("%s: no recorded schedule", cellKey(c))
		}
		ref := &sim.Result{Out: a.Ref.Out, MemHash: a.Ref.MemHash}
		if _, err := rp.exec(v.Sched, sim.ExecConfig{}, ref); err != nil {
			return fmt.Errorf("%s: %w", cellKey(c), err)
		}
	}
	return nil
}
