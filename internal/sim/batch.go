package sim

import (
	"fmt"

	"boosting/internal/machine"
	"boosting/internal/memhier"
)

// This file is the lockstep batch front end of the fast core: N
// independent lanes of the same predecoded program, each with its own
// fastState (registers, shadow file, store buffer, memory, memory
// hierarchy), advanced one superblock round per lane per turn. The
// program's dense arrays are shared and stay hot across lanes, so the
// dispatch/icache cost of the schedule is paid once per round instead of
// once per input; every lane still runs exactly the solo code path
// ((*fastState).step), so lane i's result and error are byte-identical to
// pd.Exec(cfgs[i]) by construction — a property the golden batch digests
// and the difftest "/batch" axis enforce.

// ExecBatch predecodes sp once and runs one lane per config over it in
// one lockstep pass. results[i]/errs[i] mirror what Exec(sp, cfgs[i])
// would return, slot for slot.
func ExecBatch(sp *machine.SchedProgram, cfgs []ExecConfig) (results []*ExecResult, errs []error) {
	pd, err := Predecode(sp)
	if err != nil {
		errs = make([]error, len(cfgs))
		for i := range errs {
			errs[i] = err
		}
		return make([]*ExecResult, len(cfgs)), errs
	}
	return pd.ExecBatch(cfgs)
}

// ExecBatch runs one lane per config in lockstep. Lane i's result and
// error are exactly those of pd.Exec(cfgs[i]); lanes that fail (setup
// error, fault, cycle budget) retire early while the rest continue.
// Like Exec it is safe to call concurrently on the same Predecoded value;
// the cfgs slice is retained until the call returns.
func (pd *Predecoded) ExecBatch(cfgs []ExecConfig) (results []*ExecResult, errs []error) {
	n := len(cfgs)
	results = make([]*ExecResult, n)
	errs = make([]error, n)
	lanes := make([]*fastState, n)
	curs := make([]int32, n)
	live := 0
	for i := range cfgs {
		var mh *memhier.Hierarchy
		if cfgs[i].Mem != nil {
			var err error
			if mh, err = memhier.New(*cfgs[i].Mem); err != nil {
				// Mirrors Exec: a hierarchy-construction error yields no
				// result at all, not a partial one.
				errs[i] = err
				continue
			}
		}
		fs := getFastState(pd, &cfgs[i])
		fs.mh = mh
		results[i] = fs.res
		if fb := &pd.blocks[pd.entry]; !fb.scheduled {
			errs[i] = fmt.Errorf("sim: no schedule for %s block B%d", fb.proc, fb.id)
			putFastState(fs)
			continue
		}
		lanes[i] = fs
		curs[i] = pd.entry
		live++
	}
	for live > 0 {
		for i, fs := range lanes {
			if fs == nil {
				continue
			}
			next, done, err := fs.step(curs[i])
			if done || err != nil {
				errs[i] = err
				lanes[i] = nil
				putFastState(fs)
				live--
				continue
			}
			curs[i] = next
		}
	}
	return results, errs
}
