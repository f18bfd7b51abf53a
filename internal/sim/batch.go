package sim

import (
	"errors"

	"boosting/internal/machine"
	"boosting/internal/memhier"
)

// ExecBatch predecodes sp once and runs it under every config (see
// (*Predecoded).ExecBatch); a predecode error fills every slot.
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

// errBatchConfigs fills every slot of a batch whose configs differ in
// more than Mem or set a callback: the batch executes the program once,
// so its configs must agree on everything that execution depends on.
var errBatchConfigs = errors.New("sim: batched configs may differ only in Mem and may set no callbacks")

// ExecBatch executes the program once and carries one timing lane per
// config: the functional work (operand reads, ALU, shadow file, store
// buffer, memory, control flow) is paid once, and only the cycle count,
// interlocks and memory hierarchy are paid per config. results[i]/errs[i]
// are what Exec(cfgs[i]) would return, slot for slot: a lane that runs
// over its cycle budget retires with its partial result while the others
// run on, and a config whose Mem is invalid gets no result. The configs
// must agree on everything but Mem (a one-config batch is Exec). Like
// Exec it is safe to call concurrently on the same Predecoded value.
func (pd *Predecoded) ExecBatch(cfgs []ExecConfig) (results []*ExecResult, errs []error) {
	results, errs = make([]*ExecResult, len(cfgs)), make([]error, len(cfgs))
	if len(cfgs) > 1 && !sharable(cfgs) {
		for i := range errs {
			errs[i] = errBatchConfigs
		}
		return results, errs
	}
	var fs *fastState
	for i := range cfgs {
		var mh *memhier.Hierarchy
		if cfgs[i].Mem != nil {
			var err error
			if mh, err = memhier.New(*cfgs[i].Mem); err != nil {
				errs[i] = err
				continue
			}
		}
		if fs == nil {
			fs = getFastState(pd, &cfgs[i], mh, i)
		} else {
			fs.addLane(mh, i)
		}
	}
	if fs != nil {
		fs.results, fs.errs = results, errs
		fs.run()
		putFastState(fs)
	}
	return results, errs
}

// sharable reports whether cfgs agree on everything but Mem and set no
// callbacks.
func sharable(cfgs []ExecConfig) bool {
	for i := range cfgs {
		c := &cfgs[i]
		if c.MaxCycles != cfgs[0].MaxCycles || c.Inject != cfgs[0].Inject ||
			c.OnFault != nil || c.OnStore != nil || c.OnBlock != nil || c.OnSquash != nil {
			return false
		}
	}
	return true
}
