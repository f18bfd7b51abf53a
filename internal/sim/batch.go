package sim

import "boosting/internal/machine"

// ExecBatch predecodes sp once and runs it under each config in turn.
// results[i]/errs[i] are what Exec(sp, cfgs[i]) would return, slot for
// slot; a predecode error fills every slot.
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

// ExecBatch runs pd.Exec once per config, in order. Like Exec it is safe
// to call concurrently on the same Predecoded value.
func (pd *Predecoded) ExecBatch(cfgs []ExecConfig) (results []*ExecResult, errs []error) {
	results = make([]*ExecResult, len(cfgs))
	errs = make([]error, len(cfgs))
	for i, cfg := range cfgs {
		results[i], errs[i] = pd.Exec(cfg)
	}
	return results, errs
}
