package main

import (
	"fmt"
	"time"
)

// metricSpec is a metric's name and unit as BENCHMARK.json declares it.
type metricSpec struct{ name, unit string }

// endToEnd are reported by every untraced run.
var endToEnd = []metricSpec{
	{"setup_s", "s"},
	{"mem_mb", "MiB"},
	{"eval_s", "s"},
	{"sim_ns_per_cycle", "ns/cycle"},
	{"miss_p50_ms", "ms"},
	{"hit_p50_ms", "ms"},
	{"sim_cycles", "cycles"},
	{"speedup_gm", "x"},
}

// perLayer are reported by every traced run. One a workload's path never
// reaches reads zero, and the run says why on standard error.
var perLayer = []metricSpec{
	{"experiments.tables_s", "s"},
	{"experiments.fig9_s", "s"},
	{"experiments.exceptions_s", "s"},
	{"experiments.memhier_s", "s"},
	{"dynsched.ns_per_cycle", "ns/cycle"},
	{"memhier.batch_ns_per_lane_cycle", "ns/cycle"},
	{"memhier.l1_misses", "count"},
	{"sim.exec_ns_per_cycle", "ns/cycle"},
	{"sim.predecode_us", "us"},
	{"sim.exec_call_us", "us"},
	{"sim.ref_us", "us"},
	{"artifact.decode_us", "us"},
	{"artifact.encode_us", "us"},
	{"boosting.simulate_rest_us", "us"},
	{"core.schedule_us", "us"},
	{"core.schedule_scalar_us", "us"},
	{"core.place_ratio", "share"},
	{"regalloc.allocate_us", "us"},
	{"prog.parse_us", "us"},
	{"profile.annotate_us", "us"},
	{"service.miss_rest_us", "us"},
	{"service.hit_us", "us"},
	{"service.hit_ratio", "share"},
	{"service.miss_p99_ms", "ms"},
	{"service.miss_p99_n", "count"},
	{"service.req_per_s", "1/s"},
	{"sim.boosted", "count"},
	{"sim.squashed", "count"},
	{"sim.squash_ratio", "share"},
	{"gc.cpu_share", "share"},
	{"alloc.bytes_per_unit", "B"},
	{"alloc.objects_per_unit", "count"},
	{"unaccounted_share", "share"},
	{"trace.overhead_share", "share"},
	{"fail.http", "count"},
	{"fail.verify", "count"},
	{"fail.digest", "count"},
	{"fail.cache", "count"},
}

// complete checks the run reported exactly the declared metrics with their
// units, reading zero (with a note) for a layer the workload never reached.
func (r *runState) complete() error {
	specs := endToEnd
	if r.cfg.trace {
		specs = perLayer
	}
	declared := map[string]bool{}
	for _, s := range specs {
		declared[s.name] = true
		m, ok := r.metrics[s.name]
		if !ok {
			r.set(s.name, 0, s.unit)
			r.note("%s not taken on %s: this workload's path does not reach that layer", s.name, r.cfg.workload)
			continue
		}
		if m.Unit != s.unit {
			return fmt.Errorf("metric %s has unit %q, want %q", s.name, m.Unit, s.unit)
		}
	}
	for name := range r.metrics {
		if !declared[name] {
			return fmt.Errorf("metric %s is not declared", name)
		}
	}
	return nil
}

// setEndToEnd reports the end-to-end metrics, every time at the
// reference clock: setup, one pass (eval), the two operations, and
// cycleTime, the time that simulated cycles were simulated in.
func (r *runState) setEndToEnd(setup time.Duration, memMiB float64, eval, cycleTime time.Duration, cycles int64,
	miss, hit time.Duration, speedup float64) {
	sc := r.clock.scale
	r.set("setup_s", secs(sc(setup)), "s")
	r.set("mem_mb", memMiB, "MiB")
	r.set("eval_s", secs(sc(eval)), "s")
	r.set("sim_cycles", float64(cycles), "cycles")
	r.set("sim_ns_per_cycle", float64(sc(cycleTime).Nanoseconds())/float64(cycles), "ns/cycle")
	r.set("miss_p50_ms", ms(sc(miss)), "ms")
	r.set("hit_p50_ms", ms(sc(hit)), "ms")
	r.set("speedup_gm", speedup, "x")
}

// setResultCounts reports the modelled machine's speculation counts, taken
// from the program's own results for one pass over the workload.
func (r *runState) setResultCounts(boosted, squashed int64) {
	r.set("sim.boosted", float64(boosted), "count")
	r.set("sim.squashed", float64(squashed), "count")
	share := 0.0
	if boosted > 0 {
		share = float64(squashed) / float64(boosted)
	}
	r.set("sim.squash_ratio", share, "share")
}
