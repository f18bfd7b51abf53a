// Package passes structures the compile side as an explicit pass
// pipeline: a Manager runs named, individually timed passes — workload
// build, register allocation, profiling, trace scheduling — over a
// program and reports structured PassStats for each. The trace-scheduling
// pass expands into its per-stage rows (trace-select, ddg-build,
// list-schedule, recovery-emit) and carries the scheduler's full counter
// set (motions, rejections by reason, boosting depth, compensation,
// recovery, analysis-cache activity) from core.ScheduleWithStats.
//
// The manager imposes no fixed pass list: callers sequence passes to
// match their flow (boosting.Pipeline's CompileAsm interleaves a bounded
// reference run between regalloc and profiling; its workload compile
// runs the reference last), and every pass lands in the same stats
// schema. With VerifyEach set,
// the prog verifier runs after every pass, turning a pass that corrupts
// the CFG into an immediate, named failure instead of a downstream
// mystery.
package passes

import (
	"fmt"
	"time"

	"boosting/internal/core"
	"boosting/internal/machine"
	"boosting/internal/prog"
)

// PassStats is one row of a compile report: a named pass (or scheduler
// stage) and its wall time. The "schedule" row additionally carries the
// trace scheduler's full counter set.
type PassStats struct {
	Name    string  `json:"name"`
	Seconds float64 `json:"seconds"`
	// Sched is set only on the "schedule" row: the scheduler's motion,
	// rejection, boosting, compensation, recovery and analysis-cache
	// counters.
	Sched *core.Stats `json:"sched,omitempty"`
}

// CompileStats is the structured per-pass report of one compile.
//
// Stage rows (trace-select, ddg-build, list-schedule, recovery-emit) are
// sub-spans of the "schedule" row, so TotalSeconds counts top-level
// passes only.
type CompileStats struct {
	Passes       []PassStats `json:"passes"`
	TotalSeconds float64     `json:"total_seconds"`
}

// Find returns the named row, or nil.
func (cs *CompileStats) Find(name string) *PassStats {
	for i := range cs.Passes {
		if cs.Passes[i].Name == name {
			return &cs.Passes[i]
		}
	}
	return nil
}

// Sched returns the "schedule" row's scheduler counters, or nil if no
// schedule pass ran.
func (cs *CompileStats) Sched() *core.Stats {
	if row := cs.Find("schedule"); row != nil {
		return row.Sched
	}
	return nil
}

// Add merges other into cs: same-named rows accumulate seconds (and
// scheduler counters), new rows append. Aggregators (experiments cells,
// service metrics) use this to fold many compiles into one report.
func (cs *CompileStats) Add(other *CompileStats) {
	if other == nil {
		return
	}
	for _, row := range other.Passes {
		dst := cs.Find(row.Name)
		if dst == nil {
			cs.Passes = append(cs.Passes, PassStats{Name: row.Name})
			dst = &cs.Passes[len(cs.Passes)-1]
		}
		dst.Seconds += row.Seconds
		if row.Sched != nil {
			if dst.Sched == nil {
				dst.Sched = core.NewStats()
			}
			dst.Sched.Merge(row.Sched)
		}
	}
	cs.TotalSeconds += other.TotalSeconds
}

// Manager sequences named passes over a program and accumulates their
// stats. The zero value is ready to use; it is not safe for concurrent
// use (one compile = one manager).
type Manager struct {
	// VerifyEach runs the prog verifier over the whole program after
	// every pass, attributing any broken CFG invariant to the pass that
	// introduced it.
	VerifyEach bool

	stats CompileStats
}

// NewManager returns an empty pass manager.
func NewManager() *Manager { return &Manager{} }

// Stats returns the accumulated report. The returned value is shared
// with the manager; run all passes before reading it.
func (m *Manager) Stats() *CompileStats { return &m.stats }

// Run executes fn as the named pass: timed, recorded, and — with
// VerifyEach — followed by the prog verifier over each program in progs
// (the programs the pass mutated). Errors are wrapped with the pass
// name.
func (m *Manager) Run(name string, fn func() error, progs ...*prog.Program) error {
	start := time.Now()
	err := fn()
	sec := time.Since(start).Seconds()
	m.stats.Passes = append(m.stats.Passes, PassStats{Name: name, Seconds: sec})
	m.stats.TotalSeconds += sec
	if err != nil {
		return fmt.Errorf("passes: %s: %w", name, err)
	}
	for _, pr := range progs {
		if err := m.verifyAfter(pr, name); err != nil {
			return err
		}
	}
	return nil
}

// Schedule runs the trace-scheduling pass, recording the scheduler's
// per-stage rows plus an aggregate "schedule" row that carries the full
// core.Stats payload.
func (m *Manager) Schedule(pr *prog.Program, model *machine.Model, opts core.Options) (*machine.SchedProgram, error) {
	start := time.Now()
	sp, st, err := core.ScheduleWithStats(pr, model, opts)
	sec := time.Since(start).Seconds()
	if err != nil {
		m.stats.Passes = append(m.stats.Passes, PassStats{Name: "schedule", Seconds: sec})
		m.stats.TotalSeconds += sec
		return nil, err
	}
	m.stats.Passes = append(m.stats.Passes,
		PassStats{Name: "trace-select", Seconds: st.TraceSelectSeconds},
		PassStats{Name: "ddg-build", Seconds: st.DDGBuildSeconds},
		PassStats{Name: "list-schedule", Seconds: st.ListScheduleSeconds},
		PassStats{Name: "recovery-emit", Seconds: st.RecoveryEmitSeconds},
		PassStats{Name: "schedule", Seconds: sec, Sched: st},
	)
	m.stats.TotalSeconds += sec
	if err := m.verifyAfter(pr, "schedule"); err != nil {
		return nil, err
	}
	return sp, nil
}

func (m *Manager) verifyAfter(pr *prog.Program, name string) error {
	if !m.VerifyEach || pr == nil {
		return nil
	}
	if err := prog.VerifyProgram(pr); err != nil {
		return fmt.Errorf("passes: verify after %s: %w", name, err)
	}
	return nil
}
