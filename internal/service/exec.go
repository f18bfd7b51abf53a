package service

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"strings"

	"boosting"
	"boosting/internal/core"
	"boosting/internal/dynsched"
	"boosting/internal/experiments"
	"boosting/internal/isa"
	"boosting/internal/machine"
	"boosting/internal/memhier"
	"boosting/internal/passes"
	"boosting/internal/profile"
	"boosting/internal/prog"
	"boosting/internal/regalloc"
	"boosting/internal/sim"
)

// The compute functions below return (HTTP status, response value).
// Deterministic domain failures — unparsable programs, runaway programs,
// verification mismatches — are ordinary (non-2xx, errorResponse)
// outcomes and therefore cache like successes: the same broken request
// will fail the same way every time. Context errors never reach here;
// serveHeavy checks ctx after compute returns.

// compile schedules an assembly program for a machine model and returns
// the machine-schedule listing plus schedule statistics and the per-pass
// compile report. The stages mirror prepareAsm, but run as named passes
// so the response (and the boostd_compile_pass_seconds metric) can
// attribute compile time to each of them.
func (s *Server) compile(ctx context.Context, req CompileRequest) (int, any) {
	model, _ := boosting.ModelByName(req.Model)
	pm := passes.NewManager()
	var (
		pr       *prog.Program
		stageErr error
	)
	// run times fn as a named pass; stageErr keeps the raw error so the
	// response message stays "stage: cause" rather than the manager's
	// wrapped form.
	run := func(name string, fn func() error) bool {
		_ = pm.Run(name, func() error {
			stageErr = fn()
			return stageErr
		})
		return stageErr == nil
	}

	if !run("parse", func() error {
		var err error
		pr, err = prog.Parse(req.Asm)
		return err
	}) {
		return http.StatusBadRequest, errorResponse{fmt.Sprintf("parse: %v", stageErr)}
	}
	if !req.Options.InfiniteRegisters {
		if !run("regalloc", func() error {
			_, err := regalloc.Allocate(pr)
			return err
		}) {
			return http.StatusUnprocessableEntity, errorResponse{fmt.Sprintf("regalloc: %v", stageErr)}
		}
	}
	if err := ctx.Err(); err != nil {
		return 0, nil
	}
	// The bounded reference run proves the program halts before
	// profile.Annotate re-runs it without a step limit.
	if !run("reference-run", func() error {
		_, err := sim.Run(pr, sim.RefConfig{MaxSteps: s.cfg.MaxRefSteps})
		return err
	}) {
		return http.StatusUnprocessableEntity, errorResponse{fmt.Sprintf("reference run: %v", stageErr)}
	}
	if !run("profile", func() error { return profile.Annotate(pr) }) {
		return http.StatusUnprocessableEntity, errorResponse{fmt.Sprintf("profile: %v", stageErr)}
	}
	if err := ctx.Err(); err != nil {
		return 0, nil
	}
	sp, err := pm.Schedule(pr, model, req.Options.coreOptions())
	if err != nil {
		return http.StatusUnprocessableEntity, errorResponse{fmt.Sprintf("schedule: %v", err)}
	}
	s.metrics.recordCompilePasses(pm.Stats())
	var sb strings.Builder
	for _, name := range pr.Order {
		sb.WriteString(sp.Procs[name].Format())
	}
	return http.StatusOK, CompileResponse{
		SchemaVersion: SchemaVersion,
		Model:         model.Name,
		Listing:       sb.String(),
		Insts:         sp.NumInsts(),
		Procs:         len(sp.Procs),
		ObjectGrowth:  sp.ObjectGrowth(),
		PassStats:     pm.Stats(),
	}
}

// simulate compiles and executes a workload or assembly program and
// reports verified cycle counts and speculation statistics.
func (s *Server) simulate(ctx context.Context, req SimulateRequest) (int, any) {
	if req.Workload != "" {
		return s.simulateWorkload(ctx, req)
	}
	return s.simulateAsm(ctx, req)
}

// simulateWorkload routes through the shared boosting.Pipeline, so
// compiled artifacts and scalar baselines are reused across requests.
func (s *Server) simulateWorkload(ctx context.Context, req SimulateRequest) (int, any) {
	c, err := s.pipe.Compile(ctx, req.Workload, req.Options.opts()...)
	if err != nil {
		return domainStatus(err)
	}
	setArtifactSource(ctx, c.Source())
	opts := req.Options.opts()
	if req.Mem != nil {
		opts = append(opts, boosting.WithMemHier(req.Mem.config()))
	}
	if req.Dynamic {
		res, err := s.pipe.SimulateDynamic(ctx, c, req.Renaming, opts...)
		if err != nil {
			return domainStatus(err)
		}
		s.metrics.recordMem(res.Mem)
		return http.StatusOK, SimulateResponse{
			SchemaVersion: SchemaVersion,
			Workload:      req.Workload,
			Machine:       fmt.Sprintf("dynamic(renaming=%v)", req.Renaming),
			Cycles:        res.Cycles,
			ScalarCycles:  res.ScalarCycles,
			Speedup:       res.Speedup,
			Mispredicts:   res.Mispredicts,
			Mem:           memStatsResponse(res.Mem, res.MemStalls, 0, 0),
			OutLen:        len(res.Out),
		}
	}
	model, _ := boosting.ModelByName(req.Model)
	res, err := s.pipe.Simulate(ctx, c, model, opts...)
	if err != nil {
		return domainStatus(err)
	}
	s.metrics.recordMem(res.Mem)
	return http.StatusOK, SimulateResponse{
		SchemaVersion:      SchemaVersion,
		Workload:           req.Workload,
		Machine:            model.Name,
		Cycles:             res.Cycles,
		ScalarCycles:       res.ScalarCycles,
		Speedup:            res.Speedup,
		Insts:              res.Insts,
		IPC:                ratio(res.Insts, res.Cycles),
		BoostedExec:        res.BoostedExec,
		Squashed:           res.Squashed,
		PredictionAccuracy: res.PredictionAccuracy,
		ObjectGrowth:       res.ObjectGrowth,
		Mem:                memStatsResponse(res.Mem, res.MemStalls, res.BoostedMemStalls, res.SquashedMemStalls),
		OutLen:             len(res.Out),
	}
}

// simulateAsm runs the full pipeline on a caller-supplied program:
// parse, register-allocate (unless infinite registers), self-profile,
// reference-interpret, schedule, execute, and verify. The profile is
// trained on the same input it predicts — callers benchmarking the
// predictor should use named workloads, which keep the paper's
// train/test split.
func (s *Server) simulateAsm(ctx context.Context, req SimulateRequest) (int, any) {
	pr, ref, status, eresp := s.prepareAsm(ctx, req.Asm, req.Options.InfiniteRegisters)
	if eresp != nil {
		return status, eresp
	}
	if err := ctx.Err(); err != nil {
		return 0, nil
	}

	var mem *memhier.Config
	if req.Mem != nil {
		cfg := req.Mem.config()
		mem = &cfg
	}
	scalar, eresp := s.asmScalarBaseline(pr, ref, mem)
	if eresp != nil {
		return http.StatusUnprocessableEntity, eresp
	}
	if err := ctx.Err(); err != nil {
		return 0, nil
	}

	if req.Dynamic {
		cfg := dynsched.Default()
		cfg.Renaming = req.Renaming
		cfg.Mem = mem
		res, err := dynsched.Simulate(prog.Clone(pr), cfg)
		if err != nil {
			return http.StatusUnprocessableEntity, errorResponse{fmt.Sprintf("dynamic simulation: %v", err)}
		}
		if err := verifyAgainst(ref, res.Out, res.MemHash); err != nil {
			return http.StatusInternalServerError, errorResponse{err.Error()}
		}
		s.metrics.recordMem(res.Mem)
		return http.StatusOK, SimulateResponse{
			SchemaVersion: SchemaVersion,
			Machine:       fmt.Sprintf("dynamic(renaming=%v)", req.Renaming),
			Cycles:        res.Cycles,
			ScalarCycles:  scalar,
			Speedup:       ratio(scalar, res.Cycles),
			Mispredicts:   res.Mispredicts,
			Mem:           memStatsResponse(res.Mem, res.MemStalls, 0, 0),
			OutLen:        len(res.Out),
		}
	}

	model, _ := boosting.ModelByName(req.Model)
	sp, err := core.Schedule(prog.Clone(pr), model, req.Options.coreOptions())
	if err != nil {
		return http.StatusUnprocessableEntity, errorResponse{fmt.Sprintf("schedule: %v", err)}
	}
	if err := ctx.Err(); err != nil {
		return 0, nil
	}
	res, err := sim.Exec(sp, sim.ExecConfig{MaxCycles: s.execCycleCap(), Mem: mem})
	if err != nil {
		return http.StatusUnprocessableEntity, errorResponse{fmt.Sprintf("simulation: %v", err)}
	}
	if err := verifyAgainst(ref, res.Out, res.MemHash); err != nil {
		return http.StatusInternalServerError, errorResponse{err.Error()}
	}
	s.metrics.recordMem(res.Mem)
	return http.StatusOK, SimulateResponse{
		SchemaVersion:      SchemaVersion,
		Machine:            model.Name,
		Cycles:             res.Cycles,
		ScalarCycles:       scalar,
		Speedup:            ratio(scalar, res.Cycles),
		Insts:              res.Insts,
		IPC:                ratio(res.Insts, res.Cycles),
		BoostedExec:        res.BoostedExec,
		Squashed:           res.Squashed,
		PredictionAccuracy: selfAccuracy(pr),
		ObjectGrowth:       sp.ObjectGrowth(),
		Mem:                memStatsResponse(res.Mem, res.MemStalls, res.BoostedMemStalls, res.SquashedMemStalls),
		OutLen:             len(res.Out),
	}
}

// prepareAsm parses and readies a caller-supplied program: register
// allocation (unless infinite registers), then a bounded run that both
// serves as the reference for verification and proves the program halts
// before profile.Annotate re-runs it without a step limit.
func (s *Server) prepareAsm(ctx context.Context, asm string, infiniteReg bool) (*prog.Program, *sim.Result, int, *errorResponse) {
	pr, err := prog.Parse(asm)
	if err != nil {
		return nil, nil, http.StatusBadRequest, &errorResponse{fmt.Sprintf("parse: %v", err)}
	}
	if !infiniteReg {
		if _, err := regalloc.Allocate(pr); err != nil {
			return nil, nil, http.StatusUnprocessableEntity, &errorResponse{fmt.Sprintf("regalloc: %v", err)}
		}
	}
	if err := ctx.Err(); err != nil {
		return nil, nil, 0, &errorResponse{}
	}
	ref, err := sim.Run(pr, sim.RefConfig{MaxSteps: s.cfg.MaxRefSteps})
	if err != nil {
		return nil, nil, http.StatusUnprocessableEntity, &errorResponse{fmt.Sprintf("reference run: %v", err)}
	}
	if err := profile.Annotate(pr); err != nil {
		return nil, nil, http.StatusUnprocessableEntity, &errorResponse{fmt.Sprintf("profile: %v", err)}
	}
	return pr, ref, http.StatusOK, nil
}

// selfAccuracy reads the static predictor's accuracy straight out of the
// self-trained profile counts: the majority direction is predicted, so
// the majority count is the correct count.
func selfAccuracy(pr *prog.Program) float64 {
	var total, correct int64
	for _, p := range pr.ProcList() {
		for _, b := range p.Blocks {
			t := b.Terminator()
			if t == nil || !isa.IsCondBranch(t.Op) {
				continue
			}
			total += b.Count
			if maj := b.Count - b.TakenCount; maj > b.TakenCount {
				correct += maj
			} else {
				correct += b.TakenCount
			}
		}
	}
	if total == 0 {
		return 1
	}
	return float64(correct) / float64(total)
}

// asmScalarBaseline measures the single-issue R2000 baseline for a
// prepared assembly program, under the same memory hierarchy (if any) as
// the boosted run it normalizes.
func (s *Server) asmScalarBaseline(pr *prog.Program, ref *sim.Result, mem *memhier.Config) (int64, *errorResponse) {
	sp, err := core.Schedule(prog.Clone(pr), machine.Scalar(), core.Options{LocalOnly: true})
	if err != nil {
		return 0, &errorResponse{fmt.Sprintf("scalar baseline schedule: %v", err)}
	}
	res, err := sim.Exec(sp, sim.ExecConfig{MaxCycles: s.execCycleCap(), Mem: mem})
	if err != nil {
		return 0, &errorResponse{fmt.Sprintf("scalar baseline: %v", err)}
	}
	if err := verifyAgainst(ref, res.Out, res.MemHash); err != nil {
		return 0, &errorResponse{"scalar baseline: " + err.Error()}
	}
	return res.Cycles, nil
}

func (s *Server) execCycleCap() int64 { return s.cfg.MaxRefSteps * 8 }

// grid runs a workload × model × ablation sweep, fanned out over the
// experiment harness's bounded worker pool. One grid request holds one
// admission slot; its internal parallelism is capped by the server.
func (s *Server) grid(ctx context.Context, req GridRequest) (int, any) {
	workloadNames := req.Workloads
	if len(workloadNames) == 0 {
		workloadNames = boosting.Workloads()
	}
	modelNames := req.Models
	var models []*machine.Model
	if len(modelNames) == 0 {
		ms := boosting.Models()
		models = []*machine.Model{ms.Scalar, ms.NoBoost, ms.Squashing, ms.Boost1, ms.MinBoost3, ms.Boost7}
	} else {
		for _, name := range modelNames {
			m, _ := boosting.ModelByName(name)
			models = append(models, m)
		}
	}

	var cells []boosting.GridCell
	if len(req.Ablations) == 0 {
		cells = boosting.AblationCells(workloadNames, models)
	} else {
		byName := map[string]boosting.Ablation{}
		for _, ab := range boosting.Ablations() {
			byName[ab.Name] = ab
		}
		for _, w := range workloadNames {
			for _, m := range models {
				for _, name := range req.Ablations {
					ab := byName[name]
					cells = append(cells, boosting.GridCell{
						Workload: w, Model: m, Opts: ab.Opts, Label: ab.Name,
					})
				}
			}
		}
	}
	if req.Mem != nil {
		// Every cell — including the scalar baselines the pipeline
		// measures internally — runs under the requested hierarchy.
		memOpt := boosting.WithMemHier(req.Mem.config())
		for i := range cells {
			opts := make([]boosting.Option, len(cells[i].Opts), len(cells[i].Opts)+1)
			copy(opts, cells[i].Opts)
			cells[i].Opts = append(opts, memOpt)
		}
	}
	total := len(cells)
	if n := len(req.MemSweep); n > 0 {
		total *= n
	}
	if total > s.cfg.GridCellCap {
		return http.StatusBadRequest, errorResponse{
			fmt.Sprintf("sweep has %d cells, cap is %d — narrow workloads/models/ablations", total, s.cfg.GridCellCap)}
	}

	workers := s.cfg.GridParallelism
	if req.Parallelism > 0 && req.Parallelism < workers {
		workers = req.Parallelism
	}
	if len(req.MemSweep) > 0 {
		return s.gridMemSweep(ctx, req, cells, workers)
	}
	rows := make([]GridRow, len(cells))
	err := experiments.ForEachLimited(ctx, len(cells), workers, func(ctx context.Context, i int) error {
		cell := cells[i]
		rows[i] = GridRow{Workload: cell.Workload, Model: cell.Model.Name, Ablation: cell.Label}
		res, err := s.pipe.Run(ctx, cell.Workload, cell.Model, cell.Opts...)
		switch {
		case err == nil:
			rows[i].Cycles = res.Cycles
			rows[i].Speedup = res.Speedup
		case ctx.Err() != nil:
			// The request itself was cancelled or timed out.
			return ctx.Err()
		default:
			// A failing cell — including one that inherited a cancelled
			// flight from an unrelated request's pipeline memo — is
			// reported in its row; it must not abort the rest of the
			// sweep.
			rows[i].Error = err.Error()
		}
		return nil
	})
	if err != nil {
		// Only context errors escape the per-cell handling above;
		// serveHeavy turns them into 503/closed-connection.
		return 0, nil
	}
	return http.StatusOK, GridResponse{SchemaVersion: SchemaVersion, Cells: len(cells), Rows: rows}
}

// gridMemSweep is the mem_sweep form of the grid: each cell schedules its
// program once and runs every requested memory hierarchy as a lane of one
// lockstep batched execution (Pipeline.SimulateBatch), producing one row
// per (cell, hierarchy). The worker pool fans out over cells; the
// per-cell hierarchy fan-out is the batch itself.
func (s *Server) gridMemSweep(ctx context.Context, req GridRequest, cells []boosting.GridCell, workers int) (int, any) {
	n := len(req.MemSweep)
	memKeys := make([]string, n)
	lanes := make([][]boosting.Option, n)
	for k, m := range req.MemSweep {
		cfg := m.config()
		memKeys[k] = cfg.Key()
		lanes[k] = []boosting.Option{boosting.WithMemHier(cfg)}
	}
	rows := make([]GridRow, len(cells)*n)
	err := experiments.ForEachLimited(ctx, len(cells), workers, func(ctx context.Context, i int) error {
		cell := cells[i]
		cellRows := rows[i*n : (i+1)*n]
		for k := range cellRows {
			cellRows[k] = GridRow{
				Workload: cell.Workload, Model: cell.Model.Name,
				Ablation: cell.Label, Mem: memKeys[k],
			}
		}
		// Cell-level failures (compile, schedule, lane validation) land in
		// every one of the cell's rows; like the plain grid, they must not
		// abort the rest of the sweep.
		fail := func(err error) error {
			if ctx.Err() != nil {
				return ctx.Err()
			}
			for k := range cellRows {
				cellRows[k].Error = err.Error()
			}
			return nil
		}
		c, err := s.pipe.Compile(ctx, cell.Workload, cell.Opts...)
		if err != nil {
			return fail(err)
		}
		results, errs, err := s.pipe.SimulateBatch(ctx, c, cell.Model, lanes, cell.Opts...)
		if err != nil {
			return fail(err)
		}
		for k := range cellRows {
			switch {
			case errs[k] == nil:
				cellRows[k].Cycles = results[k].Cycles
				cellRows[k].Speedup = results[k].Speedup
			case ctx.Err() != nil:
				return ctx.Err()
			default:
				cellRows[k].Error = errs[k].Error()
			}
		}
		return nil
	})
	if err != nil {
		return 0, nil
	}
	return http.StatusOK, GridResponse{SchemaVersion: SchemaVersion, Cells: len(rows), Rows: rows}
}

// domainStatus classifies a pipeline error: context errors are handed
// back untouched for serveHeavy to map (the zero status is never written
// because serveHeavy re-checks ctx), everything else is a deterministic
// domain failure.
func domainStatus(err error) (int, any) {
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return 0, nil
	}
	return http.StatusUnprocessableEntity, errorResponse{err.Error()}
}

// verifyAgainst compares a simulated run's observables with the
// reference interpreter's.
func verifyAgainst(ref *sim.Result, out []uint32, memHash uint64) error {
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

// ratio is a/b guarding the b==0 edge.
func ratio(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}
