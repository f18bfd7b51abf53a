package service

import (
	"context"
	"errors"
	"fmt"
	"net/http"

	"boosting"
	"boosting/internal/machine"
)

// The compute functions below return (HTTP status, response value).
// Deterministic domain failures — unparsable programs, runaway programs,
// verification mismatches — are ordinary (non-2xx, errorResponse)
// outcomes and therefore cache like successes: the same broken request
// will fail the same way every time. Context errors never reach here;
// serveHeavy checks ctx after compute returns.

// compile schedules an assembly program for a machine model and returns
// the machine-schedule listing plus schedule statistics and the per-pass
// compile report, so the response (and the boostd_compile_pass_seconds
// metric) can attribute compile time to each stage.
func (s *Server) compile(ctx context.Context, req CompileRequest) (int, any) {
	model, _ := boosting.ModelByName(req.Model)
	opts := req.Options.opts()
	c, err := s.pipe.CompileAsm(ctx, req.Asm, s.cfg.MaxRefSteps, opts...)
	if err != nil {
		return domainStatus(err)
	}
	sp, schedStats, err := s.pipe.Schedule(ctx, c, model, opts...)
	if err != nil {
		return domainStatus(err)
	}
	stats := &boosting.CompileStats{}
	stats.Add(c.CompileStats())
	stats.Add(schedStats)
	s.metrics.recordCompilePasses(stats)
	return http.StatusOK, CompileResponse{
		SchemaVersion: SchemaVersion,
		Model:         model.Name,
		Listing:       sp.Format(),
		Insts:         sp.NumInsts(),
		Procs:         len(sp.Procs),
		ObjectGrowth:  sp.ObjectGrowth(),
		PassStats:     stats,
	}
}

// simulate compiles a workload or an assembly program through the shared
// pipeline, executes it, and reports verified cycle counts and speculation
// statistics. Workload artifacts and scalar baselines are reused across
// requests; an assembly program is compiled afresh with a profile trained
// on the same input it predicts — callers benchmarking the predictor
// should use named workloads, which keep the paper's train/test split.
func (s *Server) simulate(ctx context.Context, req SimulateRequest) (int, any) {
	opts := req.Options.opts()
	var (
		c   *boosting.Compiled
		err error
	)
	if req.Workload != "" {
		c, err = s.pipe.Compile(ctx, req.Workload, opts...)
	} else {
		c, err = s.pipe.CompileAsm(ctx, req.Asm, s.cfg.MaxRefSteps, opts...)
	}
	if err != nil {
		return domainStatus(err)
	}
	if req.Workload != "" {
		setArtifactSource(ctx, c.Source())
	}
	if req.Mem != nil {
		opts = append(opts, boosting.WithMemHier(req.Mem.config()))
	}
	resp := SimulateResponse{SchemaVersion: SchemaVersion, Workload: req.Workload}
	if req.Dynamic {
		res, err := s.pipe.SimulateDynamic(ctx, c, req.Renaming, opts...)
		if err != nil {
			return domainStatus(err)
		}
		s.metrics.recordMem(res.Mem)
		resp.Machine = fmt.Sprintf("dynamic(renaming=%v)", req.Renaming)
		resp.Cycles, resp.ScalarCycles = res.Cycles, res.ScalarCycles
		resp.Speedup = ratio(res.ScalarCycles, res.Cycles)
		resp.Mispredicts = res.Mispredicts
		resp.Mem = memStatsResponse(res.Mem, res.MemStalls, 0, 0)
		resp.OutLen = len(res.Out)
		return http.StatusOK, resp
	}
	model, _ := boosting.ModelByName(req.Model)
	res, err := s.pipe.Simulate(ctx, c, model, opts...)
	if err != nil {
		return domainStatus(err)
	}
	s.metrics.recordMem(res.Mem)
	resp.Machine = model.Name
	resp.Cycles, resp.ScalarCycles = res.Cycles, res.ScalarCycles
	resp.Speedup = ratio(res.ScalarCycles, res.Cycles)
	resp.Insts, resp.IPC = res.Insts, ratio(res.Insts, res.Cycles)
	resp.BoostedExec, resp.Squashed = res.BoostedExec, res.Squashed
	resp.PredictionAccuracy = res.PredictionAccuracy
	resp.ObjectGrowth = res.ObjectGrowth
	resp.Mem = memStatsResponse(res.Mem, res.MemStalls, res.BoostedMemStalls, res.SquashedMemStalls)
	resp.OutLen = len(res.Out)
	return http.StatusOK, resp
}

// grid runs a workload × model × ablation sweep, crossed with the
// request's mem_sweep hierarchies if it has any, as one Pipeline.Grid
// call. One grid request holds one admission slot; its internal
// parallelism is capped by the server.
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
	opts := []boosting.Option{boosting.WithParallelism(workers)}
	// memKeys labels each swept cell's row with its hierarchy.
	var memKeys []string
	if len(req.MemSweep) > 0 {
		// One cell per (cell, hierarchy), cell-major. Grid runs a cell's
		// hierarchies as one group, on one schedule.
		swept := make([]boosting.GridCell, 0, total)
		for _, cell := range cells {
			for _, m := range req.MemSweep {
				cfg := m.config()
				sc := cell
				sc.Opts = append(cell.Opts[:len(cell.Opts):len(cell.Opts)], boosting.WithMemHier(cfg))
				swept = append(swept, sc)
				memKeys = append(memKeys, cfg.Key())
			}
		}
		cells = swept
	} else if req.Mem != nil {
		// Every cell — including the scalar baselines the pipeline
		// measures internally — runs under the requested hierarchy.
		opts = append(opts, boosting.WithMemHier(req.Mem.config()))
	}
	results, err := s.pipe.Grid(ctx, cells, opts...)
	if err != nil {
		// Only the request's own cancellation or deadline fails the
		// grid; serveHeavy turns it into 503/closed-connection.
		return 0, nil
	}
	rows := make([]GridRow, len(results))
	for i, r := range results {
		rows[i] = GridRow{Workload: r.Cell.Workload, Model: r.Cell.Model.Name, Ablation: r.Cell.Label}
		if memKeys != nil {
			rows[i].Mem = memKeys[i]
		}
		if r.Err != nil {
			// A failing cell — including one that inherited a cancelled
			// flight from an unrelated request's pipeline memo — is
			// reported in its row.
			rows[i].Error = r.Err.Error()
			continue
		}
		rows[i].Cycles = r.Result.Cycles
		rows[i].Speedup = r.Result.Speedup
	}
	return http.StatusOK, GridResponse{SchemaVersion: SchemaVersion, Cells: len(cells), Rows: rows}
}

// domainStatus classifies a pipeline error: context errors are handed
// back untouched for serveHeavy to map (the zero status is never written
// because serveHeavy re-checks ctx); an unparsable program is a bad
// request; a run that disagrees with the reference interpreter is a
// fault of the server, whatever the source; anything else is a
// deterministic domain failure of the program.
func domainStatus(err error) (int, any) {
	var perr *boosting.ParseError
	switch {
	case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
		return 0, nil
	case errors.As(err, &perr):
		return http.StatusBadRequest, errorResponse{err.Error()}
	case errors.Is(err, boosting.ErrVerification):
		return http.StatusInternalServerError, errorResponse{err.Error()}
	}
	return http.StatusUnprocessableEntity, errorResponse{err.Error()}
}

// ratio is a/b guarding the b==0 edge.
func ratio(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}
