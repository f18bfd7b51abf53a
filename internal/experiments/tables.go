package experiments

import (
	"context"
	"fmt"
	"strings"

	"boosting/internal/core"
	"boosting/internal/machine"
)

// Table1Row is one row of the paper's Table 1: "Benchmark programs and
// their simulation information".
type Table1Row struct {
	Name string
	// Cycles is total R2000 cycles on the test input.
	Cycles int64
	// IPC is average R2000 instructions per cycle (useful instructions
	// divided by cycles; delay-slot NOPs and stalls push it below 1).
	IPC float64
	// Accuracy is the profile-driven static branch prediction accuracy
	// measured on the test input.
	Accuracy float64
}

// Table1 reproduces Table 1.
func (s *Suite) Table1(ctx context.Context) ([]Table1Row, error) {
	cycles, err := s.matrix(ctx, s.ScalarCycles)
	if err != nil {
		return nil, err
	}
	var rows []Table1Row
	for i, w := range s.Workloads {
		c, err := s.Store.compile(ctx, w, true)
		if err != nil {
			return nil, err
		}
		rows = append(rows, Table1Row{
			Name:     w.Name,
			Cycles:   cycles[i],
			IPC:      float64(c.ReferenceInsts()) / float64(cycles[i]),
			Accuracy: c.PredictionAccuracy(),
		})
	}
	return rows, nil
}

// FormatTable1 renders the rows like the paper's table.
func FormatTable1(rows []Table1Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-10s %14s %12s %22s\n", "", "Total R2000", "Avg. R2000", "Branch Prediction")
	fmt.Fprintf(&b, "%-10s %14s %12s %22s\n", "", "Cycles", "IPC", "Accuracy")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-10s %14d %12.2f %21.1f%%\n", r.Name, r.Cycles, r.IPC, 100*r.Accuracy)
	}
	return b.String()
}

// Figure8Row is one group of bars from Figure 8: speedup of the base
// 2-issue superscalar (no speculation hardware) over the scalar machine.
type Figure8Row struct {
	Name string
	// BasicBlock is the speedup with scheduling confined to basic blocks.
	BasicBlock float64
	// Global is the speedup with global scheduling (safe speculation
	// only), register allocation before scheduling.
	Global float64
	// GlobalInf is global scheduling with the infinite register model
	// (the upper stacked portion of each bar).
	GlobalInf float64
}

// Figure8 reproduces Figure 8.
func (s *Suite) Figure8(ctx context.Context) ([]Figure8Row, float64, float64, error) {
	cycles, err := s.matrix(ctx, s.ScalarCycles,
		s.static(machine.NoBoost(), core.Options{LocalOnly: true}, true),
		s.static(machine.NoBoost(), core.Options{}, true),
		s.static(machine.NoBoost(), core.Options{}, false))
	if err != nil {
		return nil, 0, 0, err
	}
	var rows []Figure8Row
	var bbs, gls []float64
	for i, w := range s.Workloads {
		c := cycles[4*i : 4*i+4]
		scalar := float64(c[0])
		row := Figure8Row{
			Name:       w.Name,
			BasicBlock: scalar / float64(c[1]),
			Global:     scalar / float64(c[2]),
			GlobalInf:  scalar / float64(c[3]),
		}
		rows = append(rows, row)
		bbs = append(bbs, row.BasicBlock)
		gls = append(gls, row.Global)
	}
	return rows, GeoMean(bbs), GeoMean(gls), nil
}

// FormatFigure8 renders the series the figure plots.
func FormatFigure8(rows []Figure8Row, gmBB, gmGl float64) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-10s %12s %12s %14s\n", "", "basic block", "global", "global (inf)")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-10s %11.2fx %11.2fx %13.2fx\n", r.Name, r.BasicBlock, r.Global, r.GlobalInf)
	}
	fmt.Fprintf(&b, "%-10s %11.2fx %11.2fx\n", "G.M.", gmBB, gmGl)
	return b.String()
}

// Table2Row is one row of Table 2: percentage cycle-count improvement over
// global scheduling (NoBoost, register allocated) for each boosting model.
type Table2Row struct {
	Name        string
	Improvement map[string]float64 // model name → fractional improvement
}

// Table2Models lists the evaluated models in column order.
var Table2Models = []string{"Squashing", "Boost1", "MinBoost3", "Boost7"}

// Table2 reproduces Table 2. The returned geo map holds the geometric
// means of (1 + improvement), minus 1, matching the paper's G.M. row.
func (s *Suite) Table2(ctx context.Context) ([]Table2Row, map[string]float64, error) {
	models := map[string]*machine.Model{
		"Squashing": machine.Squashing(),
		"Boost1":    machine.Boost1(),
		"MinBoost3": machine.MinBoost3(),
		"Boost7":    machine.Boost7(),
	}
	cols := []measurement{s.static(machine.NoBoost(), core.Options{}, true)}
	for _, name := range Table2Models {
		cols = append(cols, s.static(models[name], core.Options{}, true))
	}
	cycles, err := s.matrix(ctx, cols...)
	if err != nil {
		return nil, nil, err
	}

	ratios := map[string][]float64{}
	var rows []Table2Row
	for i, w := range s.Workloads {
		c := cycles[len(cols)*i : len(cols)*(i+1)]
		row := Table2Row{Name: w.Name, Improvement: map[string]float64{}}
		for j, name := range Table2Models {
			ratio := float64(c[0]) / float64(c[j+1])
			row.Improvement[name] = ratio - 1
			ratios[name] = append(ratios[name], ratio)
		}
		rows = append(rows, row)
	}
	geo := map[string]float64{}
	for _, name := range Table2Models {
		geo[name] = GeoMean(ratios[name]) - 1
	}
	return rows, geo, nil
}

// FormatTable2 renders Table 2.
func FormatTable2(rows []Table2Row, geo map[string]float64) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-10s", "")
	for _, m := range Table2Models {
		fmt.Fprintf(&b, " %10s", m)
	}
	b.WriteByte('\n')
	for _, r := range rows {
		fmt.Fprintf(&b, "%-10s", r.Name)
		for _, m := range Table2Models {
			fmt.Fprintf(&b, " %9.1f%%", 100*r.Improvement[m])
		}
		b.WriteByte('\n')
	}
	fmt.Fprintf(&b, "%-10s", "G.M.")
	for _, m := range Table2Models {
		fmt.Fprintf(&b, " %9.1f%%", 100*geo[m])
	}
	b.WriteByte('\n')
	return b.String()
}
