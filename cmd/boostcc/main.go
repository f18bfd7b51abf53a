// Command boostcc is the compiler driver: it builds a workload (or parses
// an assembly file), profiles it, register-allocates, schedules it for a
// machine model, and prints the resulting machine schedule with boosting
// labels, compensation blocks and recovery-code sites.
//
// Usage:
//
//	boostcc -workload grep -model MinBoost3
//	boostcc -workload xlisp -model Boost7 -src       # also print the IR
//	boostcc -asm prog.s -model Boost1                # compile an .s file
//	boostcc -workload grep -pass-stats               # per-pass report
//	boostcc -asm prog.s -verify-each                 # verify IR between passes
//	boostcc -workload grep -emit grep.bsta           # save a compile artifact
//	boostcc -load grep.bsta -model MinBoost3         # warm-start from one
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"sort"
	"strings"

	"boosting"
	"boosting/internal/prog"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the testable command body. Exit codes: 0 success, 1 compile or
// verification failure, 2 usage error.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("boostcc", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "workload name: "+strings.Join(boosting.Workloads(), ", "))
	asmFile := fs.String("asm", "", "assembly file to compile instead of a workload")
	model := fs.String("model", "MinBoost3", "machine model: R2000, NoBoost, Squashing, Boost1, MinBoost3, Boost7")
	src := fs.Bool("src", false, "also print the program IR before scheduling")
	local := fs.Bool("local", false, "basic-block scheduling only")
	inf := fs.Bool("inf", false, "infinite register model (skip register allocation)")
	passStats := fs.Bool("pass-stats", false, "print per-pass compile timings and scheduler counters")
	verifyEach := fs.Bool("verify-each", false, "run the IR verifier between compile passes")
	emit := fs.String("emit", "", "write the compiled workload and its schedule as a binary artifact to this file (requires -workload)")
	load := fs.String("load", "", "warm-start from a previously emitted artifact instead of compiling")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(stderr, "boostcc: unexpected arguments: %v\n", fs.Args())
		return 2
	}
	if *load != "" {
		if *workload != "" || *asmFile != "" {
			fmt.Fprintln(stderr, "boostcc: -load replaces -workload/-asm")
			return 2
		}
	} else if (*workload == "") == (*asmFile == "") {
		fmt.Fprintln(stderr, "boostcc: pass exactly one of -workload or -asm")
		return 2
	}
	if *emit != "" && *workload == "" {
		fmt.Fprintln(stderr, "boostcc: -emit requires -workload")
		return 2
	}

	fail := func(err error) int {
		fmt.Fprintln(stderr, "boostcc:", err)
		return 1
	}

	m, err := boosting.ModelByName(*model)
	if err != nil {
		return fail(err)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	var opts []boosting.Option
	if *inf {
		opts = append(opts, boosting.WithInfiniteRegisters())
	}
	if *verifyEach {
		opts = append(opts, boosting.WithVerifyEach())
	}
	p := boosting.NewPipeline(opts...)
	var c *boosting.Compiled
	switch {
	case *asmFile != "":
		text, err := os.ReadFile(*asmFile)
		if err != nil {
			return fail(err)
		}
		if c, err = p.CompileAsm(ctx, string(text), 0); err != nil {
			return fail(err)
		}
	case *load != "":
		data, err := os.ReadFile(*load)
		if err != nil {
			return fail(err)
		}
		art, err := boosting.DecodeArtifact(data)
		if err != nil {
			return fail(err)
		}
		if c, err = p.CompileFromArtifact(ctx, art); err != nil {
			return fail(err)
		}
		fmt.Fprintf(stdout, "boostcc: loaded artifact for %s (%d recorded schedules)\n",
			c.Workload, len(art.Variants))
	default:
		var err error
		if c, err = p.Compile(ctx, *workload); err != nil {
			return fail(err)
		}
	}

	if *src {
		fmt.Fprintln(stdout, "== program IR ==")
		fmt.Fprintln(stdout, prog.FormatProgram(c.Program()))
	}

	var schedOpts []boosting.Option
	if *local {
		schedOpts = append(schedOpts, boosting.WithLocalOnly())
	}
	sp, schedStats, err := p.Schedule(ctx, c, m, schedOpts...)
	if err != nil {
		return fail(err)
	}
	if *load != "" && p.SchedulePasses() == 0 {
		fmt.Fprintln(stdout, "boostcc: reusing recorded schedule from artifact")
	}
	if *emit != "" {
		data, err := c.Artifact().Encode()
		if err != nil {
			return fail(err)
		}
		if err := os.WriteFile(*emit, data, 0o644); err != nil {
			return fail(err)
		}
		fmt.Fprintf(stdout, "boostcc: wrote artifact to %s (%d bytes)\n", *emit, len(data))
	}
	fmt.Fprintf(stdout, "== schedule for %s (object growth %.2fx) ==\n", m, sp.ObjectGrowth())
	fmt.Fprint(stdout, sp.Format())
	for _, name := range sp.Prog.Order {
		recovery := sp.Procs[name].Recovery
		ids := make([]int, 0, len(recovery))
		for id := range recovery {
			ids = append(ids, id)
		}
		sort.Ints(ids)
		for _, id := range ids {
			fmt.Fprintf(stdout, ".recovery for branch %d in %s:\n", id, name)
			for _, in := range recovery[id] {
				fmt.Fprintf(stdout, "\t%s\n", in.String())
			}
		}
	}
	if *passStats {
		stats := &boosting.CompileStats{}
		stats.Add(c.CompileStats())
		stats.Add(schedStats)
		printPassStats(stdout, stats)
	}
	return 0
}

// printPassStats renders the compile report: one row per pass (scheduler
// stage rows indented under "schedule"), then the scheduler's counters.
func printPassStats(w io.Writer, cs *boosting.CompileStats) {
	fmt.Fprintf(w, "== pass stats (total %.6fs) ==\n", cs.TotalSeconds)
	for _, row := range cs.Passes {
		name := row.Name
		switch name {
		case "trace-select", "ddg-build", "list-schedule", "recovery-emit":
			name = "  " + name
		}
		fmt.Fprintf(w, "%-16s %10.6fs\n", name, row.Seconds)
	}
	st := cs.Sched()
	if st == nil {
		return
	}
	fmt.Fprintf(w, "traces           %d formed over %d blocks\n", st.TracesFormed, st.TraceBlocks)
	fmt.Fprintf(w, "motions          %d attempted, %d placed (%d boosted)\n",
		st.MotionsAttempted, st.MotionsPlaced, st.BoostedPlaced())
	for l, c := range st.BoostedByLevel {
		if l > 0 && c > 0 {
			fmt.Fprintf(w, "  level %-2d       %d\n", l, c)
		}
	}
	if len(st.Rejections) > 0 {
		reasons := make([]string, 0, len(st.Rejections))
		for r := range st.Rejections {
			reasons = append(reasons, r)
		}
		sort.Strings(reasons)
		fmt.Fprintln(w, "rejections")
		for _, r := range reasons {
			fmt.Fprintf(w, "  %-24s %d\n", r, st.Rejections[r])
		}
	}
	fmt.Fprintf(w, "compensation     %d copies, %d edge splits\n", st.CompensationCopies, st.EdgeSplits)
	fmt.Fprintf(w, "recovery         %d sites, %d insts\n", st.RecoverySites, st.RecoveryInsts)
	a := st.Analysis
	fmt.Fprintf(w, "analysis cache   %d cfg + %d liveness + %d loop computes, %d hits, %d invalidations\n",
		a.CFGComputes, a.LivenessComputes, a.LoopComputes, a.Hits, a.Invalidations)
}
