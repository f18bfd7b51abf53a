// Command boostsim compiles one of the benchmark workloads for a chosen
// machine model and simulates it, reporting cycles, speedup over the
// scalar R2000 baseline, and speculation statistics.
//
// Usage:
//
//	boostsim -workload grep -model MinBoost3
//	boostsim -workload xlisp -model Boost1 -inf
//	boostsim -workload espresso -dynamic -rename
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"strings"

	"boosting"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the testable command body. Exit codes: 0 success, 1 pipeline or
// simulation failure, 2 usage error.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("boostsim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "grep", "workload name: "+strings.Join(boosting.Workloads(), ", "))
	model := fs.String("model", "MinBoost3", "machine model: R2000, NoBoost, Squashing, Boost1, MinBoost3, Boost7")
	local := fs.Bool("local", false, "restrict scheduling to basic blocks")
	inf := fs.Bool("inf", false, "infinite register model (skip register allocation)")
	dynamic := fs.Bool("dynamic", false, "simulate the dynamically-scheduled machine instead")
	rename := fs.Bool("rename", false, "enable register renaming (dynamic machine only)")
	cpuprofile := fs.String("cpuprofile", "", "write a CPU profile of the run to this file")
	memprofile := fs.String("memprofile", "", "write a heap profile to this file on exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(stderr, "boostsim: unexpected arguments: %v\n", fs.Args())
		return 2
	}
	if *rename && !*dynamic {
		fmt.Fprintln(stderr, "boostsim: -rename applies to the dynamic machine only (add -dynamic)")
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "boostsim:", err)
		return 1
	}
	stopProfiles, err := startProfiles(*cpuprofile, *memprofile, stderr)
	if err != nil {
		return fail(err)
	}
	defer stopProfiles()
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	var opts []boosting.Option
	if *local {
		opts = append(opts, boosting.WithLocalOnly())
	}
	if *inf {
		opts = append(opts, boosting.WithInfiniteRegisters())
	}
	p := boosting.NewPipeline(opts...)

	if *dynamic {
		c, err := p.Compile(ctx, *workload)
		if err != nil {
			return fail(err)
		}
		res, err := p.SimulateDynamic(ctx, c, *rename)
		if err != nil {
			return fail(err)
		}
		fmt.Fprintf(stdout, "workload   %s\n", *workload)
		fmt.Fprintf(stdout, "machine    dynamic scheduler (renaming=%v)\n", *rename)
		fmt.Fprintf(stdout, "cycles     %d\n", res.Cycles)
		fmt.Fprintf(stdout, "scalar     %d\n", res.ScalarCycles)
		fmt.Fprintf(stdout, "speedup    %.2fx\n", res.Speedup)
		fmt.Fprintf(stdout, "mispredict %d\n", res.Mispredicts)
		return 0
	}

	m, err := boosting.ModelByName(*model)
	if err != nil {
		return fail(err)
	}
	c, err := p.Compile(ctx, *workload)
	if err != nil {
		return fail(err)
	}
	res, err := p.Simulate(ctx, c, m)
	if err != nil {
		return fail(err)
	}
	fmt.Fprintf(stdout, "workload     %s\n", *workload)
	fmt.Fprintf(stdout, "machine      %s (local=%v, infinite-regs=%v)\n", m, *local, *inf)
	fmt.Fprintf(stdout, "cycles       %d\n", res.Cycles)
	fmt.Fprintf(stdout, "scalar       %d\n", res.ScalarCycles)
	fmt.Fprintf(stdout, "speedup      %.2fx\n", res.Speedup)
	fmt.Fprintf(stdout, "insts        %d (IPC %.2f)\n", res.Insts, float64(res.Insts)/float64(res.Cycles))
	fmt.Fprintf(stdout, "boosted      %d executed, %d squashed\n", res.BoostedExec, res.Squashed)
	fmt.Fprintf(stdout, "prediction   %.1f%%\n", 100*res.PredictionAccuracy)
	fmt.Fprintf(stdout, "object size  %.2fx original\n", res.ObjectGrowth)
	return 0
}

// startProfiles arms the optional CPU and heap profiles. The returned
// stop function finishes the CPU profile and snapshots the heap; heap
// write failures at exit are reported to stderr without changing the
// exit code, since the simulation itself already succeeded.
func startProfiles(cpu, mem string, stderr io.Writer) (stop func(), err error) {
	var cpuF *os.File
	if cpu != "" {
		cpuF, err = os.Create(cpu)
		if err != nil {
			return nil, err
		}
		if err := pprof.StartCPUProfile(cpuF); err != nil {
			cpuF.Close()
			return nil, err
		}
	}
	return func() {
		if cpuF != nil {
			pprof.StopCPUProfile()
			cpuF.Close()
		}
		if mem == "" {
			return
		}
		f, err := os.Create(mem)
		if err != nil {
			fmt.Fprintln(stderr, "boostsim:", err)
			return
		}
		defer f.Close()
		runtime.GC()
		if err := pprof.WriteHeapProfile(f); err != nil {
			fmt.Fprintln(stderr, "boostsim:", err)
		}
	}, nil
}
