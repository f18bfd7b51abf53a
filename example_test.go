package boosting_test

import (
	"context"
	"fmt"

	"boosting"
)

// The staged Pipeline API compiles a workload once and simulates it on
// any number of machine models; shared artifacts (the compiled pair,
// the scalar baseline) are memoized across calls.
func ExamplePipeline() {
	ctx := context.Background()
	p := boosting.NewPipeline()
	c, err := p.Compile(ctx, boosting.WorkloadGrep)
	if err != nil {
		panic(err)
	}
	for _, m := range []string{"MinBoost3", "Boost7"} {
		model, err := boosting.ModelByName(m)
		if err != nil {
			panic(err)
		}
		res, err := p.Simulate(ctx, c, model)
		if err != nil {
			panic(err)
		}
		fmt.Printf("%s beats scalar: %v\n", m, res.Speedup > 1)
	}
	// Output:
	// MinBoost3 beats scalar: true
	// Boost7 beats scalar: true
}

// Compile one of the benchmark workloads for the paper's minimal boosting
// machine and inspect the outcome. Run is Compile followed by Simulate,
// and every run is verified against a reference interpreter before
// results are returned.
func ExamplePipeline_Run() {
	res, err := boosting.NewPipeline().Run(context.Background(),
		boosting.WorkloadGrep, boosting.Models().MinBoost3)
	if err != nil {
		panic(err)
	}
	fmt.Println("speedup over R2000 >= 1.2:", res.Speedup >= 1.2)
	fmt.Println("boosted instructions executed:", res.BoostedExec > 0)
	fmt.Println("object growth below the paper's 2x bound:", res.ObjectGrowth < 2)
	// Output:
	// speedup over R2000 >= 1.2: true
	// boosted instructions executed: true
	// object growth below the paper's 2x bound: true
}

// Compare a statically-scheduled boosting machine against the paper's
// dynamically-scheduled machine on the same compiled workload.
func ExamplePipeline_SimulateDynamic() {
	ctx := context.Background()
	p := boosting.NewPipeline()
	c, err := p.Compile(ctx, boosting.WorkloadXLisp)
	if err != nil {
		panic(err)
	}
	static, err := p.Simulate(ctx, c, boosting.Models().MinBoost3)
	if err != nil {
		panic(err)
	}
	dynamic, err := p.SimulateDynamic(ctx, c, false)
	if err != nil {
		panic(err)
	}
	// The paper's headline: minimal boosting hardware keeps up with a far
	// more complex out-of-order machine.
	fmt.Println("both beat the scalar machine:",
		static.Speedup > 1 && dynamic.Speedup > 1)
	// Output:
	// both beat the scalar machine: true
}

// Resolve machine models by name, as the CLI tools do.
func ExampleModelByName() {
	m, err := boosting.ModelByName("minboost3")
	if err != nil {
		panic(err)
	}
	fmt.Println(m.Name, "issue width:", m.IssueWidth, "max boost level:", m.Boost.MaxLevel)
	// Output:
	// MinBoost3 issue width: 2 max boost level: 3
}

// The benchmark set follows the paper's Table 1 order.
func ExampleWorkloads() {
	for _, w := range boosting.Workloads() {
		fmt.Println(w)
	}
	// Output:
	// awk
	// compress
	// eqntott
	// espresso
	// grep
	// nroff
	// xlisp
}
