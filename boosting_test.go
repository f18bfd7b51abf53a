package boosting

import (
	"context"
	"testing"
)

// TestCompileAndRunGrep compiles and runs grep through Pipeline.Run.
func TestCompileAndRunGrep(t *testing.T) {
	res, err := NewPipeline().Run(context.Background(), WorkloadGrep, Models().MinBoost3)
	if err != nil {
		t.Fatal(err)
	}
	if res.Speedup <= 1.0 {
		t.Errorf("MinBoost3 speedup %.2f should exceed 1", res.Speedup)
	}
	if res.BoostedExec == 0 {
		t.Error("expected boosted instructions on grep")
	}
	if res.ObjectGrowth >= 2 {
		t.Errorf("object growth %.2f exceeds the paper's bound", res.ObjectGrowth)
	}
	if res.PredictionAccuracy < 0.9 {
		t.Errorf("grep accuracy %.2f too low", res.PredictionAccuracy)
	}
	if len(res.Out) == 0 {
		t.Error("no output")
	}
}

func TestCompileAndRunRejectsUnknown(t *testing.T) {
	if _, err := NewPipeline().Run(context.Background(), "nope", Models().Boost1); err == nil {
		t.Fatal("unknown workload must error")
	}
}

func TestWorkloadsList(t *testing.T) {
	ws := Workloads()
	if len(ws) != 7 || ws[0] != WorkloadAWK || ws[6] != WorkloadXLisp {
		t.Fatalf("workload list %v", ws)
	}
}

// TestRunDynamic runs xlisp on the dynamically-scheduled machine, with and
// without register renaming.
func TestRunDynamic(t *testing.T) {
	ctx := context.Background()
	p := NewPipeline()
	c, err := p.Compile(ctx, WorkloadXLisp)
	if err != nil {
		t.Fatal(err)
	}
	res, err := p.SimulateDynamic(ctx, c, false)
	if err != nil {
		t.Fatal(err)
	}
	if res.Cycles <= 0 || res.Speedup <= 0 {
		t.Fatalf("bad result %+v", res)
	}
	ren, err := p.SimulateDynamic(ctx, c, true)
	if err != nil {
		t.Fatal(err)
	}
	if ren.Cycles > res.Cycles {
		t.Errorf("renaming should not slow the machine (%d vs %d)", ren.Cycles, res.Cycles)
	}
}

func TestInfiniteRegistersAtLeastAsFast(t *testing.T) {
	ctx := context.Background()
	p := NewPipeline()
	m := Models().Boost1
	alloc, err := p.Run(ctx, WorkloadAWK, m)
	if err != nil {
		t.Fatal(err)
	}
	inf, err := p.Run(ctx, WorkloadAWK, m, WithInfiniteRegisters())
	if err != nil {
		t.Fatal(err)
	}
	if inf.Cycles > alloc.Cycles {
		t.Errorf("infinite registers slower (%d) than allocated (%d)", inf.Cycles, alloc.Cycles)
	}
}

func TestModelByName(t *testing.T) {
	for name, want := range map[string]string{
		"r2000": "R2000", "scalar": "R2000", "NoBoost": "NoBoost",
		"base": "NoBoost", "SQUASH": "Squashing", "boost1": "Boost1",
		"MinBoost3": "MinBoost3", "boost7": "Boost7",
	} {
		m, err := ModelByName(name)
		if err != nil || m.Name != want {
			t.Errorf("ModelByName(%q) = %v, %v; want %s", name, m, err, want)
		}
	}
	if _, err := ModelByName("pentium"); err == nil {
		t.Error("unknown model accepted")
	}
}

func TestScheduleListing(t *testing.T) {
	ctx := context.Background()
	out, err := ScheduleListing(ctx, WorkloadGrep, Models().MinBoost3)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{".sched main", ".B", " | "} {
		if !contains(out, want) {
			t.Errorf("listing missing %q", want)
		}
	}
	if _, err := ScheduleListing(ctx, "nope", Models().Boost1); err == nil {
		t.Error("unknown workload accepted")
	}
}

func contains(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}
