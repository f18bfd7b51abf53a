package experiments

import (
	"context"
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestGeoMean(t *testing.T) {
	if g := GeoMean(nil); g != 0 {
		t.Errorf("empty = %f", g)
	}
	if g := GeoMean([]float64{4}); math.Abs(g-4) > 1e-12 {
		t.Errorf("single = %f", g)
	}
	if g := GeoMean([]float64{1, 4}); math.Abs(g-2) > 1e-12 {
		t.Errorf("GM(1,4) = %f, want 2", g)
	}
	if g := GeoMean([]float64{2, 2, 2}); math.Abs(g-2) > 1e-12 {
		t.Errorf("GM(2,2,2) = %f", g)
	}
}

// Property: the geometric mean lies between min and max.
func TestGeoMeanBounds(t *testing.T) {
	f := func(raw []uint8) bool {
		var vs []float64
		for _, r := range raw {
			vs = append(vs, 0.5+float64(r)/32)
		}
		if len(vs) == 0 {
			return true
		}
		g := GeoMean(vs)
		min, max := vs[0], vs[0]
		for _, v := range vs {
			if v < min {
				min = v
			}
			if v > max {
				max = v
			}
		}
		return g >= min-1e-9 && g <= max+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestFormatters(t *testing.T) {
	t1 := FormatTable1([]Table1Row{{Name: "x", Cycles: 123, IPC: 0.5, Accuracy: 0.75}})
	for _, want := range []string{"x", "123", "0.50", "75.0%"} {
		if !strings.Contains(t1, want) {
			t.Errorf("Table1 missing %q:\n%s", want, t1)
		}
	}
	f8 := FormatFigure8([]Figure8Row{{Name: "x", BasicBlock: 1.1, Global: 1.2, GlobalInf: 1.3}}, 1.1, 1.2)
	for _, want := range []string{"1.10x", "1.20x", "1.30x", "G.M."} {
		if !strings.Contains(f8, want) {
			t.Errorf("Figure8 missing %q:\n%s", want, f8)
		}
	}
	t2 := FormatTable2(
		[]Table2Row{{Name: "x", Improvement: map[string]float64{
			"Squashing": 0.10, "Boost1": 0.17, "MinBoost3": 0.19, "Boost7": 0.20,
		}}},
		map[string]float64{"Squashing": 0.10, "Boost1": 0.17, "MinBoost3": 0.19, "Boost7": 0.20},
	)
	for _, want := range []string{"10.0%", "17.0%", "19.0%", "20.0%", "Squashing"} {
		if !strings.Contains(t2, want) {
			t.Errorf("Table2 missing %q:\n%s", want, t2)
		}
	}
	f9 := FormatFigure9([]Figure9Row{{Name: "x", MinBoost3: 1.5, MinBoost3Inf: 1.6, Dynamic: 1.4, DynamicRenamed: 1.9}}, 1.5, 1.4)
	for _, want := range []string{"1.50x", "1.40x", "1.90x"} {
		if !strings.Contains(f9, want) {
			t.Errorf("Figure9 missing %q:\n%s", want, f9)
		}
	}
}

// TestSuiteCaching: repeated measurements hit the cache (same pointer-free
// result, no recompilation blowup).
func TestSuiteCaching(t *testing.T) {
	s := NewSuite()
	ctx := context.Background()
	w := s.Workloads[4] // grep
	c1, err := s.ScalarCycles(ctx, w)
	if err != nil {
		t.Fatal(err)
	}
	c2, err := s.ScalarCycles(ctx, w)
	if err != nil {
		t.Fatal(err)
	}
	if c1 != c2 {
		t.Errorf("cache returned different cycles: %d vs %d", c1, c2)
	}
	snap := s.Metrics()
	if snap.CacheMisses == 0 {
		t.Error("cache empty after measurement")
	}
	if snap.CacheHits == 0 {
		t.Error("repeated measurement did not hit the cache")
	}
}

func TestBarChart(t *testing.T) {
	out := BarChart([]string{"a", "b"}, []float64{1.5, 1.0}, []float64{2.0, 1.0}, "x")
	if !strings.Contains(out, "a") || !strings.Contains(out, "#") || !strings.Contains(out, "+") {
		t.Errorf("chart missing elements:\n%s", out)
	}
	if !strings.Contains(out, "1.50x (2.00x)") {
		t.Errorf("stacked annotation missing:\n%s", out)
	}
	// A bar at exactly 1.0 draws nothing but still labels.
	if !strings.Contains(out, "1.00x") {
		t.Errorf("flat bar missing:\n%s", out)
	}
	f8 := Figure8Chart([]Figure8Row{{Name: "x", Global: 1.2, GlobalInf: 1.4}})
	if !strings.Contains(f8, "x ") && !strings.Contains(f8, "x") {
		t.Errorf("figure 8 chart broken:\n%s", f8)
	}
	f9 := Figure9Chart([]Figure9Row{{Name: "x", MinBoost3: 1.3, MinBoost3Inf: 1.3, Dynamic: 1.1, DynamicRenamed: 1.8}})
	if !strings.Contains(f9, "x/mb3") || !strings.Contains(f9, "x/dyn") {
		t.Errorf("figure 9 chart broken:\n%s", f9)
	}
}

func TestWriteCSV(t *testing.T) {
	if testing.Short() {
		t.Skip("full CSV grid in -short mode")
	}
	s := NewSuite()
	var buf strings.Builder
	if err := s.WriteCSV(context.Background(), &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"experiment,benchmark,series,value",
		"table1,grep,accuracy,",
		"figure8,xlisp,global,",
		"table2,espresso,MinBoost3,",
		"figure9,awk,dynamic_renamed,",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("csv missing %q", want)
		}
	}
	lines := strings.Count(out, "\n")
	// 7 benchmarks × (3 + 3 + 4 + 4) series + header = 99.
	if lines != 99 {
		t.Errorf("csv has %d lines, want 99", lines)
	}
}
