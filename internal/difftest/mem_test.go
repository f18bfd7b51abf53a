package difftest

import (
	"strings"
	"testing"

	"boosting/internal/testgen"
)

// TestMemConfigsInMatrix pins the memory-hierarchy axis into the oracle
// matrix: both the quick and full sets carry /mem/ configurations, their
// names round-trip through ConfigByName, and every named hierarchy
// validates.
func TestMemConfigsInMatrix(t *testing.T) {
	for _, mh := range memHierarchies() {
		if err := mh.cfg.Validate(); err != nil {
			t.Errorf("hierarchy %q invalid: %v", mh.name, err)
		}
	}
	for _, full := range []bool{false, true} {
		n := 0
		for _, c := range Configs(full) {
			if c.Mem == nil {
				continue
			}
			n++
			name := c.Name()
			if !strings.Contains(name, "/mem/") {
				t.Errorf("mem config named %q without /mem/ marker", name)
			}
			rt, err := ConfigByName(name)
			if err != nil {
				t.Errorf("ConfigByName(%q): %v", name, err)
				continue
			}
			if rt.Name() != name {
				t.Errorf("ConfigByName(%q) round-trips to %q", name, rt.Name())
			}
		}
		if n == 0 {
			t.Errorf("Configs(full=%v) has no memory-hierarchy configurations", full)
		}
	}
}

// TestMemAxisArchitecturallyClean runs a batch of generated programs
// through the full matrix — including every /mem/ configuration on the
// fast core and the oracle — and requires zero divergences: the hierarchy
// must be purely a timing model.
func TestMemAxisArchitecturallyClean(t *testing.T) {
	if testing.Short() {
		t.Skip("full-matrix oracle pass in -short mode")
	}
	cfgs := Configs(true)
	for seed := int64(0); seed < 8; seed++ {
		rec := testgen.Derive(seed, testgen.RandomShape(seed))
		divs, err := CheckRecipe(rec, Options{Configs: cfgs})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		for _, d := range divs {
			t.Errorf("seed %d: %s", seed, d)
		}
	}
}
