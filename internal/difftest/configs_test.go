package difftest

import (
	"strings"
	"testing"
)

// TestOracleMatrixSize pins the size of both oracle matrices and of their
// "/legacy" share — the configurations run on sim.ExecOracle, which hold
// the fast core to the original interpreter — so a change that quietly
// drops configurations fails here. Names must be unique, because corpus
// replay resolves them with ConfigByName.
func TestOracleMatrixSize(t *testing.T) {
	for _, tc := range []struct {
		full          bool
		total, legacy int
	}{
		{full: false, total: 31, legacy: 9},
		{full: true, total: 131, legacy: 27},
	} {
		cfgs := Configs(tc.full)
		legacy := 0
		seen := map[string]bool{}
		for _, c := range cfgs {
			name := c.Name()
			if seen[name] {
				t.Errorf("Configs(full=%v): duplicate config %q", tc.full, name)
			}
			seen[name] = true
			if c.Legacy != strings.Contains(name, "/legacy") {
				t.Errorf("config %q: Legacy = %v disagrees with its name", name, c.Legacy)
			}
			if c.Legacy {
				legacy++
				if c.Dynamic || c.Batch {
					t.Errorf("config %q: the oracle runs static solo configurations only", name)
				}
			}
		}
		if len(cfgs) != tc.total || legacy != tc.legacy {
			t.Errorf("Configs(full=%v) = %d configs, %d of them /legacy; want %d and %d",
				tc.full, len(cfgs), legacy, tc.total, tc.legacy)
		}
	}
}
