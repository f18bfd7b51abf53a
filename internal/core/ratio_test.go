//go:build !race

package core

import (
	"testing"
	"time"

	"boosting/internal/prog"
	"boosting/internal/workloads"
)

// TestAnalysisCacheRatio checks that the analysis cache pays: over every
// workload on the three benchmark models, the summed compile time with
// the cache must beat the summed time with every analysis recomputed per
// trace (Options.uncachedAnalyses). Each cell schedules fresh clones with
// the two settings in alternation and keeps each setting's fastest run,
// so the host's clock speed cancels out of the ratio; cloning is outside
// the timed span. The race detector distorts the ratio, so this file is
// left out of -race builds.
func TestAnalysisCacheRatio(t *testing.T) {
	if testing.Short() {
		t.Skip("timing ratio in -short mode")
	}
	const rounds = 40
	var cached, uncached time.Duration
	for _, w := range workloads.All() {
		master := benchMaster(t, w)
		for _, model := range compileBenchModels() {
			var best [2]time.Duration
			for r := 0; r < rounds; r++ {
				for i, opts := range []Options{{}, {uncachedAnalyses: true}} {
					test := prog.Clone(master)
					start := time.Now()
					if _, err := Schedule(test, model, opts); err != nil {
						t.Fatal(err)
					}
					if d := time.Since(start); r == 0 || d < best[i] {
						best[i] = d
					}
				}
			}
			cached += best[0]
			uncached += best[1]
		}
	}
	ratio := float64(uncached) / float64(cached)
	t.Logf("%d cells: cached %v, uncached %v: uncached takes %.2fx the cached compile (want > 1x)",
		len(workloads.All())*len(compileBenchModels()), cached, uncached, ratio)
	if ratio <= 1 {
		t.Errorf("analysis cache does not pay: uncached compile takes %.3fx the cached one, want > 1x", ratio)
	}
}
