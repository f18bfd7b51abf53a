package experiments

import (
	"encoding/json"
	"fmt"
	"strings"
)

// Snapshot is a copy of a Suite's run counts, with the memo hit/miss
// totals folded in. It marshals to JSON for machine consumption
// (cmd/experiments -metrics-json). Wall times are not counted here:
// perfbench's traced mode times each layer.
type Snapshot struct {
	// Builds counts workload compilations (build + register allocation +
	// profile transfer + reference run). With memoization this equals the
	// number of unique (workload, regalloc-mode) pairs ever requested.
	Builds      int64 `json:"builds"`
	Schedules   int64 `json:"schedules"`
	Simulations int64 `json:"simulations"`
	SimCycles   int64 `json:"simulated_cycles"`
	BoostedExec int64 `json:"boosted_executed"`
	Squashed    int64 `json:"squashed"`
	CacheHits   int64 `json:"cache_hits"`
	CacheMisses int64 `json:"cache_misses"`
}

// HitRate is cache hits over total memo lookups (1 when idle).
func (s Snapshot) HitRate() float64 {
	if s.CacheHits+s.CacheMisses == 0 {
		return 1
	}
	return float64(s.CacheHits) / float64(s.CacheHits+s.CacheMisses)
}

// String renders the snapshot as a summary table.
func (s Snapshot) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-11s %9d runs\n", "build", s.Builds)
	fmt.Fprintf(&b, "%-11s %9d runs\n", "schedule", s.Schedules)
	fmt.Fprintf(&b, "%-11s %9d runs\n", "simulate", s.Simulations)
	fmt.Fprintf(&b, "%-11s %9d cycles\n", "simulated", s.SimCycles)
	fmt.Fprintf(&b, "%-11s %9d boosted, %d squashed\n", "speculation", s.BoostedExec, s.Squashed)
	fmt.Fprintf(&b, "%-11s %9d hits, %d misses (%.1f%% hit rate)\n",
		"cache", s.CacheHits, s.CacheMisses, 100*s.HitRate())
	return b.String()
}

// JSON renders the snapshot as indented JSON.
func (s Snapshot) JSON() (string, error) {
	out, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		return "", err
	}
	return string(out), nil
}
