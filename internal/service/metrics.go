package service

import (
	"fmt"
	"io"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"

	"boosting"
	"boosting/internal/artifact"
	"boosting/internal/memhier"
)

// compilePassNames lists every pass the /v1/compile endpoint runs, in
// pipeline order. The metrics registry pre-seeds these so the
// boostd_compile_pass_seconds exposition is complete from startup.
var compilePassNames = []string{
	"parse", "regalloc", "reference-run", "profile",
	"trace-select", "ddg-build", "list-schedule", "recovery-emit", "schedule",
}

// passTotals accumulates one pass's compile time across requests.
type passTotals struct {
	seconds float64
	count   int64
}

// latencyBuckets are the histogram upper bounds in seconds, chosen to
// resolve both the sub-millisecond cache-hit path and multi-second grid
// sweeps.
var latencyBuckets = []float64{0.001, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10, 30}

// histogram is a fixed-bucket latency histogram with Prometheus
// cumulative-bucket semantics.
type histogram struct {
	mu     sync.Mutex
	bounds []float64 // upper bounds; +Inf implicit
	counts []int64   // per-bucket (non-cumulative) counts; len(bounds)+1
	sum    float64
	total  int64
}

func newHistogram(bounds []float64) *histogram {
	return &histogram{bounds: bounds, counts: make([]int64, len(bounds)+1)}
}

func (h *histogram) Observe(seconds float64) {
	i := sort.SearchFloat64s(h.bounds, seconds)
	h.mu.Lock()
	h.counts[i]++
	h.sum += seconds
	h.total++
	h.mu.Unlock()
}

// snapshot returns cumulative bucket counts (le order), the sum and the
// total count.
func (h *histogram) snapshot() (cum []int64, sum float64, total int64) {
	h.mu.Lock()
	defer h.mu.Unlock()
	cum = make([]int64, len(h.counts))
	var run int64
	for i, c := range h.counts {
		run += c
		cum[i] = run
	}
	return cum, h.sum, h.total
}

// endpointMetrics tracks one HTTP endpoint.
type endpointMetrics struct {
	latency  *histogram
	mu       sync.Mutex
	byCode   map[int]int64
	rejected atomic.Int64
}

func (e *endpointMetrics) record(code int, seconds float64) {
	e.latency.Observe(seconds)
	e.mu.Lock()
	e.byCode[code]++
	e.mu.Unlock()
}

// metricsRegistry is the daemon's hand-rolled Prometheus registry: a
// fixed endpoint set with latency histograms and per-status counters,
// plus live gauges (queue depth, in-flight) and cache counters read from
// the admission queue and memo stores at scrape time. The exposition
// format is the Prometheus text format, version 0.0.4.
type metricsRegistry struct {
	order     []string
	endpoints map[string]*endpointMetrics
	panics    atomic.Int64

	// compilePasses accumulates per-pass compile seconds from /v1/compile
	// requests, pre-seeded with every known pass name. Cached responses do
	// not re-record: the metric counts compiles that actually ran.
	passMu        sync.Mutex
	compilePasses map[string]passTotals

	// mem accumulates memory-hierarchy counters across every simulation
	// that ran with a mem block. Cached responses do not re-record.
	memMu   sync.Mutex
	memRuns int64
	mem     memhier.Stats

	// Gauges and cache counters are sampled at scrape time.
	queueDepth    func() int64
	inFlight      func() int64
	respCache     func() (hits, misses int64)
	pipeCache     func() (hits, misses int64)
	artifactStats func() artifact.CacheStats
}

func newMetricsRegistry(endpoints []string) *metricsRegistry {
	m := &metricsRegistry{
		order:         append([]string(nil), endpoints...),
		endpoints:     make(map[string]*endpointMetrics, len(endpoints)),
		compilePasses: map[string]passTotals{},
		queueDepth:    func() int64 { return 0 },
		inFlight:      func() int64 { return 0 },
		respCache:     func() (int64, int64) { return 0, 0 },
		pipeCache:     func() (int64, int64) { return 0, 0 },
		artifactStats: func() artifact.CacheStats { return artifact.CacheStats{} },
	}
	for _, p := range compilePassNames {
		m.compilePasses[p] = passTotals{}
	}
	for _, ep := range endpoints {
		m.endpoints[ep] = &endpointMetrics{
			latency: newHistogram(latencyBuckets),
			byCode:  map[int]int64{},
		}
	}
	return m
}

func (m *metricsRegistry) endpoint(path string) *endpointMetrics { return m.endpoints[path] }

// recordCompilePasses folds one compile's per-pass report into the
// cumulative boostd_compile_pass_seconds totals.
func (m *metricsRegistry) recordCompilePasses(cs *boosting.CompileStats) {
	if cs == nil {
		return
	}
	m.passMu.Lock()
	for _, row := range cs.Passes {
		t := m.compilePasses[row.Name]
		t.seconds += row.Seconds
		t.count++
		m.compilePasses[row.Name] = t
	}
	m.passMu.Unlock()
}

// recordMem folds one simulation's memory-hierarchy counters into the
// cumulative boostd_mem_* totals. Perfect-memory runs (nil stats) are
// not counted.
func (m *metricsRegistry) recordMem(s *memhier.Stats) {
	if s == nil {
		return
	}
	m.memMu.Lock()
	m.memRuns++
	m.mem.Accesses += s.Accesses
	m.mem.L1Misses += s.L1Misses
	m.mem.L2Misses += s.L2Misses
	m.mem.MSHRMerges += s.MSHRMerges
	m.mem.MSHRFullStalls += s.MSHRFullStalls
	m.mem.WriteBufferStalls += s.WriteBufferStalls
	m.mem.StallCycles += s.StallCycles
	m.mem.PrefIssued += s.PrefIssued
	m.mem.PrefUseful += s.PrefUseful
	m.memMu.Unlock()
}

func formatFloat(f float64) string { return strconv.FormatFloat(f, 'g', -1, 64) }

// WritePrometheus renders every metric in the Prometheus text exposition
// format. Output is deterministic: endpoints in registration order,
// status codes sorted ascending.
func (m *metricsRegistry) WritePrometheus(w io.Writer) {
	fmt.Fprintf(w, "# HELP boostd_request_seconds Request latency by endpoint.\n")
	fmt.Fprintf(w, "# TYPE boostd_request_seconds histogram\n")
	for _, ep := range m.order {
		cum, sum, total := m.endpoints[ep].latency.snapshot()
		for i, bound := range latencyBuckets {
			fmt.Fprintf(w, "boostd_request_seconds_bucket{endpoint=%q,le=%q} %d\n",
				ep, formatFloat(bound), cum[i])
		}
		fmt.Fprintf(w, "boostd_request_seconds_bucket{endpoint=%q,le=\"+Inf\"} %d\n", ep, cum[len(cum)-1])
		fmt.Fprintf(w, "boostd_request_seconds_sum{endpoint=%q} %s\n", ep, formatFloat(sum))
		fmt.Fprintf(w, "boostd_request_seconds_count{endpoint=%q} %d\n", ep, total)
	}

	fmt.Fprintf(w, "# HELP boostd_requests_total Requests served, by endpoint and status code.\n")
	fmt.Fprintf(w, "# TYPE boostd_requests_total counter\n")
	for _, ep := range m.order {
		e := m.endpoints[ep]
		e.mu.Lock()
		codes := make([]int, 0, len(e.byCode))
		for c := range e.byCode {
			codes = append(codes, c)
		}
		sort.Ints(codes)
		for _, c := range codes {
			fmt.Fprintf(w, "boostd_requests_total{endpoint=%q,code=\"%d\"} %d\n", ep, c, e.byCode[c])
		}
		e.mu.Unlock()
	}

	fmt.Fprintf(w, "# HELP boostd_rejected_total Requests rejected with 429 by a full admission queue.\n")
	fmt.Fprintf(w, "# TYPE boostd_rejected_total counter\n")
	for _, ep := range m.order {
		fmt.Fprintf(w, "boostd_rejected_total{endpoint=%q} %d\n", ep, m.endpoints[ep].rejected.Load())
	}

	fmt.Fprintf(w, "# HELP boostd_queue_depth Requests waiting for an execution slot.\n")
	fmt.Fprintf(w, "# TYPE boostd_queue_depth gauge\n")
	fmt.Fprintf(w, "boostd_queue_depth %d\n", m.queueDepth())

	fmt.Fprintf(w, "# HELP boostd_in_flight Requests currently executing.\n")
	fmt.Fprintf(w, "# TYPE boostd_in_flight gauge\n")
	fmt.Fprintf(w, "boostd_in_flight %d\n", m.inFlight())

	rh, rm := m.respCache()
	fmt.Fprintf(w, "# HELP boostd_cache_hits_total Responses served from the deduplicating result cache.\n")
	fmt.Fprintf(w, "# TYPE boostd_cache_hits_total counter\n")
	fmt.Fprintf(w, "boostd_cache_hits_total %d\n", rh)
	fmt.Fprintf(w, "# HELP boostd_cache_misses_total Responses that ran the pipeline.\n")
	fmt.Fprintf(w, "# TYPE boostd_cache_misses_total counter\n")
	fmt.Fprintf(w, "boostd_cache_misses_total %d\n", rm)

	ph, pm := m.pipeCache()
	fmt.Fprintf(w, "# HELP boostd_pipeline_cache_hits_total Pipeline artifact-cache hits (compiled workloads, scalar baselines).\n")
	fmt.Fprintf(w, "# TYPE boostd_pipeline_cache_hits_total counter\n")
	fmt.Fprintf(w, "boostd_pipeline_cache_hits_total %d\n", ph)
	fmt.Fprintf(w, "# HELP boostd_pipeline_cache_misses_total Pipeline artifact-cache misses.\n")
	fmt.Fprintf(w, "# TYPE boostd_pipeline_cache_misses_total counter\n")
	fmt.Fprintf(w, "boostd_pipeline_cache_misses_total %d\n", pm)

	as := m.artifactStats()
	fmt.Fprintf(w, "# HELP boostd_artifact_disk_hits_total Compiles served from the on-disk artifact store.\n")
	fmt.Fprintf(w, "# TYPE boostd_artifact_disk_hits_total counter\n")
	fmt.Fprintf(w, "boostd_artifact_disk_hits_total %d\n", as.DiskHits)
	fmt.Fprintf(w, "# HELP boostd_artifact_peer_hits_total Compiles served by fetching an artifact from a peer daemon.\n")
	fmt.Fprintf(w, "# TYPE boostd_artifact_peer_hits_total counter\n")
	fmt.Fprintf(w, "boostd_artifact_peer_hits_total %d\n", as.PeerHits)
	fmt.Fprintf(w, "# HELP boostd_artifact_misses_total Artifact-cache lookups that fell through to a local compile.\n")
	fmt.Fprintf(w, "# TYPE boostd_artifact_misses_total counter\n")
	fmt.Fprintf(w, "boostd_artifact_misses_total %d\n", as.Misses)
	fmt.Fprintf(w, "# HELP boostd_artifact_persisted_total Artifacts durably written to the disk store.\n")
	fmt.Fprintf(w, "# TYPE boostd_artifact_persisted_total counter\n")
	fmt.Fprintf(w, "boostd_artifact_persisted_total %d\n", as.Persisted)

	fmt.Fprintf(w, "# HELP boostd_compile_pass_seconds Compile time by pass across /v1/compile requests (cached responses excluded).\n")
	fmt.Fprintf(w, "# TYPE boostd_compile_pass_seconds summary\n")
	m.passMu.Lock()
	names := make([]string, 0, len(m.compilePasses))
	for n := range m.compilePasses {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		t := m.compilePasses[n]
		fmt.Fprintf(w, "boostd_compile_pass_seconds_sum{pass=%q} %s\n", n, formatFloat(t.seconds))
		fmt.Fprintf(w, "boostd_compile_pass_seconds_count{pass=%q} %d\n", n, t.count)
	}
	m.passMu.Unlock()

	m.memMu.Lock()
	memRuns, mem := m.memRuns, m.mem
	m.memMu.Unlock()
	fmt.Fprintf(w, "# HELP boostd_mem_runs_total Simulations executed under a finite memory hierarchy (cached responses excluded).\n")
	fmt.Fprintf(w, "# TYPE boostd_mem_runs_total counter\n")
	fmt.Fprintf(w, "boostd_mem_runs_total %d\n", memRuns)
	fmt.Fprintf(w, "# HELP boostd_mem_accesses_total Demand memory accesses simulated under a hierarchy.\n")
	fmt.Fprintf(w, "# TYPE boostd_mem_accesses_total counter\n")
	fmt.Fprintf(w, "boostd_mem_accesses_total %d\n", mem.Accesses)
	fmt.Fprintf(w, "# HELP boostd_mem_misses_total Cache misses by level.\n")
	fmt.Fprintf(w, "# TYPE boostd_mem_misses_total counter\n")
	fmt.Fprintf(w, "boostd_mem_misses_total{level=\"l1\"} %d\n", mem.L1Misses)
	fmt.Fprintf(w, "boostd_mem_misses_total{level=\"l2\"} %d\n", mem.L2Misses)
	fmt.Fprintf(w, "# HELP boostd_mem_stall_cycles_total Stall cycles charged by the memory hierarchy.\n")
	fmt.Fprintf(w, "# TYPE boostd_mem_stall_cycles_total counter\n")
	fmt.Fprintf(w, "boostd_mem_stall_cycles_total %d\n", mem.StallCycles)
	fmt.Fprintf(w, "# HELP boostd_mem_mshr_merges_total Demand misses merged into an in-flight fill.\n")
	fmt.Fprintf(w, "# TYPE boostd_mem_mshr_merges_total counter\n")
	fmt.Fprintf(w, "boostd_mem_mshr_merges_total %d\n", mem.MSHRMerges)
	fmt.Fprintf(w, "# HELP boostd_mem_structural_stall_cycles_total Cycles lost to full MSHRs or a full write buffer.\n")
	fmt.Fprintf(w, "# TYPE boostd_mem_structural_stall_cycles_total counter\n")
	fmt.Fprintf(w, "boostd_mem_structural_stall_cycles_total{resource=\"mshr\"} %d\n", mem.MSHRFullStalls)
	fmt.Fprintf(w, "boostd_mem_structural_stall_cycles_total{resource=\"write_buffer\"} %d\n", mem.WriteBufferStalls)
	fmt.Fprintf(w, "# HELP boostd_mem_prefetches_total Prefetch fills, total issued and the useful subset.\n")
	fmt.Fprintf(w, "# TYPE boostd_mem_prefetches_total counter\n")
	fmt.Fprintf(w, "boostd_mem_prefetches_total{kind=\"issued\"} %d\n", mem.PrefIssued)
	fmt.Fprintf(w, "boostd_mem_prefetches_total{kind=\"useful\"} %d\n", mem.PrefUseful)

	fmt.Fprintf(w, "# HELP boostd_panics_total Request handlers recovered from a panic.\n")
	fmt.Fprintf(w, "# TYPE boostd_panics_total counter\n")
	fmt.Fprintf(w, "boostd_panics_total %d\n", m.panics.Load())
}
