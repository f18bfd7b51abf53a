// Command perfbench is the repository's end-to-end benchmark. It runs one
// workload at one seed for a fixed time, checks every operation's output,
// and prints the metrics as the last line of standard output:
//
//	perfbench --workload paper-eval|sim-sweep|asm-serve --seed N --seconds S --trace 0|1
//
// With --trace 0 the last line carries the end-to-end metrics; with
// --trace 1 it carries the per-layer metrics, taken by replaying each
// traced unit's work through the layers' public functions. The line
// before it reports host facts (GOMAXPROCS, CPU count, Go version and
// CPU steal over the run). See README.md for the workloads, the metric
// definitions and the noise they were sized against.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"time"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// config is the benchmark's whole input: a workload, a seed and a time.
type config struct {
	workload string
	seed     int64
	seconds  time.Duration
	trace    bool
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

var workloadRuns = map[string]func(context.Context, *runState) error{
	"paper-eval": paperEval,
	"sim-sweep":  simSweep,
	"asm-serve":  asmServe,
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "workload to run: paper-eval, sim-sweep or asm-serve")
	seed := fs.Int64("seed", 0, "input seed: the generated programs, sweep cells and kernel order")
	seconds := fs.Int("seconds", 10, "measured time in seconds")
	trace := fs.Int("trace", 0, "1 replays traced units through the layers and reports per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fn, ok := workloadRuns[*workload]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) || fs.NArg() > 0 {
		fmt.Fprintf(stderr, "perfbench: need --workload paper-eval|sim-sweep|asm-serve, --seconds >= 1 and --trace 0|1\n")
		return 2
	}
	cfg := config{workload: *workload, seed: *seed, seconds: time.Duration(*seconds) * time.Second, trace: *trace == 1}
	r := newRunState(cfg)

	steal0, total0 := cpuTicks()
	err := fn(context.Background(), r)
	if err == nil {
		err = r.complete()
	}
	for _, n := range r.notes {
		fmt.Fprintf(stderr, "perfbench: %s\n", n)
	}
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", cfg.workload, err)
		return 1
	}
	steal1, total1 := cpuTicks()

	if cfg.trace {
		path := fmt.Sprintf(".bench_build/spans-%s-%d.jsonl", cfg.workload, cfg.seed)
		if err := r.tr.write(path); err != nil {
			fmt.Fprintf(stderr, "perfbench: %v\n", err)
			return 1
		}
	}
	printHost(stdout, steal1-steal0, total1-total0, &r.clock)
	res := result{
		Correct:   r.failed == 0,
		Attempted: r.attempted,
		Failed:    r.failed,
		Metrics:   r.metrics,
	}
	for _, name := range sortedKeys(res.Metrics) {
		fmt.Fprintf(stderr, "%-34s %16.6g %s\n", name, res.Metrics[name].Value, res.Metrics[name].Unit)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return 0
}

// failStages are the checks an operation can fail, reported per layer as
// fail.<stage> counts.
var failStages = []string{"http", "verify", "digest", "cache"}

// runState is one run's bookkeeping, shared by the three workloads.
type runState struct {
	cfg       config
	tr        *tracer // nil unless traced
	attempted int
	failed    int
	fails     map[string]int
	metrics   map[string]metric
	notes     []string
	nextUnit  int
	clock     hostClock
}

func newRunState(cfg config) *runState {
	r := &runState{cfg: cfg, fails: map[string]int{}, metrics: map[string]metric{}}
	if cfg.trace {
		r.tr = newTracer()
	}
	return r
}

// op is one checked operation: a unit of work or a request.
type op struct {
	r      *runState
	failed bool
}

func (r *runState) op() *op {
	r.attempted++
	return &op{r: r}
}

// fail records a failed check under its stage; an operation counts once
// in the failed total however many of its checks fail. It reports whether
// err was non-nil.
func (o *op) fail(stage string, err error) bool {
	if err == nil {
		return false
	}
	o.r.fails[stage]++
	if !o.failed {
		o.failed = true
		o.r.failed++
	}
	if o.r.fails[stage] <= 3 {
		o.r.notes = append(o.r.notes, fmt.Sprintf("fail.%s: %v", stage, err))
	}
	return true
}

func (r *runState) unit() int {
	r.nextUnit++
	return r.nextUnit
}

func (r *runState) set(name string, v float64, unit string) {
	r.metrics[name] = metric{Value: v, Unit: unit}
}

// note records why a per-layer metric reads zero on this workload.
func (r *runState) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// setFailCounts reports the fail.<stage> per-layer counts.
func (r *runState) setFailCounts() {
	for _, s := range failStages {
		r.set("fail."+s, float64(r.fails[s]), "count")
	}
}

var errDigest = errors.New("simulated results differ from the run's first unit")

// runtimeCounters reads the Go runtime's cumulative allocation and CPU
// counters without stopping the world.
type runtimeCounters struct {
	allocBytes, allocObjects uint64
	gcCPU, totalCPU          float64
}

var counterNames = []string{
	"/gc/heap/allocs:bytes",
	"/gc/heap/allocs:objects",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

func readCounters() runtimeCounters {
	s := make([]metrics.Sample, len(counterNames))
	for i, n := range counterNames {
		s[i].Name = n
	}
	metrics.Read(s)
	return runtimeCounters{
		allocBytes:   s[0].Value.Uint64(),
		allocObjects: s[1].Value.Uint64(),
		gcCPU:        s[2].Value.Float64(),
		totalCPU:     s[3].Value.Float64(),
	}
}

// allocMeter accumulates allocations over the measured units.
type allocMeter struct {
	bytes, objects uint64
	units          int
	start          runtimeCounters
}

func (a *allocMeter) begin() { a.start = readCounters() }

func (a *allocMeter) end() {
	c := readCounters()
	a.bytes += c.allocBytes - a.start.allocBytes
	a.objects += c.allocObjects - a.start.allocObjects
	a.units++
}

// setRuntimeMetrics reports allocation per unit and the GC's share of the
// process CPU time since since.
func (r *runState) setRuntimeMetrics(a *allocMeter, since runtimeCounters) {
	now := readCounters()
	share := 0.0
	if cpu := now.totalCPU - since.totalCPU; cpu > 0 {
		share = (now.gcCPU - since.gcCPU) / cpu
	}
	r.set("gc.cpu_share", share, "share")
	if a.units > 0 {
		r.set("alloc.bytes_per_unit", float64(a.bytes)/float64(a.units), "B")
		r.set("alloc.objects_per_unit", float64(a.objects)/float64(a.units), "count")
	}
}

// liveHeapMiB collects the heap and returns the live bytes in MiB. Callers
// keep the state they want counted reachable across the call.
func liveHeapMiB() float64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc) / (1 << 20)
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// mix derives a positive 31-bit seed for item i from the run seed
// (splitmix64 finaliser), so every input the benchmark generates is a pure
// function of --seed.
func mix(seed, i int64) int64 {
	z := uint64(seed)*0x9E3779B97F4A7C15 + uint64(i)*0xBF58476D1CE4E5B9 + 0x94D049BB133111EB
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	z ^= z >> 31
	return int64(z>>33) + 1
}
