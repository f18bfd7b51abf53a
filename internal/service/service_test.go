package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"boosting"
)

// testAsm builds a small self-contained program in the internal/prog
// dialect: a six-element signed-sum loop with data-dependent branches, so
// every machine model does real speculation work. The seed parameterizes
// the first data word, giving tests distinct programs (and therefore
// distinct cache keys) on demand.
func testAsm(seed int) string {
	return fmt.Sprintf(`; service test program
.word %d
.word -1
.word 4
.word -1
.word 5
.word -9
.reserve 64

.proc main
entry:
	li v0, 0x10000
	li v1, 6
	li v2, 0
	li v3, 0
	;fallthrough -> loop
loop:
	add v4, v0, v3
	lw v5, 0(v4)
	bltz v5, neg, pos
pos:
	add v2, v2, v5
	j next
neg:
	sub v2, v2, v5
	sw v2, 24(v4)
	j next
next:
	addi v3, v3, 4
	addi v1, v1, -1
	bgtz v1, loop, done
done:
	out v2
	halt
`, seed)
}

func simBody(seed int, model string) string {
	b, _ := json.Marshal(SimulateRequest{Asm: testAsm(seed), Model: model})
	return string(b)
}

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

func post(t *testing.T, ts *httptest.Server, path, body string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(ts.URL+path, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST %s: %v", path, err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("POST %s: reading body: %v", path, err)
	}
	return resp, b
}

func get(t *testing.T, ts *httptest.Server, path string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Get(ts.URL + path)
	if err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("GET %s: reading body: %v", path, err)
	}
	return resp, b
}

func TestHealthz(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, body := get(t, ts, "/healthz")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz = %d", resp.StatusCode)
	}
	if !strings.Contains(string(body), `"ok"`) {
		t.Errorf("healthz body = %s", body)
	}
}

func TestCompileEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	body, _ := json.Marshal(CompileRequest{Asm: testAsm(3), Model: "Boost7"})

	resp, b1 := post(t, ts, "/v1/compile", string(body))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("compile = %d: %s", resp.StatusCode, b1)
	}
	if got := resp.Header.Get("X-Boostd-Cache"); got != "miss" {
		t.Errorf("first compile cache header = %q, want miss", got)
	}
	var cr CompileResponse
	if err := json.Unmarshal(b1, &cr); err != nil {
		t.Fatalf("decoding compile response: %v", err)
	}
	if cr.Listing == "" || cr.Insts <= 0 || cr.Procs != 1 {
		t.Errorf("suspicious compile response: insts=%d procs=%d listing=%d bytes",
			cr.Insts, cr.Procs, len(cr.Listing))
	}
	if cr.PassStats == nil {
		t.Fatal("compile response missing pass_stats")
	}
	for _, pass := range []string{"parse", "regalloc", "reference-run", "profile", "schedule"} {
		if cr.PassStats.Find(pass) == nil {
			t.Errorf("pass_stats missing %q row", pass)
		}
	}
	if st := cr.PassStats.Sched(); st == nil {
		t.Error("pass_stats schedule row missing scheduler counters")
	} else if st.TracesFormed <= 0 {
		t.Errorf("scheduler counters report %d traces formed", st.TracesFormed)
	}

	resp, b2 := post(t, ts, "/v1/compile", string(body))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("second compile = %d", resp.StatusCode)
	}
	if got := resp.Header.Get("X-Boostd-Cache"); got != "hit" {
		t.Errorf("second compile cache header = %q, want hit", got)
	}
	if !bytes.Equal(b1, b2) {
		t.Errorf("cached compile response differs from original")
	}

	// The cached second request must not re-record pass metrics: one
	// compile ran, so every pass counter reads exactly 1.
	_, mb := get(t, ts, "/metrics")
	for _, want := range []string{
		`boostd_compile_pass_seconds_count{pass="parse"} 1`,
		`boostd_compile_pass_seconds_count{pass="schedule"} 1`,
	} {
		if !strings.Contains(string(mb), want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
}

func TestSimulateAsm(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, b := post(t, ts, "/v1/simulate", simBody(3, "MinBoost3"))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("simulate = %d: %s", resp.StatusCode, b)
	}
	var sr SimulateResponse
	if err := json.Unmarshal(b, &sr); err != nil {
		t.Fatalf("decoding simulate response: %v", err)
	}
	if sr.Cycles <= 0 || sr.ScalarCycles <= 0 || sr.Speedup <= 0 {
		t.Errorf("suspicious cycle counts: %+v", sr)
	}
	if sr.OutLen != 1 {
		t.Errorf("out_len = %d, want 1 (single out instruction)", sr.OutLen)
	}
	if sr.Machine == "" {
		t.Errorf("machine name empty")
	}
}

// TestDataAfterReserveIs400: an assembly body whose data follows a
// .reserve would place that data on the reserved zeroed bytes; the
// parser rejects it, so both assembly endpoints answer 400 naming the
// line.
func TestDataAfterReserveIs400(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	asm := ".word 7\n.reserve 16\n.byte 1 2\n.proc main\n\thalt\n"
	for _, path := range []string{"/v1/simulate", "/v1/compile"} {
		body, _ := json.Marshal(map[string]string{"asm": asm, "model": "MinBoost3"})
		resp, b := post(t, ts, path, string(body))
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("%s: status %d, want 400: %s", path, resp.StatusCode, b)
		}
		if want := "line 3: .byte after .reserve would overlap the reserved bytes"; !strings.Contains(string(b), want) {
			t.Errorf("%s: body %s lacks %q", path, b, want)
		}
	}
}

// TestVirtualRegisterCapIs400: a body naming a virtual register past
// the parser's cap is a bad request on both assembly endpoints, not a
// panic deep in the register allocator.
func TestVirtualRegisterCapIs400(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	asm := ".proc main\n\taddi v2147483647, r0, 1\n\tout v2147483647\n\thalt\n"
	for _, path := range []string{"/v1/simulate", "/v1/compile"} {
		body, _ := json.Marshal(map[string]string{"asm": asm, "model": "MinBoost3"})
		resp, b := post(t, ts, path, string(body))
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("%s: status %d, want 400: %s", path, resp.StatusCode, b)
		}
		if want := `line 2: virtual register out of range: \"v2147483647\"`; !strings.Contains(string(b), want) {
			t.Errorf("%s: body %s lacks %s", path, b, want)
		}
	}
}

func TestSimulateWorkloadAndDynamic(t *testing.T) {
	if testing.Short() {
		t.Skip("workload simulation in -short mode")
	}
	_, ts := newTestServer(t, Config{})

	resp, b := post(t, ts, "/v1/simulate", `{"workload": "grep", "model": "MinBoost3"}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("workload simulate = %d: %s", resp.StatusCode, b)
	}
	var sr SimulateResponse
	if err := json.Unmarshal(b, &sr); err != nil {
		t.Fatalf("decoding: %v", err)
	}
	if sr.Workload != "grep" || sr.Cycles <= 0 || sr.Speedup <= 0 {
		t.Errorf("suspicious workload result: %+v", sr)
	}

	resp, b = post(t, ts, "/v1/simulate", `{"workload": "grep", "dynamic": true, "renaming": true}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("dynamic simulate = %d: %s", resp.StatusCode, b)
	}
	var dr SimulateResponse
	if err := json.Unmarshal(b, &dr); err != nil {
		t.Fatalf("decoding: %v", err)
	}
	if dr.Machine != "dynamic(renaming=true)" || dr.Cycles <= 0 {
		t.Errorf("suspicious dynamic result: %+v", dr)
	}
}

// TestVerificationMismatchIs500: a run that disagrees with the reference
// interpreter is the server's fault on the workload path as on the
// assembly path. The installed artifact's reference output is altered, so
// a correct run fails verification.
func TestVerificationMismatchIs500(t *testing.T) {
	if testing.Short() {
		t.Skip("workload compile in -short mode")
	}
	ctx := context.Background()
	c, err := boosting.NewPipeline().Compile(ctx, "grep")
	if err != nil {
		t.Fatal(err)
	}
	a := c.Artifact()
	a.Ref.Out = append([]uint32(nil), a.Ref.Out...)
	a.Ref.Out[0]++
	s, ts := newTestServer(t, Config{})
	if _, err := s.Pipeline().CompileFromArtifact(ctx, a); err != nil {
		t.Fatal(err)
	}
	resp, b := post(t, ts, "/v1/simulate", `{"workload": "grep", "model": "NoBoost"}`)
	if resp.StatusCode != http.StatusInternalServerError || !strings.Contains(string(b), "verification failed") {
		t.Errorf("simulate = %d %s, want 500 and a verification failure", resp.StatusCode, b)
	}
}

// TestConcurrentDedup is the acceptance test for result deduplication: 64
// concurrent identical simulate requests must produce byte-identical
// responses from exactly one pipeline execution, with the cache counters
// showing 63 hits and 1 miss.
func TestConcurrentDedup(t *testing.T) {
	s, ts := newTestServer(t, Config{MaxInFlight: 2, QueueDepth: 4})
	var execs atomic.Int64
	s.computeHook = func(string, keyedRequest) { execs.Add(1) }

	const n = 64
	body := simBody(11, "MinBoost3")
	type result struct {
		status int
		header string
		body   []byte
	}
	results := make([]result, n)
	var start, done sync.WaitGroup
	start.Add(1)
	done.Add(n)
	for i := 0; i < n; i++ {
		go func(i int) {
			defer done.Done()
			start.Wait()
			resp, err := http.Post(ts.URL+"/v1/simulate", "application/json", strings.NewReader(body))
			if err != nil {
				t.Errorf("request %d: %v", i, err)
				return
			}
			defer resp.Body.Close()
			b, _ := io.ReadAll(resp.Body)
			results[i] = result{resp.StatusCode, resp.Header.Get("X-Boostd-Cache"), b}
		}(i)
	}
	start.Done()
	done.Wait()

	misses := 0
	for i, r := range results {
		if r.status != http.StatusOK {
			t.Fatalf("request %d: status %d: %s", i, r.status, r.body)
		}
		if !bytes.Equal(r.body, results[0].body) {
			t.Fatalf("request %d body differs from request 0:\n%s\nvs\n%s", i, r.body, results[0].body)
		}
		if r.header == "miss" {
			misses++
		}
	}
	if got := execs.Load(); got != 1 {
		t.Errorf("pipeline executions = %d, want exactly 1", got)
	}
	if misses != 1 {
		t.Errorf("cache-miss responses = %d, want exactly 1", misses)
	}
	if hits, miss := s.responses.Stats(); hits != n-1 || miss != 1 {
		t.Errorf("response cache stats = (%d hits, %d misses), want (%d, 1)", hits, miss, n-1)
	}

	_, mb := get(t, ts, "/metrics")
	for _, want := range []string{
		fmt.Sprintf("boostd_cache_hits_total %d", n-1),
		"boostd_cache_misses_total 1",
	} {
		if !strings.Contains(string(mb), want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
}

// TestSaturationAndRecovery is the acceptance test for backpressure: with
// one execution slot and one queue slot both occupied, a third distinct
// request gets an immediate 429 with Retry-After; once the queue drains,
// the same request succeeds.
func TestSaturationAndRecovery(t *testing.T) {
	s, ts := newTestServer(t, Config{MaxInFlight: 1, QueueDepth: 1, RetryAfter: 2 * time.Second})
	block := make(chan struct{})
	var blocking atomic.Bool
	blocking.Store(true)
	s.computeHook = func(string, keyedRequest) {
		if blocking.Load() {
			<-block
		}
	}

	type outcome struct {
		status int
		body   []byte
	}
	results := make(chan outcome, 2)
	for _, seed := range []int{101, 102} {
		go func(seed int) {
			resp, err := http.Post(ts.URL+"/v1/simulate", "application/json", strings.NewReader(simBody(seed, "NoBoost")))
			if err != nil {
				t.Errorf("blocked request: %v", err)
				results <- outcome{0, nil}
				return
			}
			defer resp.Body.Close()
			b, _ := io.ReadAll(resp.Body)
			results <- outcome{resp.StatusCode, b}
		}(seed)
	}
	// Wait until one request holds the execution slot and one waits.
	waitFor(t, "slot + queue occupied", func() bool {
		return s.queue.InFlight() == 1 && s.queue.Depth() == 1
	})

	resp, body := post(t, ts, "/v1/simulate", simBody(103, "NoBoost"))
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("saturated request = %d, want 429: %s", resp.StatusCode, body)
	}
	if got := resp.Header.Get("Retry-After"); got != "2" {
		t.Errorf("Retry-After = %q, want \"2\"", got)
	}
	if !strings.Contains(string(body), "saturated") {
		t.Errorf("429 body = %s", body)
	}

	// Drain and verify full recovery: the blocked pair completes and the
	// previously rejected request now succeeds.
	blocking.Store(false)
	close(block)
	for i := 0; i < 2; i++ {
		r := <-results
		if r.status != http.StatusOK {
			t.Fatalf("blocked request finished with %d: %s", r.status, r.body)
		}
	}
	resp, body = post(t, ts, "/v1/simulate", simBody(103, "NoBoost"))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("post-recovery request = %d, want 200: %s", resp.StatusCode, body)
	}

	_, mb := get(t, ts, "/metrics")
	if !strings.Contains(string(mb), `boostd_rejected_total{endpoint="/v1/simulate"} 1`) {
		t.Errorf("/metrics missing rejected counter:\n%s", mb)
	}
}

// TestCancelledWaiterReleasesQueueSlot ensures a waiter that gives up
// frees its queue slot for later arrivals.
func TestCancelledWaiterReleasesQueueSlot(t *testing.T) {
	s, ts := newTestServer(t, Config{MaxInFlight: 1, QueueDepth: 1})
	block := make(chan struct{})
	var blocking atomic.Bool
	blocking.Store(true)
	s.computeHook = func(string, keyedRequest) {
		if blocking.Load() {
			<-block
		}
	}

	first := make(chan outcomeStatus, 1)
	go func() {
		resp, err := http.Post(ts.URL+"/v1/simulate", "application/json", strings.NewReader(simBody(201, "NoBoost")))
		if err != nil {
			first <- outcomeStatus{err: err}
			return
		}
		resp.Body.Close()
		first <- outcomeStatus{code: resp.StatusCode}
	}()
	waitFor(t, "leader holds slot", func() bool { return s.queue.InFlight() == 1 })

	// Second request waits in the queue, then its client gives up.
	ctx, cancel := context.WithCancel(context.Background())
	req, _ := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/v1/simulate",
		strings.NewReader(simBody(202, "NoBoost")))
	req.Header.Set("Content-Type", "application/json")
	errc := make(chan error, 1)
	go func() {
		resp, err := http.DefaultClient.Do(req)
		if err == nil {
			resp.Body.Close()
		}
		errc <- err
	}()
	waitFor(t, "waiter queued", func() bool { return s.queue.Depth() == 1 })
	cancel()
	if err := <-errc; err == nil {
		t.Fatal("cancelled request returned a response, want error")
	}
	waitFor(t, "queue slot released", func() bool { return s.queue.Depth() == 0 })

	// The freed slot admits a new request.
	blocking.Store(false)
	third := make(chan outcomeStatus, 1)
	go func() {
		resp, err := http.Post(ts.URL+"/v1/simulate", "application/json", strings.NewReader(simBody(203, "NoBoost")))
		if err != nil {
			third <- outcomeStatus{err: err}
			return
		}
		resp.Body.Close()
		third <- outcomeStatus{code: resp.StatusCode}
	}()
	close(block)
	for name, c := range map[string]chan outcomeStatus{"first": first, "third": third} {
		r := <-c
		if r.err != nil {
			t.Fatalf("%s request: %v", name, r.err)
		}
		if r.code != http.StatusOK {
			t.Fatalf("%s request = %d, want 200", name, r.code)
		}
	}
}

type outcomeStatus struct {
	code int
	err  error
}

// TestPanicIsolation verifies a panicking computation turns into a 500
// for that request only: the daemon keeps serving, the panic counter
// increments, and the key is not poisoned.
func TestPanicIsolation(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	var doPanic atomic.Bool
	s.computeHook = func(string, keyedRequest) {
		if doPanic.Load() {
			panic("injected test panic")
		}
	}

	doPanic.Store(true)
	resp, body := post(t, ts, "/v1/simulate", simBody(301, "NoBoost"))
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("panicking request = %d, want 500: %s", resp.StatusCode, body)
	}
	if !strings.Contains(string(body), "internal panic") {
		t.Errorf("500 body = %s", body)
	}

	// Daemon survives and the same request now succeeds.
	doPanic.Store(false)
	if resp, _ := get(t, ts, "/healthz"); resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz after panic = %d", resp.StatusCode)
	}
	resp, body = post(t, ts, "/v1/simulate", simBody(301, "NoBoost"))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("retry after panic = %d, want 200: %s", resp.StatusCode, body)
	}
	if s.metrics.panics.Load() != 1 {
		t.Errorf("panics counter = %d, want 1", s.metrics.panics.Load())
	}
	_, mb := get(t, ts, "/metrics")
	if !strings.Contains(string(mb), "boostd_panics_total 1") {
		t.Errorf("/metrics missing panic counter")
	}
}

// TestRequestDeadline verifies a computation that outlives the
// per-request deadline maps to 503 and does not poison the cache.
func TestRequestDeadline(t *testing.T) {
	s, ts := newTestServer(t, Config{RequestTimeout: 50 * time.Millisecond})
	var slow atomic.Bool
	slow.Store(true)
	s.computeHook = func(string, keyedRequest) {
		if slow.Load() {
			time.Sleep(200 * time.Millisecond)
		}
	}

	resp, body := post(t, ts, "/v1/simulate", simBody(401, "NoBoost"))
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("slow request = %d, want 503: %s", resp.StatusCode, body)
	}
	slow.Store(false)
	resp, body = post(t, ts, "/v1/simulate", simBody(401, "NoBoost"))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("fast retry = %d, want 200: %s", resp.StatusCode, body)
	}
}

func TestBodyLimit(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxBodyBytes: 128})
	big := `{"asm": "` + strings.Repeat("x", 1024) + `", "model": "NoBoost"}`
	resp, body := post(t, ts, "/v1/simulate", big)
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized body = %d, want 413: %s", resp.StatusCode, body)
	}
}

func TestBadRequests(t *testing.T) {
	_, ts := newTestServer(t, Config{})

	resp, _ := get(t, ts, "/v1/simulate")
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET simulate = %d, want 405", resp.StatusCode)
	}
	if resp.Header.Get("Allow") != http.MethodPost {
		t.Errorf("Allow header = %q", resp.Header.Get("Allow"))
	}

	cases := []struct {
		name, path, body string
	}{
		{"invalid json", "/v1/simulate", `{"asm": `},
		{"unknown field", "/v1/simulate", `{"asm": "x", "model": "NoBoost", "bogus": 1}`},
		{"workload and asm", "/v1/simulate", `{"workload": "grep", "asm": "x", "model": "NoBoost"}`},
		{"neither workload nor asm", "/v1/simulate", `{"model": "NoBoost"}`},
		{"unknown workload", "/v1/simulate", `{"workload": "doom", "model": "NoBoost"}`},
		{"missing model", "/v1/simulate", `{"workload": "grep"}`},
		{"model with dynamic", "/v1/simulate", `{"workload": "grep", "model": "NoBoost", "dynamic": true}`},
		{"renaming without dynamic", "/v1/simulate", `{"workload": "grep", "model": "NoBoost", "renaming": true}`},
		{"unknown model", "/v1/compile", `{"asm": "x", "model": "Pentium"}`},
		{"missing asm", "/v1/compile", `{"model": "NoBoost"}`},
		{"unparsable asm", "/v1/compile", `{"asm": "not assembly at all", "model": "NoBoost"}`},
		{"unknown grid workload", "/v1/grid", `{"workloads": ["doom"]}`},
		{"unknown grid ablation", "/v1/grid", `{"ablations": ["yes-bugs"]}`},
	}
	for _, tc := range cases {
		resp, body := post(t, ts, tc.path, tc.body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400 (body: %s)", tc.name, resp.StatusCode, body)
		}
		if !strings.Contains(string(body), `"error"`) {
			t.Errorf("%s: body missing error field: %s", tc.name, body)
		}
	}
}

func TestGridEndpoint(t *testing.T) {
	if testing.Short() {
		t.Skip("grid sweep in -short mode")
	}
	_, ts := newTestServer(t, Config{})
	req := `{"workloads": ["grep"], "models": ["MinBoost3"], "ablations": ["baseline", "no-disamb"]}`

	resp, b1 := post(t, ts, "/v1/grid", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("grid = %d: %s", resp.StatusCode, b1)
	}
	var gr GridResponse
	if err := json.Unmarshal(b1, &gr); err != nil {
		t.Fatalf("decoding grid response: %v", err)
	}
	if gr.Cells != 2 || len(gr.Rows) != 2 {
		t.Fatalf("grid cells = %d rows = %d, want 2/2", gr.Cells, len(gr.Rows))
	}
	for i, row := range gr.Rows {
		if row.Error != "" || row.Cycles <= 0 || row.Speedup <= 0 {
			t.Errorf("bad grid row: %+v", row)
		}
		if ab := []string{"baseline", "no-disamb"}[i]; row.Workload != "grep" || row.Model != "MinBoost3" || row.Ablation != ab {
			t.Errorf("row %d = %s/%s/%s, want grep/MinBoost3/%s", i, row.Workload, row.Model, row.Ablation, ab)
		}
	}

	resp, b2 := post(t, ts, "/v1/grid", req)
	if got := resp.Header.Get("X-Boostd-Cache"); got != "hit" {
		t.Errorf("second grid cache header = %q, want hit", got)
	}
	if !bytes.Equal(b1, b2) {
		t.Errorf("cached grid response differs")
	}
}

func TestGridCellCap(t *testing.T) {
	_, ts := newTestServer(t, Config{GridCellCap: 3})
	resp, body := post(t, ts, "/v1/grid", `{}`)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("over-cap grid = %d, want 400: %s", resp.StatusCode, body)
	}
	if !strings.Contains(string(body), "cap is 3") {
		t.Errorf("cap error body = %s", body)
	}
}

func TestMetricsEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	post(t, ts, "/v1/simulate", simBody(501, "NoBoost"))
	get(t, ts, "/healthz")

	resp, body := get(t, ts, "/metrics")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("metrics = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "text/plain") {
		t.Errorf("metrics content-type = %q", ct)
	}
	for _, want := range []string{
		`boostd_request_seconds_bucket{endpoint="/v1/simulate",le="0.001"}`,
		`boostd_request_seconds_bucket{endpoint="/v1/simulate",le="+Inf"}`,
		`boostd_request_seconds_count{endpoint="/v1/simulate"} 1`,
		`boostd_requests_total{endpoint="/v1/simulate",code="200"} 1`,
		`boostd_requests_total{endpoint="/healthz",code="200"} 1`,
		"boostd_queue_depth 0",
		"boostd_in_flight 0",
		"boostd_cache_misses_total 1",
		`boostd_compile_pass_seconds_count{pass="schedule"} 0`,
		"boostd_panics_total 0",
	} {
		if !strings.Contains(string(body), want) {
			t.Errorf("/metrics missing %q\n%s", want, body)
		}
	}
	if strings.Contains(string(body), "boostd_engine_requests_total") {
		t.Errorf("/metrics still exports the removed engine counter\n%s", body)
	}
}

// waitFor polls cond until it holds or the test times out.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}
