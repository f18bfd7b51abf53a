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

// countComputes installs a compute hook that counts real computations.
func countComputes(s *Server) *atomic.Int64 {
	var n atomic.Int64
	s.computeHook = func(string, keyedRequest) { n.Add(1) }
	return &n
}

// TestRepeatBodyIsAddressedHit: a body that already computed a response
// is answered with the same status, bytes and headers, without a second
// computation, and gives the response its one address.
func TestRepeatBodyIsAddressedHit(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	computes := countComputes(s)
	body := simBody(601, "MinBoost3")

	first, b1 := post(t, ts, "/v1/simulate", body)
	if first.StatusCode != http.StatusOK || first.Header.Get("X-Boostd-Cache") != "miss" {
		t.Fatalf("first = %d %q: %s", first.StatusCode, first.Header.Get("X-Boostd-Cache"), b1)
	}
	for i := 0; i < 3; i++ {
		resp, b := post(t, ts, "/v1/simulate", body)
		if resp.StatusCode != first.StatusCode || !bytes.Equal(b, b1) {
			t.Fatalf("repeat %d = %d %s, want %d %s", i, resp.StatusCode, b, first.StatusCode, b1)
		}
		if got := resp.Header.Get("X-Boostd-Cache"); got != "hit" {
			t.Errorf("repeat %d cache header = %q, want hit", i, got)
		}
		if got := resp.Header.Get("Content-Type"); got != "application/json" {
			t.Errorf("repeat %d content type = %q", i, got)
		}
	}
	if n := computes.Load(); n != 1 {
		t.Errorf("computations = %d, want 1", n)
	}
	if n := s.responses.Aliases(); n != 1 {
		t.Errorf("addresses = %d, want 1", n)
	}
	if hits, misses := s.responses.Stats(); hits != 3 || misses != 1 {
		t.Errorf("response cache stats = (%d, %d), want (3, 1)", hits, misses)
	}
	_, mb := get(t, ts, "/metrics")
	for _, want := range []string{"boostd_cache_hits_total 3", "boostd_cache_misses_total 1"} {
		if !strings.Contains(string(mb), want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
}

// TestAddressAnswersBeforeDecode: the address is looked up before the
// body is decoded, so a body with an address is answered from the cache
// even though decoding it would fail.
func TestAddressAnswersBeforeDecode(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	body := `not a request`
	canned := &cachedResponse{status: http.StatusOK, body: []byte("{}\n")}
	if _, err := s.responses.Do(context.Background(), "canned", func() (*cachedResponse, error) { return canned, nil }); err != nil {
		t.Fatal(err)
	}
	if !s.responses.Alias("canned", bodyAddr("/v1/simulate", []byte(body))) {
		t.Fatal("Alias refused a completed entry")
	}
	resp, b := post(t, ts, "/v1/simulate", body)
	if resp.StatusCode != http.StatusOK || resp.Header.Get("X-Boostd-Cache") != "hit" || string(b) != "{}\n" {
		t.Errorf("addressed body = %d %q %q, want 200 hit {}", resp.StatusCode, resp.Header.Get("X-Boostd-Cache"), b)
	}
	if resp, b := post(t, ts, "/v1/compile", body); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("the same body on /v1/compile = %d %s, want 400", resp.StatusCode, b)
	}
}

// TestRepeatBodyKeepsArtifactHeader: with an artifact store, a repeated
// workload body replays the provenance header of the computation.
func TestRepeatBodyKeepsArtifactHeader(t *testing.T) {
	if testing.Short() {
		t.Skip("compiles a real workload")
	}
	s, ts := newTestServer(t, Config{ArtifactDir: t.TempDir()})
	t.Cleanup(func() { s.Close() }) // flush the store before its directory goes
	computes := countComputes(s)
	body := simWorkloadBody(t, boosting.WorkloadGrep, "MinBoost3")

	first, b1 := post(t, ts, "/v1/simulate", body)
	if first.StatusCode != http.StatusOK {
		t.Fatalf("first = %d: %s", first.StatusCode, b1)
	}
	again, b2 := post(t, ts, "/v1/simulate", body)
	for name, resp := range map[string]*http.Response{"first": first, "repeat": again} {
		if got := resp.Header.Get("X-Boostd-Artifact"); got != "compile" {
			t.Errorf("%s artifact header = %q, want compile", name, got)
		}
	}
	if got := again.Header.Get("X-Boostd-Cache"); got != "hit" {
		t.Errorf("repeat cache header = %q, want hit", got)
	}
	if again.StatusCode != first.StatusCode || !bytes.Equal(b1, b2) {
		t.Errorf("repeat = %d %s, want %d %s", again.StatusCode, b2, first.StatusCode, b1)
	}
	if n := computes.Load(); n != 1 {
		t.Errorf("computations = %d, want 1", n)
	}
}

// TestBodyVariantHitsByKey: a body that differs from the computing one
// only in whitespace and field order means the same request, so it is
// served through the canonical key, and it adds no address.
func TestBodyVariantHitsByKey(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	computes := countComputes(s)
	asm, _ := json.Marshal(testAsm(602))
	body := `{"asm":` + string(asm) + `,"model":"Boost1"}`
	variant := "{\n  \"model\": \"Boost1\",\n  \"asm\": " + string(asm) + "\n}"

	resp, b1 := post(t, ts, "/v1/simulate", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("first = %d: %s", resp.StatusCode, b1)
	}
	for i := 0; i < 2; i++ {
		resp, b := post(t, ts, "/v1/simulate", variant)
		if got := resp.Header.Get("X-Boostd-Cache"); got != "hit" || !bytes.Equal(b, b1) {
			t.Fatalf("variant %d = %q %s, want hit %s", i, got, b, b1)
		}
		if n := s.responses.Aliases(); n != 1 {
			t.Fatalf("after variant %d: addresses = %d, want 1", i, n)
		}
	}
	if n := computes.Load(); n != 1 {
		t.Errorf("computations = %d, want 1", n)
	}
}

// TestFailedLeaderGetsNoAddress: a leader that was refused admission,
// outlived its deadline, was cancelled or panicked leaves no address, so
// the identical body computes again.
func TestFailedLeaderGetsNoAddress(t *testing.T) {
	body := simBody(603, "NoBoost")
	// Each case's fail makes body's leader fail. It installs its own
	// behaviour inside every computation through gate, and returns the
	// function that restores normal service.
	cases := []struct {
		name string
		cfg  Config
		code int // the status the failed leader is recorded with
		fail func(t *testing.T, s *Server, ts *httptest.Server, gate func(func())) func()
	}{
		{"429", Config{MaxInFlight: 1, QueueDepth: 1}, http.StatusTooManyRequests,
			func(t *testing.T, s *Server, ts *httptest.Server, gate func(func())) func() {
				release := occupy(t, s, ts, gate, 2)
				if resp, b := post(t, ts, "/v1/simulate", body); resp.StatusCode != http.StatusTooManyRequests {
					t.Fatalf("status %d, want 429: %s", resp.StatusCode, b)
				}
				return release
			}},
		{"deadline", Config{RequestTimeout: 50 * time.Millisecond}, http.StatusServiceUnavailable,
			func(t *testing.T, s *Server, ts *httptest.Server, gate func(func())) func() {
				var slow atomic.Bool
				slow.Store(true)
				gate(func() {
					if slow.Load() {
						time.Sleep(200 * time.Millisecond)
					}
				})
				if resp, b := post(t, ts, "/v1/simulate", body); resp.StatusCode != http.StatusServiceUnavailable {
					t.Fatalf("status %d, want 503: %s", resp.StatusCode, b)
				}
				return func() { slow.Store(false) }
			}},
		{"cancel", Config{MaxInFlight: 1, QueueDepth: 1}, statusClientClosed,
			func(t *testing.T, s *Server, ts *httptest.Server, gate func(func())) func() {
				release := occupy(t, s, ts, gate, 1)
				// body's leader waits for admission until its client
				// leaves.
				ctx, cancel := context.WithCancel(context.Background())
				req, _ := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/v1/simulate", strings.NewReader(body))
				errc := make(chan error, 1)
				go func() {
					resp, err := http.DefaultClient.Do(req)
					if err == nil {
						resp.Body.Close()
					}
					errc <- err
				}()
				waitFor(t, "leader queued", func() bool { return s.queue.Depth() == 1 })
				cancel()
				if err := <-errc; err == nil {
					t.Fatal("cancelled request returned a response")
				}
				waitFor(t, "leader left the queue", func() bool { return s.queue.Depth() == 0 })
				return release
			}},
		{"panic", Config{}, http.StatusInternalServerError,
			func(t *testing.T, s *Server, ts *httptest.Server, gate func(func())) func() {
				var doPanic atomic.Bool
				doPanic.Store(true)
				gate(func() {
					if doPanic.Load() {
						panic("injected test panic")
					}
				})
				if resp, b := post(t, ts, "/v1/simulate", body); resp.StatusCode != http.StatusInternalServerError {
					t.Fatalf("status %d, want 500: %s", resp.StatusCode, b)
				}
				return func() { doPanic.Store(false) }
			}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s, ts := newTestServer(t, tc.cfg)
			var computes atomic.Int64
			gate := func(f func()) {
				s.computeHook = func(string, keyedRequest) {
					computes.Add(1)
					f()
				}
			}
			restore := tc.fail(t, s, ts, gate)
			if n := s.responses.Aliases(); n != 0 {
				t.Errorf("after the failed leader: addresses = %d, want 0", n)
			}
			restore()
			before, addrs := computes.Load(), s.responses.Aliases()
			resp, b := post(t, ts, "/v1/simulate", body)
			if resp.StatusCode != http.StatusOK || resp.Header.Get("X-Boostd-Cache") != "miss" {
				t.Fatalf("retry = %d %q, want 200 miss: %s", resp.StatusCode, resp.Header.Get("X-Boostd-Cache"), b)
			}
			if got := computes.Load() - before; got != 1 {
				t.Errorf("retry ran %d computations, want 1", got)
			}
			if n := s.responses.Aliases(); n != addrs+1 {
				t.Errorf("the retry took %d addresses, want 1", n-addrs)
			}
			want := fmt.Sprintf(`boostd_requests_total{endpoint="/v1/simulate",code="%d"} 1`, tc.code)
			waitFor(t, want, func() bool {
				_, mb := get(t, ts, "/metrics")
				return strings.Contains(string(mb), want)
			})
		})
	}
}

// occupy fills the execution slot, and the queue slot too when n is 2,
// with distinct requests whose computations wait in gate. The returned
// function lets them finish and waits for their replies.
func occupy(t *testing.T, s *Server, ts *httptest.Server, gate func(func()), n int) func() {
	t.Helper()
	block := make(chan struct{})
	release := sync.OnceFunc(func() { close(block) })
	t.Cleanup(release) // before the server waits for its requests
	gate(func() { <-block })
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := http.Post(ts.URL+"/v1/simulate", "application/json", strings.NewReader(simBody(610+i, "NoBoost")))
			if err != nil {
				t.Errorf("occupying request %d: %v", i, err)
				return
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}(i)
	}
	waitFor(t, "slots occupied", func() bool { return int(s.queue.InFlight())+int(s.queue.Depth()) == n })
	return func() {
		release()
		wg.Wait()
	}
}

// TestInvalidBodyGetsNoAddress: a body the decoder or the validator
// rejects never reaches the cache, so it is rejected afresh every time.
func TestInvalidBodyGetsNoAddress(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	for _, tc := range []struct{ path, body string }{
		{"/v1/simulate", `{"asm": `},
		{"/v1/compile", `{"model": "NoBoost"}`},
	} {
		var first []byte
		for i := 0; i < 3; i++ {
			resp, b := post(t, ts, tc.path, tc.body)
			if resp.StatusCode != http.StatusBadRequest || resp.Header.Get("X-Boostd-Cache") != "" {
				t.Fatalf("%s %s try %d = %d %q, want 400 with no cache header", tc.path, tc.body, i, resp.StatusCode, resp.Header.Get("X-Boostd-Cache"))
			}
			if i == 0 {
				first = b
			} else if !bytes.Equal(b, first) {
				t.Errorf("%s %s try %d body %s, want %s", tc.path, tc.body, i, b, first)
			}
		}
	}
	if n := s.responses.Aliases(); n != 0 {
		t.Errorf("addresses = %d, want 0", n)
	}
	if hits, misses := s.responses.Stats(); hits != 0 || misses != 0 {
		t.Errorf("response cache stats = (%d, %d), want (0, 0)", hits, misses)
	}
}

// TestBodyAddressPerEndpoint: one body is a valid request to both
// assembly endpoints, and each endpoint keeps its own response for it.
func TestBodyAddressPerEndpoint(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	computes := countComputes(s)
	body, _ := json.Marshal(map[string]string{"asm": testAsm(605), "model": "MinBoost3"})

	firsts := map[string][]byte{}
	for _, path := range []string{"/v1/compile", "/v1/simulate"} {
		resp, b := post(t, ts, path, string(body))
		if resp.StatusCode != http.StatusOK || resp.Header.Get("X-Boostd-Cache") != "miss" {
			t.Fatalf("%s = %d %q, want 200 miss: %s", path, resp.StatusCode, resp.Header.Get("X-Boostd-Cache"), b)
		}
		firsts[path] = b
	}
	var cr CompileResponse
	var sr SimulateResponse
	if err := json.Unmarshal(firsts["/v1/compile"], &cr); err != nil || cr.Listing == "" {
		t.Errorf("compile answered %s (%v)", firsts["/v1/compile"], err)
	}
	if err := json.Unmarshal(firsts["/v1/simulate"], &sr); err != nil || sr.Cycles <= 0 {
		t.Errorf("simulate answered %s (%v)", firsts["/v1/simulate"], err)
	}
	for _, path := range []string{"/v1/simulate", "/v1/compile"} {
		resp, b := post(t, ts, path, string(body))
		if resp.Header.Get("X-Boostd-Cache") != "hit" || !bytes.Equal(b, firsts[path]) {
			t.Errorf("%s repeat = %q %s, want hit %s", path, resp.Header.Get("X-Boostd-Cache"), b, firsts[path])
		}
	}
	if n := computes.Load(); n != 2 {
		t.Errorf("computations = %d, want 2", n)
	}
	if n := s.responses.Aliases(); n != 2 {
		t.Errorf("addresses = %d, want 2", n)
	}
}

// TestAddressedHitsConcurrent: identical bodies that arrive while the
// leader computes join its flight, and those that arrive after it
// finished are answered by address; all of them get the leader's bytes
// from one computation, and every request is one hit or one miss.
func TestAddressedHitsConcurrent(t *testing.T) {
	s, ts := newTestServer(t, Config{MaxInFlight: 2, QueueDepth: 4})
	block := make(chan struct{})
	release := sync.OnceFunc(func() { close(block) })
	t.Cleanup(release) // before the server waits for its requests
	var computes atomic.Int64
	s.computeHook = func(string, keyedRequest) {
		computes.Add(1)
		<-block
	}
	const n = 32
	body := simBody(606, "MinBoost3")
	bodies := make([][]byte, n)
	caches := make([]string, n)
	send := func(lo, hi int) *sync.WaitGroup {
		var wg sync.WaitGroup
		for i := lo; i < hi; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				resp, err := http.Post(ts.URL+"/v1/simulate", "application/json", strings.NewReader(body))
				if err != nil {
					t.Errorf("request %d: %v", i, err)
					return
				}
				defer resp.Body.Close()
				bodies[i], _ = io.ReadAll(resp.Body)
				if resp.StatusCode != http.StatusOK {
					t.Errorf("request %d: status %d: %s", i, resp.StatusCode, bodies[i])
				}
				caches[i] = resp.Header.Get("X-Boostd-Cache")
			}(i)
		}
		return &wg
	}
	early := send(0, n/2)
	waitFor(t, "early requests joined the flight", func() bool {
		hits, misses := s.responses.Stats()
		return misses == 1 && hits == n/2-1
	})
	release()
	early.Wait()
	send(n/2, n).Wait()

	if got := computes.Load(); got != 1 {
		t.Errorf("computations = %d, want 1", got)
	}
	misses := 0
	for i := range bodies {
		if !bytes.Equal(bodies[i], bodies[0]) {
			t.Fatalf("request %d body differs from request 0:\n%s\nvs\n%s", i, bodies[i], bodies[0])
		}
		if caches[i] == "miss" {
			misses++
		}
	}
	if misses != 1 {
		t.Errorf("miss responses = %d, want 1", misses)
	}
	if hits, miss := s.responses.Stats(); hits+miss != n || miss != 1 {
		t.Errorf("response cache stats = (%d, %d), want %d requests with 1 miss", hits, miss, n)
	}
	if got := s.responses.Aliases(); got != 1 {
		t.Errorf("addresses = %d, want 1", got)
	}
}
