package service

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// BenchmarkSimulateHot measures the dedup fast path: every request hits
// the rendered-response cache.
func BenchmarkSimulateHot(b *testing.B) {
	ts, body := benchServer(b)
	benchPost(b, ts, body) // warm the cache
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchPost(b, ts, body)
	}
}

// BenchmarkSimulateCold measures the full pipeline path: every request
// carries a distinct program, so nothing is reusable.
func BenchmarkSimulateCold(b *testing.B) {
	ts, _ := benchServer(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchPost(b, ts, simBenchBody(1000+i))
	}
}

func benchServer(b *testing.B) (*httptest.Server, string) {
	b.Helper()
	s, err := New(Config{})
	if err != nil {
		b.Fatalf("New: %v", err)
	}
	ts := httptest.NewServer(s.Handler())
	b.Cleanup(ts.Close)
	return ts, simBenchBody(0)
}

func simBenchBody(seed int) string {
	bs, _ := json.Marshal(SimulateRequest{Asm: testAsm(seed), Model: "MinBoost3"})
	return string(bs)
}

func benchPost(tb testing.TB, ts *httptest.Server, body string) {
	resp, err := http.Post(ts.URL+"/v1/simulate", "application/json", strings.NewReader(body))
	if err != nil {
		tb.Fatalf("POST: %v", err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		tb.Fatalf("status %d", resp.StatusCode)
	}
}
