package service

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"boosting"
)

// TestGridRowErrors: a failing cell reports its error in its own row and
// the other cells still run. grep's installed artifact carries an
// altered reference output, so every grep run fails verification.
func TestGridRowErrors(t *testing.T) {
	if testing.Short() {
		t.Skip("grid sweep in -short mode")
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

	resp, b := post(t, ts, "/v1/grid", `{"workloads": ["grep", "compress"], "models": ["NoBoost"], "ablations": ["baseline"]}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("grid = %d: %s", resp.StatusCode, b)
	}
	var gr GridResponse
	if err := json.Unmarshal(b, &gr); err != nil {
		t.Fatalf("decoding: %v", err)
	}
	if len(gr.Rows) != 2 || gr.Rows[0].Workload != "grep" || gr.Rows[1].Workload != "compress" {
		t.Fatalf("want rows grep, compress: %s", b)
	}
	if !strings.Contains(gr.Rows[0].Error, "verification failed") || gr.Rows[0].Cycles != 0 {
		t.Errorf("grep row = %+v, want a verification error", gr.Rows[0])
	}
	if gr.Rows[1].Error != "" || gr.Rows[1].Cycles <= 0 {
		t.Errorf("compress row = %+v, want a result", gr.Rows[1])
	}
}

// TestGridParallelism: a grid request runs min(server cap, requested)
// cells at a time. Each cell compiles a different workload, and the
// compile first asks the artifact peer, which holds every request until
// more than want are in flight or half a second has passed, and counts
// the most it held at once.
func TestGridParallelism(t *testing.T) {
	if testing.Short() {
		t.Skip("compiles three workloads per case")
	}
	for _, tc := range []struct {
		name              string
		server, req, want int
	}{
		{"request below cap", 3, 2, 2},
		{"cap below request", 2, 3, 2},
		{"request unset", 2, 0, 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var inFlight, most atomic.Int32
			over := make(chan struct{})
			peer := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				n := inFlight.Add(1)
				defer inFlight.Add(-1)
				for m := most.Load(); n > m && !most.CompareAndSwap(m, n); m = most.Load() {
				}
				if n == int32(tc.want)+1 {
					close(over)
				}
				select {
				case <-over:
				case <-time.After(500 * time.Millisecond):
				}
				http.NotFound(w, r)
			}))
			defer peer.Close()
			s, ts := newTestServer(t, Config{
				ArtifactDir:     t.TempDir(),
				Peers:           []string{peer.URL},
				GridParallelism: tc.server,
			})
			t.Cleanup(func() { s.Close() })
			body, _ := json.Marshal(GridRequest{
				Workloads:   []string{"grep", "compress", "eqntott"},
				Models:      []string{"NoBoost"},
				Ablations:   []string{"baseline"},
				Parallelism: tc.req,
			})
			if resp, b := post(t, ts, "/v1/grid", string(body)); resp.StatusCode != http.StatusOK {
				t.Fatalf("grid = %d: %s", resp.StatusCode, b)
			}
			if got := most.Load(); got != int32(tc.want) {
				t.Errorf("%d cells ran at once, want %d", got, tc.want)
			}
		})
	}
}

// TestGridCancelledHasNoBody: a grid whose context ends answers no
// status and no body, in both forms, so nothing is cached for it.
func TestGridCancelledHasNoBody(t *testing.T) {
	s, _ := newTestServer(t, Config{})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	small := &MemRequest{L1Sets: 64, L1Ways: 1, L1LineBytes: 16}
	for _, req := range []GridRequest{
		{Workloads: []string{"grep"}, Models: []string{"MinBoost3"}},
		{Workloads: []string{"grep"}, Models: []string{"MinBoost3"}, MemSweep: []*MemRequest{small}},
	} {
		if status, v := s.grid(ctx, req); status != 0 || v != nil {
			t.Errorf("cancelled grid (mem_sweep %d) = %d, %v; want 0, nil", len(req.MemSweep), status, v)
		}
	}
}
