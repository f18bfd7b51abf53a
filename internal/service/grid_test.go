package service

import (
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
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

// TestGridResponseGolden pins the sha256 of each /v1/grid body below, so
// a change to how the pipeline shares schedules, runs or baselines
// between cells cannot move a byte of what a client reads. Each case runs
// on a fresh server. The cases cover full ablation sweeps (awk schedules
// 10 distinct programs for its 25 cells, eqntott 25), memory sweeps of 2
// and 3 hierarchies at parallelism 1 and 3 over cells whose schedules
// repeat, repeated names, and a row error: the poisoned case installs a
// grep artifact whose reference output is altered, so every grep run
// fails verification. After an intended change to the bodies, the
// failure message prints each case's new digest.
func TestGridResponseGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("grid sweeps in -short mode")
	}
	const (
		ablationModels = `"models": ["NoBoost", "Squashing", "Boost1", "MinBoost3", "Boost7"]`
		memCells       = `"workloads": ["grep", "compress"], "models": ["MinBoost3", "Boost7"], "ablations": ["baseline", "no-disamb"]`
		small          = `{"l1_sets": 64, "l1_ways": 1, "l1_line_bytes": 16}`
		stride         = `{"l1_sets": 64, "l1_ways": 1, "l1_line_bytes": 16, "prefetch": "stride"}`
		stream         = `{"l1_sets": 32, "l1_ways": 2, "l1_line_bytes": 16, "prefetch": "stream"}`
		sweep2         = `"mem_sweep": [` + small + `, ` + stride + `]`
		sweep3         = `"mem_sweep": [` + small + `, ` + stride + `, ` + stream + `]`
	)
	for _, tc := range []struct {
		name, body string
		poison     bool
		want       string
	}{
		{"awk-ablations", `{"workloads": ["awk"], ` + ablationModels + `, "parallelism": 3}`, false,
			"ef1d8ea44509d9a44d9e3e94136008fc9751a5ccf3cf51e47cd00558e3205ea3"},
		{"eqntott-ablations", `{"workloads": ["eqntott"], ` + ablationModels + `, "parallelism": 3}`, false,
			"631f300b2a0db39645cdf071876be5f0957682a22103ea9c2627f82ced2cbd9b"},
		{"sweep2-p1", `{` + memCells + `, "parallelism": 1, ` + sweep2 + `}`, false,
			"cae102cb9bee100ba114a1fbe48660564e065d2e2760bd52c064323ecf1296cb"},
		{"sweep2-p3", `{` + memCells + `, "parallelism": 3, ` + sweep2 + `}`, false,
			"cae102cb9bee100ba114a1fbe48660564e065d2e2760bd52c064323ecf1296cb"},
		{"sweep3-p1", `{` + memCells + `, "parallelism": 1, ` + sweep3 + `}`, false,
			"ed8ff5378e0ab669ed36373f26f9cb1738ca4eb86cfc1c2fbbfa71823153de38"},
		{"sweep3-p3", `{` + memCells + `, "parallelism": 3, ` + sweep3 + `}`, false,
			"ed8ff5378e0ab669ed36373f26f9cb1738ca4eb86cfc1c2fbbfa71823153de38"},
		{"duplicate-names", `{"workloads": ["grep", "grep"], "models": ["MinBoost3", "Boost1", "MinBoost3"],
			"ablations": ["baseline", "no-disamb", "baseline"]}`, false,
			"b4baebadcd04940d5c1570f59a293e41c3a749a1226ce3a305932ae7a892b28b"},
		{"row-error", `{"workloads": ["grep", "compress"], "models": ["NoBoost", "MinBoost3"],
			"ablations": ["baseline", "no-disamb"]}`, true,
			"78d004df23d85c8161a5420bab4013372727b6088b1d8228b4c11a3f22c06a3f"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s, ts := newTestServer(t, Config{GridParallelism: 3})
			if tc.poison {
				ctx := context.Background()
				c, err := boosting.NewPipeline().Compile(ctx, "grep")
				if err != nil {
					t.Fatal(err)
				}
				a := c.Artifact()
				a.Ref.Out = append([]uint32(nil), a.Ref.Out...)
				a.Ref.Out[0]++
				if _, err := s.Pipeline().CompileFromArtifact(ctx, a); err != nil {
					t.Fatal(err)
				}
			}
			resp, b := post(t, ts, "/v1/grid", tc.body)
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("grid = %d: %s", resp.StatusCode, b)
			}
			if got := fmt.Sprintf("%x", sha256.Sum256(b)); got != tc.want {
				t.Errorf("body digest %s, want %s; body:\n%s", got, tc.want, b)
			}
		})
	}
}
