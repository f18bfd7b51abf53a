//go:build !race

package boosting_test

// Same-process speed ratio of the artifact cache. Not built under -race,
// which distorts ratios.

import (
	"context"
	"net/http"
	"net/http/httptest"
	"sort"
	"testing"
	"time"

	"boosting"
	"boosting/internal/artifact"
	"boosting/internal/machine"
)

// TestDiskWarmStartRatio checks the point of the disk store: a pipeline
// that decodes grep's artifact from disk must be ready at least 5x sooner
// than one that compiles it (workload construction, register allocation,
// profiling, reference run), at the median of 15 iterations. Each
// iteration times a cold compile, a disk-warm start and a peer-warm start
// (an empty store and the artifact on a boostd peer) in turn, so the
// host's clock speed cancels out of the ratio. The peer-warm start has no
// bound; it is only logged.
func TestDiskWarmStartRatio(t *testing.T) {
	if testing.Short() {
		t.Skip("timing ratio in -short mode")
	}
	ctx := context.Background()
	workload := boosting.WorkloadGrep

	openStore := func(dir string) *artifact.Store {
		st, err := artifact.OpenStore(dir, 0)
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
	// Seed a store with one full compile + simulate, so the stored
	// artifact carries a schedule.
	seedDir := t.TempDir()
	seedCache := artifact.NewCache(openStore(seedDir), nil)
	seedPipe := boosting.NewPipeline(boosting.WithArtifactCache(seedCache))
	seeded, err := seedPipe.Compile(ctx, workload)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := seedPipe.Simulate(ctx, seeded, machine.MinBoost3()); err != nil {
		t.Fatal(err)
	}
	encoded, err := seeded.Artifact().Encode()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := seedCache.Close(); err != nil {
		t.Fatal(err)
	}
	peer := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/v1/artifact/compile|"+workload+"|alloc=true" {
			w.Write(encoded)
			return
		}
		http.NotFound(w, r)
	}))
	defer peer.Close()

	// start times one pipeline's compile through ac (none when nil), which
	// decides the path it takes, and then closes ac.
	start := func(ac *artifact.Cache, wantSource string) time.Duration {
		var opts []boosting.Option
		if ac != nil {
			opts = append(opts, boosting.WithArtifactCache(ac))
		}
		began := time.Now()
		c, err := boosting.NewPipeline(opts...).Compile(ctx, workload)
		elapsed := time.Since(began)
		if err != nil {
			t.Fatal(err)
		}
		if c.Source() != wantSource {
			t.Fatalf("compile source = %q, want %q", c.Source(), wantSource)
		}
		if ac != nil {
			if _, err := ac.Close(); err != nil {
				t.Fatal(err)
			}
		}
		return elapsed
	}
	const iterations = 15
	var cold, disk, peerWarm []time.Duration
	for i := 0; i < iterations; i++ {
		cold = append(cold, start(nil, "compile"))
		disk = append(disk, start(artifact.NewCache(openStore(seedDir), nil), "disk"))
		peers := artifact.NewPeerClient([]string{peer.URL}, 5*time.Second)
		peerWarm = append(peerWarm, start(artifact.NewCache(openStore(t.TempDir()), peers), "peer"))
	}
	coldP50, diskP50, peerP50 := median(cold), median(disk), median(peerWarm)
	t.Logf("p50 of %d: cold compile %v, disk-warm %v (cold takes %.1fx, want >= 5x), peer-warm %v (cold takes %.1fx)",
		iterations, coldP50, diskP50, float64(coldP50)/float64(diskP50), peerP50, float64(coldP50)/float64(peerP50))
	if diskP50*5 > coldP50 {
		t.Errorf("disk-warm start is only %.2fx faster than a cold compile at p50 (%v vs %v), want >= 5x",
			float64(coldP50)/float64(diskP50), diskP50, coldP50)
	}
}

// median returns the middle element of ds in sorted order.
func median(ds []time.Duration) time.Duration {
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return s[len(s)/2]
}
