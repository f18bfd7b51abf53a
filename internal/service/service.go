// Package service implements boostd's simulation-as-a-service layer: an
// HTTP/JSON API (stdlib net/http only) that exposes the staged
// boosting.Pipeline as long-lived endpoints.
//
//	POST /v1/compile   assembly in → scheduled assembly + schedule stats
//	POST /v1/simulate  workload or assembly + machine config in →
//	                   verified cycle counts + speculation stats
//	POST /v1/grid      ablation sweep run as one Pipeline.Grid
//	GET  /healthz      liveness
//	GET  /metrics      Prometheus text format (hand-rolled)
//
// Robustness model: a bounded admission queue applies backpressure (429 +
// Retry-After when full) instead of queueing unboundedly; every request
// runs under a deadline with context cancellation threaded into the
// pipeline; request bodies are size-limited; panics are isolated per
// request and converted to 500 without killing the daemon.
//
// Hot-path model: responses are keyed by (program hash, full config) in
// an internal/cache.Memo singleflight store, so identical requests —
// including concurrent identical requests — compute once and replay as
// byte-identical bodies. Deduplicated waiters do not consume admission
// slots; only the computing leader does. See docs/SERVICE.md.
package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/url"
	"runtime"
	"strconv"
	"strings"
	"time"

	"boosting"
	"boosting/internal/artifact"
	"boosting/internal/cache"
)

// Config parameterizes the server. The zero value is usable: every field
// falls back to the documented default.
type Config struct {
	// MaxInFlight bounds concurrently executing requests
	// (default GOMAXPROCS).
	MaxInFlight int
	// QueueDepth bounds requests waiting for an execution slot
	// (default 64). Beyond MaxInFlight+QueueDepth waiting/running
	// requests, new work is rejected with 429.
	QueueDepth int
	// RequestTimeout is the per-request deadline (default 60s).
	RequestTimeout time.Duration
	// MaxBodyBytes limits request bodies (default 1 MiB).
	MaxBodyBytes int64
	// RetryAfter is the hint returned with 429 responses (default 1s).
	RetryAfter time.Duration
	// GridParallelism bounds one grid request's internal worker pool
	// (default GOMAXPROCS); a request may ask for less but not more.
	GridParallelism int
	// GridCellCap rejects grid sweeps larger than this many cells
	// (default 1024).
	GridCellCap int
	// MaxRefSteps bounds the reference interpreter on assembly inputs,
	// so a non-terminating program cannot pin an execution slot for its
	// full deadline (default 20M steps).
	MaxRefSteps int64
	// ArtifactDir, when non-empty, enables the persistent compile-artifact
	// cache: a content-addressed disk store rooted there, consulted before
	// compiling and written through after, plus the GET /v1/artifact/{key}
	// endpoint that serves entries to peer nodes.
	ArtifactDir string
	// ArtifactMaxBytes caps the disk store; least-recently-used entries
	// are evicted beyond it (default 256 MiB).
	ArtifactMaxBytes int64
	// Peers lists sibling boostd base URLs; on an artifact-cache miss the
	// server asks each peer before compiling locally. Only meaningful with
	// ArtifactDir set.
	Peers []string
	// PeerTimeout bounds each individual peer fetch (default 5s).
	PeerTimeout time.Duration
}

func (c Config) withDefaults() Config {
	if c.MaxInFlight <= 0 {
		c.MaxInFlight = runtime.GOMAXPROCS(0)
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 64
	}
	if c.RequestTimeout <= 0 {
		c.RequestTimeout = 60 * time.Second
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 1 << 20
	}
	if c.RetryAfter <= 0 {
		c.RetryAfter = time.Second
	}
	if c.GridParallelism <= 0 {
		c.GridParallelism = runtime.GOMAXPROCS(0)
	}
	if c.GridCellCap <= 0 {
		c.GridCellCap = 1024
	}
	if c.MaxRefSteps <= 0 {
		c.MaxRefSteps = 20_000_000
	}
	if c.ArtifactMaxBytes <= 0 {
		c.ArtifactMaxBytes = 256 << 20
	}
	if c.PeerTimeout <= 0 {
		c.PeerTimeout = 5 * time.Second
	}
	return c
}

// cachedResponse is a fully rendered response: replaying it is a header
// write plus a body copy, which is what makes deduplicated responses
// byte-identical by construction.
type cachedResponse struct {
	status int
	body   []byte
	// artifactSource records where the compiled program came from
	// ("compile", "disk", "peer"); replayed as the X-Boostd-Artifact
	// header. Empty when the endpoint did not touch the pipeline.
	artifactSource string
}

// Server is the boostd HTTP service. Create with New, mount via Handler.
type Server struct {
	cfg       Config
	pipe      *boosting.Pipeline
	responses *cache.Memo[*cachedResponse]
	queue     *admitQueue
	metrics   *metricsRegistry
	mux       *http.ServeMux

	// artifacts is the persistent artifact cache (nil when ArtifactDir is
	// unset).
	artifacts *artifact.Cache

	// computeHook, when non-nil, runs inside the admission slot right
	// before a cache-miss computation. Tests use it to hold slots open,
	// count real executions, and inject panics.
	computeHook func(endpoint string, req keyedRequest)
}

var heavyEndpoints = []string{"/v1/compile", "/v1/simulate", "/v1/grid"}

// New builds a Server around a fresh boosting.Pipeline. It fails only
// when the configured artifact store cannot be opened.
func New(cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	var (
		ac       *artifact.Cache
		pipeOpts []boosting.Option
	)
	if cfg.ArtifactDir != "" {
		store, err := artifact.OpenStore(cfg.ArtifactDir, cfg.ArtifactMaxBytes)
		if err != nil {
			return nil, err
		}
		ac = artifact.NewCache(store, artifact.NewPeerClient(cfg.Peers, cfg.PeerTimeout))
		pipeOpts = append(pipeOpts, boosting.WithArtifactCache(ac))
	}
	s := &Server{
		cfg:       cfg,
		pipe:      boosting.NewPipeline(pipeOpts...),
		responses: cache.NewMemo[*cachedResponse](),
		queue:     newAdmitQueue(cfg.MaxInFlight, cfg.QueueDepth),
		metrics:   newMetricsRegistry(append(heavyEndpoints, "/v1/artifact", "/healthz", "/metrics")),
		mux:       http.NewServeMux(),
		artifacts: ac,
	}
	s.metrics.queueDepth = s.queue.Depth
	s.metrics.inFlight = s.queue.InFlight
	s.metrics.respCache = s.responses.Stats
	s.metrics.pipeCache = s.pipe.CacheStats
	if ac != nil {
		s.metrics.artifactStats = ac.Stats
	}

	s.mux.Handle("/v1/compile", heavyHandler(s, "/v1/compile", s.compile))
	s.mux.Handle("/v1/simulate", heavyHandler(s, "/v1/simulate", s.simulate))
	s.mux.Handle("/v1/grid", heavyHandler(s, "/v1/grid", s.grid))
	s.mux.HandleFunc("/v1/artifact/", s.handleArtifact)
	s.mux.HandleFunc("/healthz", s.healthz)
	s.mux.HandleFunc("/metrics", s.handleMetrics)
	return s, nil
}

// Handler returns the daemon's HTTP handler.
func (s *Server) Handler() http.Handler { return s.mux }

// Close flushes in-flight artifact-store writes and shuts the store
// down, returning the number of artifacts this process persisted. Call
// it after draining HTTP traffic so a SIGTERM'd node never leaves torn
// cache entries. With no artifact store configured it is a no-op.
func (s *Server) Close() (persisted int64, err error) {
	if s.artifacts == nil {
		return 0, nil
	}
	return s.artifacts.Close()
}

// Pipeline exposes the server's pipeline for tests that assert on
// schedule-pass counts.
func (s *Server) Pipeline() *boosting.Pipeline { return s.pipe }

// handleArtifact serves GET /v1/artifact/{key}: the raw encoded artifact
// bytes stored under a pipeline cache key, for sibling boostd nodes.
func (s *Server) handleArtifact(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	code := s.serveArtifact(w, r)
	s.metrics.endpoint("/v1/artifact").record(code, time.Since(start).Seconds())
}

func (s *Server) serveArtifact(w http.ResponseWriter, r *http.Request) int {
	if r.Method != http.MethodGet {
		w.Header().Set("Allow", http.MethodGet)
		return writeJSON(w, http.StatusMethodNotAllowed, errorResponse{"use GET"})
	}
	if s.artifacts == nil {
		return writeJSON(w, http.StatusNotFound, errorResponse{"artifact store disabled"})
	}
	key, err := url.PathUnescape(strings.TrimPrefix(r.URL.EscapedPath(), "/v1/artifact/"))
	if err != nil || key == "" {
		return writeJSON(w, http.StatusBadRequest, errorResponse{"bad artifact key"})
	}
	// Flush queued writes first so an artifact saved by a just-finished
	// compile is immediately visible to the peer asking for it. The disk
	// tier alone is consulted — peer requests never cascade to further
	// peers, so fetch loops are impossible by construction.
	s.artifacts.Flush()
	data, ok := s.artifacts.GetRaw(key)
	if !ok {
		return writeJSON(w, http.StatusNotFound, errorResponse{"artifact not found"})
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.WriteHeader(http.StatusOK)
	w.Write(data)
	return http.StatusOK
}

// keyedRequest is a decoded request body that can validate itself and
// derive its response-cache key.
type keyedRequest interface {
	validate() error
	cacheKey() string
}

// statusClientClosed mirrors the de-facto 499 "client closed request"
// code; it is only ever recorded in metrics, never sent on the wire.
const statusClientClosed = 499

// artifactSourceKey carries a per-request slot for the compiled
// program's provenance through the compute functions.
type artifactSourceKey struct{}

// withArtifactSource attaches a fresh provenance slot to ctx and returns
// it for the leader to read back after compute finishes.
func withArtifactSource(ctx context.Context) (context.Context, *string) {
	src := new(string)
	return context.WithValue(ctx, artifactSourceKey{}, src), src
}

// setArtifactSource records the compiled program's provenance for the
// current request, if a slot is attached.
func setArtifactSource(ctx context.Context, source string) {
	if p, ok := ctx.Value(artifactSourceKey{}).(*string); ok {
		*p = source
	}
}

// heavyHandler wraps a typed compute endpoint with the full serving
// discipline: method/body checks, decode+validate, response-cache lookup
// with singleflight dedup, bounded admission with backpressure,
// per-request deadline, panic isolation, and metrics.
func heavyHandler[R keyedRequest](s *Server, endpoint string, compute func(ctx context.Context, req R) (int, any)) http.Handler {
	em := s.metrics.endpoint(endpoint)
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		code := serveHeavy(s, endpoint, em, compute, w, r)
		em.record(code, time.Since(start).Seconds())
	})
}

// serveHeavy handles one request and returns the status code recorded in
// metrics (statusClientClosed when the client vanished first).
func serveHeavy[R keyedRequest](s *Server, endpoint string, em *endpointMetrics,
	compute func(ctx context.Context, req R) (int, any),
	w http.ResponseWriter, r *http.Request) int {

	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		return writeJSON(w, http.StatusMethodNotAllowed, errorResponse{"use POST"})
	}
	body, status, err := readBody(w, r, s.cfg.MaxBodyBytes)
	if err != nil {
		return writeJSON(w, status, errorResponse{err.Error()})
	}
	var req R
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		return writeJSON(w, http.StatusBadRequest, errorResponse{"invalid JSON body: " + err.Error()})
	}
	if err := req.validate(); err != nil {
		return writeJSON(w, http.StatusBadRequest, errorResponse{err.Error()})
	}

	ctx, cancel := context.WithTimeout(r.Context(), s.cfg.RequestTimeout)
	defer cancel()

	key := req.cacheKey()
	computed := false
	resp, err := s.responses.Do(ctx, key, func() (cr *cachedResponse, retErr error) {
		// Only the computing leader passes admission control;
		// deduplicated waiters cost nothing to serve.
		if aerr := s.queue.Acquire(ctx); aerr != nil {
			return nil, aerr
		}
		defer s.queue.Release()
		computed = true
		// Panic isolation: a panicking computation becomes a 500 for the
		// leader and every deduplicated waiter; the daemon lives on.
		defer func() {
			if rec := recover(); rec != nil {
				s.metrics.panics.Add(1)
				cr, retErr = nil, fmt.Errorf("internal panic: %v", rec)
			}
		}()
		if s.computeHook != nil {
			s.computeHook(endpoint, req)
		}
		cctx, srcp := withArtifactSource(ctx)
		status, v := compute(cctx, req)
		if cerr := ctx.Err(); cerr != nil {
			return nil, cerr
		}
		if status == 0 {
			// Compute bailed out on a context it saw as done; if ours is
			// somehow alive, fail the request rather than cache a hole.
			return nil, fmt.Errorf("internal: compute returned no result")
		}
		b, merr := json.Marshal(v)
		if merr != nil {
			return nil, fmt.Errorf("marshal response: %w", merr)
		}
		return &cachedResponse{status: status, body: append(b, '\n'), artifactSource: *srcp}, nil
	})

	switch {
	case err == nil:
	case errors.Is(err, ErrSaturated):
		// A full queue says nothing about the request itself: forget the
		// key so the next identical request is re-admitted.
		s.responses.Forget(key)
		em.rejected.Add(1)
		w.Header().Set("Retry-After", strconv.Itoa(retryAfterSeconds(s.cfg.RetryAfter)))
		return writeJSON(w, http.StatusTooManyRequests, errorResponse{"server saturated, retry later"})
	case errors.Is(err, context.Canceled):
		// Client went away; nothing useful can be written.
		return statusClientClosed
	case errors.Is(err, context.DeadlineExceeded):
		return writeJSON(w, http.StatusServiceUnavailable, errorResponse{"request deadline exceeded"})
	default:
		// Panics and other non-deterministic failures: do not cache.
		s.responses.Forget(key)
		return writeJSON(w, http.StatusInternalServerError, errorResponse{err.Error()})
	}

	if computed {
		w.Header().Set("X-Boostd-Cache", "miss")
	} else {
		w.Header().Set("X-Boostd-Cache", "hit")
	}
	if resp.artifactSource != "" {
		w.Header().Set("X-Boostd-Artifact", resp.artifactSource)
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(resp.status)
	w.Write(resp.body)
	return resp.status
}

func retryAfterSeconds(d time.Duration) int {
	secs := int((d + time.Second - 1) / time.Second)
	if secs < 1 {
		secs = 1
	}
	return secs
}

// readBody drains the size-limited request body, distinguishing an
// oversized body (413) from an unreadable one (400).
func readBody(w http.ResponseWriter, r *http.Request, limit int64) ([]byte, int, error) {
	lr := http.MaxBytesReader(w, r.Body, limit)
	defer lr.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(lr); err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			return nil, http.StatusRequestEntityTooLarge,
				fmt.Errorf("request body exceeds %d bytes", limit)
		}
		return nil, http.StatusBadRequest, fmt.Errorf("reading body: %w", err)
	}
	return buf.Bytes(), http.StatusOK, nil
}

func writeJSON(w http.ResponseWriter, status int, v any) int {
	b, err := json.Marshal(v)
	if err != nil {
		status = http.StatusInternalServerError
		b = fmt.Appendf(nil, `{"schema_version":%d,"error":"encoding failure"}`, SchemaVersion)
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	w.Write(append(b, '\n'))
	return status
}

func (s *Server) healthz(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	code := writeJSON(w, http.StatusOK, map[string]any{"schema_version": SchemaVersion, "status": "ok"})
	s.metrics.endpoint("/healthz").record(code, time.Since(start).Seconds())
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	s.metrics.WritePrometheus(w)
	s.metrics.endpoint("/metrics").record(http.StatusOK, time.Since(start).Seconds())
}
