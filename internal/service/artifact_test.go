package service

import (
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"testing"

	"boosting"
)

func simWorkloadBody(t *testing.T, workload, model string) string {
	t.Helper()
	b, err := json.Marshal(SimulateRequest{Workload: workload, Model: model})
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestTwoNodePeerFetch is the headline peer-fetch scenario: node A
// compiles a workload, node B — configured with A as a peer and an empty
// disk store — serves the same request by fetching A's artifact,
// running zero local schedule passes.
func TestTwoNodePeerFetch(t *testing.T) {
	if testing.Short() {
		t.Skip("compiles a real workload")
	}
	body := simWorkloadBody(t, boosting.WorkloadGrep, "MinBoost3")

	nodeA, tsA := newTestServer(t, Config{ArtifactDir: t.TempDir()})
	respA, bA := post(t, tsA, "/v1/simulate", body)
	if respA.StatusCode != http.StatusOK {
		t.Fatalf("node A simulate = %d: %s", respA.StatusCode, bA)
	}
	if got := respA.Header.Get("X-Boostd-Artifact"); got != "compile" {
		t.Errorf("node A artifact header = %q, want compile", got)
	}
	if n := nodeA.Pipeline().SchedulePasses(); n == 0 {
		t.Error("node A reports zero schedule passes after a cold compile")
	}

	nodeB, tsB := newTestServer(t, Config{
		ArtifactDir: t.TempDir(),
		Peers:       []string{tsA.URL},
	})
	respB, bB := post(t, tsB, "/v1/simulate", body)
	if respB.StatusCode != http.StatusOK {
		t.Fatalf("node B simulate = %d: %s", respB.StatusCode, bB)
	}
	if got := respB.Header.Get("X-Boostd-Artifact"); got != "peer" {
		t.Errorf("node B artifact header = %q, want peer", got)
	}
	if n := nodeB.Pipeline().SchedulePasses(); n != 0 {
		t.Errorf("node B ran %d schedule passes, want 0 (schedule must come from the peer artifact)", n)
	}

	var srA, srB SimulateResponse
	if err := json.Unmarshal(bA, &srA); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(bB, &srB); err != nil {
		t.Fatal(err)
	}
	if srA.Cycles != srB.Cycles || srA.ScalarCycles != srB.ScalarCycles || srA.OutLen != srB.OutLen {
		t.Errorf("peer-served results differ: A cycles=%d/%d out=%d, B cycles=%d/%d out=%d",
			srA.Cycles, srA.ScalarCycles, srA.OutLen, srB.Cycles, srB.ScalarCycles, srB.OutLen)
	}
}

// TestDiskWarmRestart proves the artifact store survives a daemon
// restart: a second server over the same directory serves the compile
// from disk without a schedule pass.
func TestDiskWarmRestart(t *testing.T) {
	if testing.Short() {
		t.Skip("compiles a real workload")
	}
	dir := t.TempDir()
	body := simWorkloadBody(t, boosting.WorkloadGrep, "MinBoost3")

	nodeA, tsA := newTestServer(t, Config{ArtifactDir: dir})
	if resp, b := post(t, tsA, "/v1/simulate", body); resp.StatusCode != http.StatusOK {
		t.Fatalf("first simulate = %d: %s", resp.StatusCode, b)
	}
	persisted, err := nodeA.Close()
	if err != nil {
		t.Fatalf("close: %v", err)
	}
	if persisted == 0 {
		t.Fatal("no artifacts persisted by the first daemon")
	}

	nodeB, tsB := newTestServer(t, Config{ArtifactDir: dir})
	resp, b := post(t, tsB, "/v1/simulate", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("warm simulate = %d: %s", resp.StatusCode, b)
	}
	if got := resp.Header.Get("X-Boostd-Artifact"); got != "disk" {
		t.Errorf("warm artifact header = %q, want disk", got)
	}
	if n := nodeB.Pipeline().SchedulePasses(); n != 0 {
		t.Errorf("warm start ran %d schedule passes, want 0", n)
	}
}

func TestArtifactEndpoint(t *testing.T) {
	if testing.Short() {
		t.Skip("compiles a real workload")
	}
	s, ts := newTestServer(t, Config{ArtifactDir: t.TempDir()})
	if resp, b := post(t, ts, "/v1/simulate", simWorkloadBody(t, boosting.WorkloadGrep, "MinBoost3")); resp.StatusCode != http.StatusOK {
		t.Fatalf("simulate = %d: %s", resp.StatusCode, b)
	}
	_ = s

	key := url.PathEscape(fmt.Sprintf("compile|%s|alloc=true", boosting.WorkloadGrep))
	resp, b := get(t, ts, "/v1/artifact/"+key)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("artifact fetch = %d: %s", resp.StatusCode, b)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/octet-stream" {
		t.Errorf("content type = %q", ct)
	}
	a, err := boosting.DecodeArtifact(b)
	if err != nil {
		t.Fatalf("served artifact does not decode: %v", err)
	}
	if a.Workload != boosting.WorkloadGrep {
		t.Errorf("artifact workload = %q", a.Workload)
	}

	if resp, _ := get(t, ts, "/v1/artifact/no-such-key"); resp.StatusCode != http.StatusNotFound {
		t.Errorf("missing key = %d, want 404", resp.StatusCode)
	}
	if resp, _ := post(t, ts, "/v1/artifact/"+key, ""); resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("POST artifact = %d, want 405", resp.StatusCode)
	}
}

func TestArtifactEndpointDisabled(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, b := get(t, ts, "/v1/artifact/any")
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("disabled store fetch = %d, want 404", resp.StatusCode)
	}
	if !strings.Contains(string(b), "artifact store disabled") {
		t.Errorf("disabled store body = %s", b)
	}
}

// TestSchemaVersionOnEveryResponse asserts the versioned wire contract:
// every /v1 JSON body — success or error — carries schema_version.
func TestSchemaVersionOnEveryResponse(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	assertVersion := func(name string, body []byte) {
		t.Helper()
		var v struct {
			SchemaVersion *int `json:"schema_version"`
		}
		if err := json.Unmarshal(body, &v); err != nil {
			t.Fatalf("%s: response is not JSON: %v", name, err)
		}
		if v.SchemaVersion == nil || *v.SchemaVersion != SchemaVersion {
			t.Errorf("%s: schema_version = %v, want %d: %s", name, v.SchemaVersion, SchemaVersion, body)
		}
	}

	cb, _ := json.Marshal(CompileRequest{Asm: testAsm(90001), Model: "MinBoost3"})
	if resp, b := post(t, ts, "/v1/compile", string(cb)); resp.StatusCode == http.StatusOK {
		assertVersion("compile", b)
	} else {
		t.Fatalf("compile = %d: %s", resp.StatusCode, b)
	}
	if resp, b := post(t, ts, "/v1/simulate", simBody(90002, "MinBoost3")); resp.StatusCode == http.StatusOK {
		assertVersion("simulate", b)
	} else {
		t.Fatalf("simulate = %d: %s", resp.StatusCode, b)
	}
	if !testing.Short() {
		gb, _ := json.Marshal(GridRequest{
			Workloads: []string{boosting.WorkloadGrep},
			Models:    []string{"MinBoost3"},
			Ablations: []string{"baseline"},
		})
		if resp, b := post(t, ts, "/v1/grid", string(gb)); resp.StatusCode == http.StatusOK {
			assertVersion("grid", b)
		} else {
			t.Fatalf("grid = %d: %s", resp.StatusCode, b)
		}
	}
	if _, b := get(t, ts, "/healthz"); true {
		assertVersion("healthz", b)
	}
	// Error bodies carry it too.
	if resp, b := post(t, ts, "/v1/simulate", `{"model":"MinBoost3"}`); resp.StatusCode == http.StatusBadRequest {
		assertVersion("error", b)
	} else {
		t.Fatalf("invalid simulate = %d, want 400", resp.StatusCode)
	}
}

// TestEncodingFailureCarriesSchemaVersion: when json.Marshal rejects a
// value, writeJSON answers 500 with a fallback body that still carries
// the current schema version, like every other body.
func TestEncodingFailureCarriesSchemaVersion(t *testing.T) {
	rec := httptest.NewRecorder()
	if code := writeJSON(rec, http.StatusOK, math.Inf(1)); code != http.StatusInternalServerError {
		t.Errorf("writeJSON returned %d, want 500", code)
	}
	if rec.Code != http.StatusInternalServerError {
		t.Errorf("status = %d, want 500", rec.Code)
	}
	var v struct {
		SchemaVersion int    `json:"schema_version"`
		Error         string `json:"error"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &v); err != nil {
		t.Fatalf("fallback body is not JSON: %v: %s", err, rec.Body.Bytes())
	}
	if v.SchemaVersion != SchemaVersion || v.Error == "" {
		t.Errorf("fallback body = %+v, want schema_version %d and an error", v, SchemaVersion)
	}
}

// TestEngineOptionRejected: schema version 3 removed the simulator-engine
// selector, so options.engine — whatever its value — gets the same 400
// as any unknown field, and a successful response carries no engine.
func TestEngineOptionRejected(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	for _, engine := range []string{"fast", "legacy"} {
		body := fmt.Sprintf(`{"asm":%q,"model":"MinBoost3","options":{"engine":%q}}`, testAsm(90004), engine)
		resp, b := post(t, ts, "/v1/simulate", body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("engine %q = %d, want 400: %s", engine, resp.StatusCode, b)
		}
		if !strings.Contains(string(b), `unknown field \"engine\"`) {
			t.Errorf("engine %q: error body does not name the unknown field: %s", engine, b)
		}
	}
	body := fmt.Sprintf(`{"asm":%q,"model":"MinBoost3"}`, testAsm(90005))
	resp, b := post(t, ts, "/v1/simulate", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("simulate = %d: %s", resp.StatusCode, b)
	}
	if strings.Contains(string(b), `"engine"`) {
		t.Errorf("response carries engine: %s", b)
	}
}
