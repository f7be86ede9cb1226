package runctl

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// TestAPIUnversionedRoutesGone pins the route table: every route is
// served under /api/v1 only, so the retired unversioned paths answer 404.
func TestAPIUnversionedRoutesGone(t *testing.T) {
	mgr := NewManager(2, 256)
	ts := httptest.NewServer(NewServer(mgr))
	defer ts.Close()

	info := submitViaPath(t, ts.URL, APIPrefix+"/runs", testSpec("v1-submit", 3, 0.3, 0))
	waitState(t, ts.URL, info.ID, 30*time.Second, func(i Info) bool { return i.State.Terminal() })
	for _, path := range []string{"/healthz", "/runs", "/runs/" + info.ID, "/metrics"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("GET %s: status %d, want 404 (only %s%s is served)", path, resp.StatusCode, APIPrefix, path)
		}
	}
}

func submitViaPath(t *testing.T, base, path string, spec Spec) Info {
	t.Helper()
	body, _ := json.Marshal(spec)
	resp, err := http.Post(base+path, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("submit %s: %v", path, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		b, _ := io.ReadAll(resp.Body)
		t.Fatalf("submit %s: status %d: %s", path, resp.StatusCode, b)
	}
	var info Info
	if err := json.NewDecoder(resp.Body).Decode(&info); err != nil {
		t.Fatalf("submit %s: decode: %v", path, err)
	}
	return info
}

// decodeEnvelope reads a response body as the uniform error envelope.
func decodeEnvelope(t *testing.T, r io.Reader) apiError {
	t.Helper()
	var env struct {
		Error apiError `json:"error"`
	}
	if err := json.NewDecoder(r).Decode(&env); err != nil {
		t.Fatalf("error body is not the envelope: %v", err)
	}
	return env.Error
}

// TestAPIErrorEnvelope pins the uniform error shape and its three codes:
// invalid_spec (400), not_found (404), queue_full (429).
func TestAPIErrorEnvelope(t *testing.T) {
	mgr := NewManagerOpts(Options{Workers: 1, RingCap: 256, QueueDepth: 1})
	ts := httptest.NewServer(NewServer(mgr))
	defer ts.Close()

	resp, err := http.Post(ts.URL+"/api/v1/runs", "application/json", strings.NewReader(`{}`))
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("empty spec: status %d, want 400", resp.StatusCode)
	}
	if e := decodeEnvelope(t, resp.Body); e.Code != CodeInvalidSpec || e.Message == "" {
		t.Fatalf("empty spec envelope: %+v", e)
	}
	resp.Body.Close()

	resp, err = http.Get(ts.URL + "/api/v1/runs/r9999")
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown run: status %d, want 404", resp.StatusCode)
	}
	if e := decodeEnvelope(t, resp.Body); e.Code != CodeNotFound || !strings.Contains(e.Message, "r9999") {
		t.Fatalf("unknown-run envelope: %+v", e)
	}
	resp.Body.Close()

	// Fill the pool and the queue, then overflow: 429 with queue_full.
	running := submitSpec(t, ts.URL, testSpec("running", 1, 10, 20))
	waitState(t, ts.URL, running.ID, 10*time.Second, func(i Info) bool { return i.State == StateRunning })
	submitSpec(t, ts.URL, testSpec("waiting", 2, 10, 20))
	body, _ := json.Marshal(testSpec("overflow", 3, 10, 20))
	resp, err = http.Post(ts.URL+"/api/v1/runs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("overflow submit: status %d, want 429", resp.StatusCode)
	}
	if e := decodeEnvelope(t, resp.Body); e.Code != CodeQueueFull {
		t.Fatalf("overflow envelope: %+v", e)
	}
	resp.Body.Close()
}

// cancelResp is the cancel/DELETE response body.
type cancelResp struct {
	Run           Info  `json:"run"`
	CancelledFrom State `json:"cancelled_from"`
}

func doCancel(t *testing.T, base, id string) cancelResp {
	t.Helper()
	req, _ := http.NewRequest(http.MethodDelete, base+"/api/v1/runs/"+id, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("cancel %s: %v", id, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(resp.Body)
		t.Fatalf("cancel %s: status %d: %s", id, resp.StatusCode, b)
	}
	var cr cancelResp
	if err := json.NewDecoder(resp.Body).Decode(&cr); err != nil {
		t.Fatalf("cancel %s: decode: %v", id, err)
	}
	return cr
}

// TestAPICancelDistinguishesPhases pins the cancel-response contract: the
// body says whether the run was withdrawn from the queue before ever
// starting ("queued") or stopped mid-simulation ("running"), and a
// repeat cancel of a terminal run reports neither.
func TestAPICancelDistinguishesPhases(t *testing.T) {
	mgr := NewManager(1, 256)
	ts := httptest.NewServer(NewServer(mgr))
	defer ts.Close()

	running := submitSpec(t, ts.URL, testSpec("victim", 1, 10, 20))
	queued := submitSpec(t, ts.URL, testSpec("waiter", 2, 10, 20))
	waitState(t, ts.URL, running.ID, 10*time.Second, func(i Info) bool { return i.State == StateRunning })

	// The queued run never started: cancellation is immediate and the
	// body pins the phase, echoed in the run's Info thereafter.
	qr := doCancel(t, ts.URL, queued.ID)
	if qr.CancelledFrom != StateQueued {
		t.Fatalf("queued cancel: cancelled_from=%q, want %q", qr.CancelledFrom, StateQueued)
	}
	if qr.Run.State != StateCancelled || qr.Run.Started != nil {
		t.Fatalf("queued cancel: state=%s started=%v, want cancelled/never-started", qr.Run.State, qr.Run.Started)
	}
	if info := getInfo(t, ts.URL, queued.ID); info.CancelledFrom != StateQueued {
		t.Fatalf("queued cancel not echoed in Info: %q", info.CancelledFrom)
	}

	// The running run is stopped cooperatively; the response lands before
	// the barrier, so its state may still read running — the phase field
	// is the contract.
	rr := doCancel(t, ts.URL, running.ID)
	if rr.CancelledFrom != StateRunning {
		t.Fatalf("running cancel: cancelled_from=%q, want %q", rr.CancelledFrom, StateRunning)
	}
	ri := waitState(t, ts.URL, running.ID, 30*time.Second, func(i Info) bool { return i.State.Terminal() })
	if ri.State != StateCancelled || ri.CancelledFrom != StateRunning {
		t.Fatalf("running cancel: state=%s cancelled_from=%q", ri.State, ri.CancelledFrom)
	}

	// Cancelling a terminal run changes nothing and reports no phase.
	tr := doCancel(t, ts.URL, running.ID)
	if tr.CancelledFrom != "" {
		t.Fatalf("terminal cancel: cancelled_from=%q, want empty", tr.CancelledFrom)
	}
	if tr.Run.State != StateCancelled {
		t.Fatalf("terminal cancel mutated state: %s", tr.Run.State)
	}
}
