// HTTP surface of the run-control daemon. Every route lives under the
// versioned /api/v1 prefix; unversioned paths answer 404. Errors are a
// uniform JSON envelope:
//
//	{"error": {"code": "<machine_code>", "message": "<human text>"}}
//
// with codes invalid_spec (400), not_found (404) and queue_full (429).
//
// Routes (Go 1.22 method patterns, shown without the /api/v1 prefix):
//
//	GET    /healthz               liveness probe
//	GET    /runs                  list runs (JSON)
//	POST   /runs                  submit a Spec, returns 202 + Info
//	                              (429 queue_full when the admission
//	                              queue is at capacity)
//	GET    /runs/{id}             one run's Info
//	POST   /runs/{id}/cancel      request cancellation; the Info body's
//	                              cancelled_from distinguishes a queued
//	                              run withdrawn before starting from a
//	                              running simulation being stopped
//	DELETE /runs/{id}             same as cancel
//	GET    /runs/{id}/metrics     live NDJSON stream of per-window
//	                              records (replay + follow until the run
//	                              finishes); ?follow=0 dumps and returns,
//	                              ?format=prom serves a per-run
//	                              Prometheus snapshot instead
//	GET    /runs/{id}/trace       flight recording as Chrome trace-event
//	                              JSON (load in ui.perfetto.dev); works
//	                              live and after the run
//	GET    /runs/{id}/straggler   straggler/critical-path analysis of the
//	                              recording (JSON; ?format=text for the
//	                              human summary, ?k=N for the ranking
//	                              depth)
//	GET    /runs/{id}/profile     measured traffic profile captured from
//	                              the run (massf-profile text format);
//	                              resubmit it in Spec.Profile to drive
//	                              PROF/HPROF from measured rates
//	GET    /runs/{id}/faults      per-fault reconvergence report of a
//	                              finished run: physical time, BGP update
//	                              messages, modeled convergence delay,
//	                              when new routes took effect, attributed
//	                              packet loss (JSON; 404 while in flight
//	                              or for fault-free runs)
//	GET    /runs/{id}/net/links   per-link utilization/queue/drop report
//	                              from the netmon plane (?top=N busiest
//	                              directions, default 32; ?series=1 adds
//	                              the windowed series; 404 when the spec
//	                              did not enable netmon)
//	GET    /runs/{id}/net/flows   per-flow TCP records + flow-completion-
//	                              time histogram (?samples=1 adds the
//	                              SRTT/cwnd trajectories)
//	GET    /runs/{id}/net/paths   sampled packet paths stitched from hop
//	                              spans (requires net_sample > 0)
//	GET    /runs/{id}/net/stream  live NDJSON stream of flow completions
//	                              (replay + follow, like /metrics)
//	GET    /metrics               aggregate Prometheus exposition across
//	                              all runs (run="<id>" labels)
package runctl

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"strings"

	"massf/internal/flight"
	"massf/internal/netmon"
	"massf/internal/telemetry"
)

// maxSpecBytes bounds a submission body (DML uploads included).
const maxSpecBytes = 64 << 20

// APIPrefix is the canonical versioned route prefix.
const APIPrefix = "/api/v1"

// Server exposes a Manager over HTTP.
type Server struct {
	m   *Manager
	mux *http.ServeMux
}

// NewServer builds the HTTP front end for m.
func NewServer(m *Manager) *Server {
	s := &Server{m: m, mux: http.NewServeMux()}
	s.handle("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
		fmt.Fprintln(w, "ok")
	})
	s.handle("GET /runs", s.listRuns)
	s.handle("POST /runs", s.submitRun)
	s.handle("GET /runs/{id}", s.getRun)
	s.handle("POST /runs/{id}/cancel", s.cancelRun)
	s.handle("DELETE /runs/{id}", s.cancelRun)
	s.handle("GET /runs/{id}/metrics", s.runMetrics)
	s.handle("GET /runs/{id}/trace", s.runTrace)
	s.handle("GET /runs/{id}/straggler", s.runStraggler)
	s.handle("GET /runs/{id}/profile", s.runProfile)
	s.handle("GET /runs/{id}/faults", s.runFaults)
	s.handle("GET /runs/{id}/net/links", s.runNetLinks)
	s.handle("GET /runs/{id}/net/flows", s.runNetFlows)
	s.handle("GET /runs/{id}/net/paths", s.runNetPaths)
	s.handle("GET /runs/{id}/net/stream", s.runNetStream)
	s.handle("GET /metrics", s.aggregateMetrics)
	return s
}

// handle registers one route, "METHOD /path", under APIPrefix.
func (s *Server) handle(pattern string, h http.HandlerFunc) {
	method, path, ok := strings.Cut(pattern, " ")
	if !ok {
		panic("runctl: route pattern must be \"METHOD /path\": " + pattern)
	}
	s.mux.HandleFunc(method+" "+APIPrefix+path, h)
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

// Error codes of the uniform error envelope.
const (
	CodeInvalidSpec = "invalid_spec"
	CodeNotFound    = "not_found"
	CodeQueueFull   = "queue_full"
)

// apiError is the uniform JSON error envelope:
// {"error": {"code", "message"}}.
type apiError struct {
	Code    string `json:"code"`
	Message string `json:"message"`
}

func writeError(w http.ResponseWriter, status int, code string, err error) {
	writeJSON(w, status, map[string]apiError{
		"error": {Code: code, Message: err.Error()},
	})
}

func writeNotFound(w http.ResponseWriter, err error) {
	writeError(w, http.StatusNotFound, CodeNotFound, err)
}

func (s *Server) listRuns(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{"runs": s.m.List()})
}

func (s *Server) submitRun(w http.ResponseWriter, r *http.Request) {
	var spec Spec
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxSpecBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		writeError(w, http.StatusBadRequest, CodeInvalidSpec, fmt.Errorf("runctl: bad spec: %w", err))
		return
	}
	run, err := s.m.Submit(spec)
	if err != nil {
		if errors.Is(err, ErrQueueFull) {
			writeError(w, http.StatusTooManyRequests, CodeQueueFull, err)
			return
		}
		writeError(w, http.StatusBadRequest, CodeInvalidSpec, err)
		return
	}
	writeJSON(w, http.StatusAccepted, run.Info())
}

func (s *Server) getRun(w http.ResponseWriter, r *http.Request) {
	run, ok := s.m.Get(r.PathValue("id"))
	if !ok {
		writeNotFound(w, fmt.Errorf("runctl: no run %q", r.PathValue("id")))
		return
	}
	writeJSON(w, http.StatusOK, run.Info())
}

// cancelRun requests cancellation. The response body distinguishes the
// two live cases: a queued run is withdrawn without ever starting
// (cancelled_from "queued", state already "cancelled") while a running
// simulation is stopped at its next barrier (cancelled_from "running").
// Cancelling an already-terminal run is a no-op echo of its Info.
func (s *Server) cancelRun(w http.ResponseWriter, r *http.Request) {
	run, from, ok := s.m.Cancel(r.PathValue("id"))
	if !ok {
		writeNotFound(w, fmt.Errorf("runctl: no run %q", r.PathValue("id")))
		return
	}
	info := run.Info()
	writeJSON(w, http.StatusOK, map[string]any{
		"run":            info,
		"cancelled_from": cancelPhase(from),
	})
}

// cancelPhase maps the state a cancel request observed to the response's
// cancelled_from value: only queued and running runs are actually
// affected; terminal states report empty (nothing was cancelled).
func cancelPhase(from State) State {
	if from == StateQueued || from == StateRunning {
		return from
	}
	return ""
}

// runMetrics streams one run's per-window telemetry as NDJSON: the
// ring's retained history first, then live records as barriers complete,
// ending when the run reaches a terminal state (the ring closes) or the
// client disconnects.
func (s *Server) runMetrics(w http.ResponseWriter, r *http.Request) {
	run, ok := s.m.Get(r.PathValue("id"))
	if !ok {
		writeNotFound(w, fmt.Errorf("runctl: no run %q", r.PathValue("id")))
		return
	}
	if r.URL.Query().Get("format") == "prom" {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		telemetry.WritePrometheus(w, run.Tel.Reg.Gather(telemetry.Label{Key: "run", Value: run.ID}))
		return
	}
	past, ch, cancel := run.Tel.Windows.Subscribe(1024)
	defer cancel()
	// The ring closes after the run has turned terminal.
	streamNDJSON(w, r, past, ch, func() {})
}

// streamNDJSON serves a live NDJSON stream: the replayed history first,
// then — unless ?follow=0 — records as they arrive, until ch closes or
// the client goes away. A burst of buffered records is flushed once, so a
// fast simulation does not force one flush per record. end runs after ch
// closes, before the response ends.
func streamNDJSON[T any](w http.ResponseWriter, r *http.Request, past []T, ch <-chan T, end func()) {
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.Header().Set("Cache-Control", "no-store")
	w.WriteHeader(http.StatusOK)
	enc := json.NewEncoder(w)
	for _, v := range past {
		if enc.Encode(v) != nil {
			return
		}
	}
	flush(w)
	if r.URL.Query().Get("follow") == "0" {
		return
	}
	for {
		select {
		case v, open := <-ch:
			for open {
				if enc.Encode(v) != nil {
					return
				}
				select {
				case v, open = <-ch:
					continue
				default:
				}
				break
			}
			flush(w)
			if !open {
				end()
				return
			}
		case <-r.Context().Done():
			return
		}
	}
}

func flush(w http.ResponseWriter) {
	if f, ok := w.(http.Flusher); ok {
		f.Flush()
	}
}

// runTrace exports the run's flight recording as Chrome trace-event
// JSON: one Perfetto track per engine with compute/barrier/exchange
// slices per barrier window. The snapshot reflects whatever the bounded
// ring currently retains, so it works on live runs too.
func (s *Server) runTrace(w http.ResponseWriter, r *http.Request) {
	run, ok := s.m.Get(r.PathValue("id"))
	if !ok {
		writeNotFound(w, fmt.Errorf("runctl: no run %q", r.PathValue("id")))
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Disposition", fmt.Sprintf("attachment; filename=%q", "massf-trace-"+run.ID+".json"))
	telemetry.WriteChromeTrace(w, telemetry.BuildTraceEvents(run.Tel.Windows.Snapshot(), nil, nil), map[string]string{
		"run":      run.ID,
		"approach": run.Spec.Approach,
		"engines":  strconv.Itoa(run.Spec.Engines),
	})
}

// runStraggler serves the straggler/critical-path analysis of the run's
// recording. Once the partition and measured per-node load exist (after
// mapping and the simulation respectively), each straggler engine is
// attributed to the simulated routers dominating its load.
func (s *Server) runStraggler(w http.ResponseWriter, r *http.Request) {
	run, ok := s.m.Get(r.PathValue("id"))
	if !ok {
		writeNotFound(w, fmt.Errorf("runctl: no run %q", r.PathValue("id")))
		return
	}
	k, _ := strconv.Atoi(r.URL.Query().Get("k"))
	rep := flight.Analyze(run.Tel.Windows.Snapshot(), k)
	if p := run.CapturedProfile(); p != nil {
		rep.AttributeRouters(run.Partition(), p.NodeEvents, 5)
	}
	if r.URL.Query().Get("format") == "text" {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		rep.WriteText(w)
		return
	}
	writeJSON(w, http.StatusOK, rep)
}

// runProfile serves the traffic profile measured from the run itself, in
// the massf-profile text format that cmd/massf, cmd/partition and
// Spec.Profile all consume — closing the paper's monitoring feedback
// loop over HTTP. 404 until the simulation has returned.
func (s *Server) runProfile(w http.ResponseWriter, r *http.Request) {
	run, ok := s.m.Get(r.PathValue("id"))
	if !ok {
		writeNotFound(w, fmt.Errorf("runctl: no run %q", r.PathValue("id")))
		return
	}
	p := run.CapturedProfile()
	if p == nil {
		writeNotFound(w,
			fmt.Errorf("runctl: run %q has no measured profile yet (state %s)", run.ID, run.State()))
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	p.Write(w)
}

// runFaults serves the per-fault reconvergence and loss report captured
// when the simulation returned. 404 while the run is in flight or when it
// carried no fault script.
func (s *Server) runFaults(w http.ResponseWriter, r *http.Request) {
	run, ok := s.m.Get(r.PathValue("id"))
	if !ok {
		writeNotFound(w, fmt.Errorf("runctl: no run %q", r.PathValue("id")))
		return
	}
	recs := run.Faults()
	if recs == nil {
		writeNotFound(w,
			fmt.Errorf("runctl: run %q has no fault report (no fault script, or still %s)", run.ID, run.State()))
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"run":    run.ID,
		"count":  len(recs),
		"faults": recs,
	})
}

// netMon resolves a run and its observability plane, writing the 404 when
// either is missing. The plane exists from the moment execution starts, so
// the link/flow endpoints work on live runs too (atomic snapshots).
func (s *Server) netMon(w http.ResponseWriter, r *http.Request) (*Run, *netmon.Mon, bool) {
	run, ok := s.m.Get(r.PathValue("id"))
	if !ok {
		writeNotFound(w, fmt.Errorf("runctl: no run %q", r.PathValue("id")))
		return nil, nil, false
	}
	mon := run.NetMon()
	if mon == nil {
		writeNotFound(w,
			fmt.Errorf("runctl: run %q has no network observability plane (submit with \"netmon\": true or \"net_sample\" > 0; state %s)",
				run.ID, run.State()))
		return nil, nil, false
	}
	return run, mon, true
}

// runNetLinks serves the per-link report: busiest directions first, drops
// split by cause, utilization when bandwidths are known.
func (s *Server) runNetLinks(w http.ResponseWriter, r *http.Request) {
	run, mon, ok := s.netMon(w, r)
	if !ok {
		return
	}
	top := 32
	if v := r.URL.Query().Get("top"); v != "" {
		if n, err := strconv.Atoi(v); err == nil {
			top = n
		}
	}
	rep := mon.LinkReport(top, r.URL.Query().Get("series") == "1")
	writeJSON(w, http.StatusOK, map[string]any{
		"run": run.ID, "summary": mon.Summary(), "links": rep,
	})
}

// runNetFlows serves the per-flow TCP records and the FCT histogram.
func (s *Server) runNetFlows(w http.ResponseWriter, r *http.Request) {
	run, mon, ok := s.netMon(w, r)
	if !ok {
		return
	}
	rep := mon.FlowReport(r.URL.Query().Get("samples") == "1")
	writeJSON(w, http.StatusOK, map[string]any{"run": run.ID, "flows": rep})
}

// runNetPaths serves the sampled packet paths stitched from hop spans.
func (s *Server) runNetPaths(w http.ResponseWriter, r *http.Request) {
	run, mon, ok := s.netMon(w, r)
	if !ok {
		return
	}
	if !mon.Sampling() {
		writeNotFound(w,
			fmt.Errorf("runctl: run %q records no packet paths (submit with \"net_sample\" > 0)", run.ID))
		return
	}
	paths := mon.Paths()
	writeJSON(w, http.StatusOK, map[string]any{
		"run": run.ID, "sample_every": mon.SampleEvery(),
		"count": len(paths), "paths": paths,
	})
}

// runNetStream streams flow completions as NDJSON: buffered history first,
// then live snapshots as flows finish, ending when the run is over (the
// simulation closed the plane and the run turned terminal) or the client
// disconnects. ?follow=0 dumps and returns.
func (s *Server) runNetStream(w http.ResponseWriter, r *http.Request) {
	run, mon, ok := s.netMon(w, r)
	if !ok {
		return
	}
	past, ch, cancel := mon.SubscribeCompletions(1024)
	defer cancel()
	// The plane closes when the simulation returns, a moment before the
	// run records its outcome: hold the stream open until it has.
	streamNDJSON(w, r, past, ch, func() {
		select {
		case <-run.Done():
		case <-r.Context().Done():
		}
	})
}

// aggregateMetrics serves the merged Prometheus exposition: daemon
// gauges plus every run's registry under its run label.
func (s *Server) aggregateMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	telemetry.WritePrometheus(w, s.m.Gather())
}
