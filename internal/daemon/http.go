package daemon

// The REST surface. Routing is manual (method switch + path trim): the
// module targets go 1.21, before ServeMux method patterns existed.

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"time"

	"repro/internal/obs"
)

// maxRequestBytes bounds a POST /v1/builds body (Dockerfile plus
// base64-encoded context files).
const maxRequestBytes = 32 << 20

// routes builds the daemon's handler: the REST surface plus the
// Prometheus scrape endpoint, wrapped in the request-latency middleware.
func (d *Daemon) routes() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", d.handleHealth)
	mux.HandleFunc("/v1/builds", d.handleBuilds)
	mux.HandleFunc("/v1/operations", d.handleOperations)
	mux.HandleFunc("/v1/operations/", d.handleOperation)
	mux.HandleFunc("/v1/images", d.handleImages)
	mux.HandleFunc("/v1/stats", d.handleStats)
	mux.Handle("/metrics", d.metricsHandler())
	return instrument(mux)
}

// metricsHandler refreshes the scrape-time gauges (operations by state,
// queue depth) and serves the default registry in Prometheus text
// exposition format. Setting the gauges here — instead of on every
// state transition — keeps them exact at each scrape with no extra
// bookkeeping on the build path.
func (d *Daemon) metricsHandler() http.Handler {
	prom := obs.Default.Handler()
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		for _, s := range []string{
			StatusQueued, StatusRunning, StatusCancelling,
			StatusSucceeded, StatusFailed, StatusCancelled,
		} {
			mOpsByState.With(s).Set(0)
		}
		for s, n := range d.reg.statusCounts() {
			mOpsByState.With(s).Set(int64(n))
		}
		d.mu.Lock()
		active := d.active
		d.mu.Unlock()
		mQueueDepth.Set(int64(max(0, active-d.pool.InFlight())))
		prom.ServeHTTP(w, r)
	})
}

// statusRecorder captures the response code for the request histogram.
type statusRecorder struct {
	http.ResponseWriter
	code int
}

func (s *statusRecorder) WriteHeader(code int) {
	s.code = code
	s.ResponseWriter.WriteHeader(code)
}

// instrument wraps the handler with the request-latency histogram.
// Routes are normalised onto the fixed route set — never raw paths —
// so label cardinality stays bounded whatever clients request.
func instrument(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		t0 := time.Now()
		rec := &statusRecorder{ResponseWriter: w, code: http.StatusOK}
		next.ServeHTTP(rec, r)
		mHTTPSeconds.With(routeOf(r.URL.Path), strconv.Itoa(rec.code)).ObserveSince(t0)
	})
}

// routeOf maps a request path onto the bounded route label set.
func routeOf(path string) string {
	switch {
	case path == "/healthz", path == "/v1/builds", path == "/v1/operations",
		path == "/v1/images", path == "/v1/stats", path == "/metrics":
		return path
	case strings.HasPrefix(path, "/v1/operations/"):
		return "/v1/operations/{id}"
	}
	return "other"
}

// writeJSON renders v with status code.
func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v) // response already committed; nothing to do on error
}

// writeError renders an ErrorResponse.
func writeError(w http.ResponseWriter, code int, format string, args ...any) {
	writeJSON(w, code, ErrorResponse{Error: fmt.Sprintf(format, args...)})
}

// handleHealth is the liveness probe.
func (d *Daemon) handleHealth(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, "method %s not allowed", r.Method)
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// handleBuilds accepts POST /v1/builds: decode the request, admit it,
// and answer 202 with the queued operation. The admission sentinels map
// to 429 (queue full) and 503 (draining).
func (d *Daemon) handleBuilds(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, "method %s not allowed", r.Method)
		return
	}
	var req BuildRequest
	body := http.MaxBytesReader(w, r.Body, maxRequestBytes)
	if err := json.NewDecoder(body).Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, "decode request: %v", err)
		return
	}
	op, err := d.Submit(r.Context(), req)
	switch {
	case err == nil:
	case errors.Is(err, ErrQueueFull):
		writeError(w, http.StatusTooManyRequests, "%v", err)
		return
	case errors.Is(err, ErrDraining), errors.Is(err, ErrNotStarted):
		writeError(w, http.StatusServiceUnavailable, "%v", err)
		return
	default:
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	w.Header().Set("Location", "/v1/operations/"+op.ID)
	writeJSON(w, http.StatusAccepted, op)
}

// handleOperations lists every operation, oldest first.
func (d *Daemon) handleOperations(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, "method %s not allowed", r.Method)
		return
	}
	ops := d.reg.list()
	resp := OperationsResponse{Operations: make([]Operation, 0, len(ops))}
	for _, op := range ops {
		resp.Operations = append(resp.Operations, op.render(d.cfg.TranscriptTail))
	}
	writeJSON(w, http.StatusOK, resp)
}

// handleOperation serves one operation: GET polls it, DELETE cancels it
// (202 accepted; 409 once it is already terminal).
func (d *Daemon) handleOperation(w http.ResponseWriter, r *http.Request) {
	id := strings.TrimPrefix(r.URL.Path, "/v1/operations/")
	if id == "" || strings.Contains(id, "/") {
		writeError(w, http.StatusNotFound, "no such operation")
		return
	}
	op, ok := d.reg.get(id)
	if !ok {
		writeError(w, http.StatusNotFound, "no such operation %q", id)
		return
	}
	switch r.Method {
	case http.MethodGet:
		writeJSON(w, http.StatusOK, op.render(d.cfg.TranscriptTail))
	case http.MethodDelete:
		if !op.requestCancel() {
			writeError(w, http.StatusConflict,
				"operation %s already %s", id, op.statusNow())
			return
		}
		writeJSON(w, http.StatusAccepted, op.render(d.cfg.TranscriptTail))
	default:
		writeError(w, http.StatusMethodNotAllowed, "method %s not allowed", r.Method)
	}
}

// handleImages lists the tags visible in the shared store.
func (d *Daemon) handleImages(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, "method %s not allowed", r.Method)
		return
	}
	writeJSON(w, http.StatusOK, ImagesResponse{Tags: d.store.Tags()})
}

// handleStats serves the daemon's counters.
func (d *Daemon) handleStats(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, "method %s not allowed", r.Method)
		return
	}
	writeJSON(w, http.StatusOK, d.stats())
}
