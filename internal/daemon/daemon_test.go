package daemon

// End-to-end daemon tests over httptest: the full POST → poll → cancel
// lifecycle against a real Daemon with a real pool — the in-process half
// of the harness (make daemon-smoke is the subprocess half).

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/build"
)

// startDaemon brings up a started Daemon and an httptest server on its
// handler; both are torn down at test end.
func startDaemon(t *testing.T, cfg Config) (*Daemon, *httptest.Server) {
	t.Helper()
	if cfg.Force == 0 {
		cfg.Force = build.ForceSeccomp
	}
	d, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(d.Handler())
	t.Cleanup(func() {
		srv.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := d.Shutdown(ctx); err != nil {
			t.Errorf("shutdown: %v", err)
		}
	})
	return d, srv
}

// serveDaemon starts an already-constructed daemon and puts an httptest
// server on it; teardown is the caller's (the fault soak cycles daemons
// inside one test).
func serveDaemon(t *testing.T, d *Daemon) *httptest.Server {
	t.Helper()
	if err := d.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	return httptest.NewServer(d.Handler())
}

// shutdownDaemon drains d with a generous grace period.
func shutdownDaemon(t *testing.T, d *Daemon) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := d.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
}

// doJSON sends a request and decodes the response body into out (when
// non-nil), returning the status code.
func doJSON(t *testing.T, method, url string, body any, out any) int {
	t.Helper()
	var rd io.Reader
	if body != nil {
		data, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		rd = bytes.NewReader(data)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if out != nil {
		if err := json.Unmarshal(data, out); err != nil {
			t.Fatalf("%s %s: decode %q: %v", method, url, data, err)
		}
	}
	return resp.StatusCode
}

// pollOp polls an operation until it is terminal.
func pollOp(t *testing.T, base, id string) Operation {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		var op Operation
		if code := doJSON(t, http.MethodGet, base+"/v1/operations/"+id, nil, &op); code != http.StatusOK {
			t.Fatalf("GET operation %s: status %d", id, code)
		}
		if terminalStatus(op.Status) {
			return op
		}
		if time.Now().After(deadline) {
			t.Fatalf("operation %s stuck in %s", id, op.Status)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

const multiStageDockerfile = `FROM centos:7 AS build
RUN yum install -y openssh
RUN mkdir -p /opt && echo solver > /opt/solver

FROM alpine:3.19
COPY --from=build /opt/solver /app/solver
RUN echo ready > /ready
`

// TestDaemonLifecycle is the tentpole's e2e pass: POST a multi-stage
// build, poll it to success, see the tag in /v1/images — then POST the
// identical build again and get a fully-cached replay (executed=0).
func TestDaemonLifecycle(t *testing.T) {
	d, srv := startDaemon(t, Config{Jobs: 2})
	req := BuildRequest{
		Tag:        "e2e:latest",
		Dockerfile: multiStageDockerfile,
		StageJobs:  2,
	}

	var op Operation
	if code := doJSON(t, http.MethodPost, srv.URL+"/v1/builds", req, &op); code != http.StatusAccepted {
		t.Fatalf("POST /v1/builds: status %d", code)
	}
	if op.ID == "" || op.Status != StatusQueued {
		t.Fatalf("unexpected initial operation: %+v", op)
	}
	fin := pollOp(t, srv.URL, op.ID)
	if fin.Status != StatusSucceeded {
		t.Fatalf("operation %s: status %s, error %q", op.ID, fin.Status, fin.Error)
	}
	if fin.Result == nil || fin.Result.Executed == 0 {
		t.Fatalf("cold build should execute instructions: %+v", fin.Result)
	}
	if fin.Result.StagesBuilt == 0 {
		t.Fatalf("multi-stage build reported no stages: %+v", fin.Result)
	}
	if fin.Transcript == "" {
		t.Fatal("operation should carry a transcript")
	}
	if fin.StartedAt == "" || fin.FinishedAt == "" {
		t.Fatalf("terminal operation missing timestamps: %+v", fin)
	}

	var imgs ImagesResponse
	if code := doJSON(t, http.MethodGet, srv.URL+"/v1/images", nil, &imgs); code != http.StatusOK {
		t.Fatalf("GET /v1/images: status %d", code)
	}
	// The built tag and the two bases it named, and no other stock base.
	if want := []string{"alpine:3.19", "centos:7", "e2e:latest"}; !reflect.DeepEqual(imgs.Tags, want) {
		t.Fatalf("GET /v1/images: tags %v, want %v", imgs.Tags, want)
	}

	// Identical POST: everything replays from the shared cache.
	var op2 Operation
	if code := doJSON(t, http.MethodPost, srv.URL+"/v1/builds", req, &op2); code != http.StatusAccepted {
		t.Fatalf("second POST: status %d", code)
	}
	fin2 := pollOp(t, srv.URL, op2.ID)
	if fin2.Status != StatusSucceeded {
		t.Fatalf("second operation: status %s, error %q", fin2.Status, fin2.Error)
	}
	if fin2.Result.Executed != 0 {
		t.Fatalf("warm rebuild executed %d instructions, want 0", fin2.Result.Executed)
	}
	if fin2.Result.CacheHits == 0 {
		t.Fatal("warm rebuild should report cache hits")
	}
	if n := d.stats().InFlight; n != 0 {
		t.Fatalf("pool InFlight after builds settled = %d, want 0", n)
	}
}

// TestDaemonValidation covers the 4xx surface.
func TestDaemonValidation(t *testing.T) {
	cfg := Config{Jobs: 1}
	_, srv := startDaemon(t, cfg)
	cases := []struct {
		req  BuildRequest
		want int
	}{
		{BuildRequest{Dockerfile: "FROM alpine:3.19\n"}, http.StatusBadRequest},
		{BuildRequest{Tag: "x:1"}, http.StatusBadRequest},
		{BuildRequest{Tag: "x:1", Dockerfile: "FROM alpine:3.19\n", Force: "bogus"}, http.StatusBadRequest},
		{BuildRequest{Tag: "x:1", Dockerfile: "FROM alpine:3.19\n", StageJobs: -1}, http.StatusBadRequest},
		{BuildRequest{Tag: "x:1", Dockerfile: "FROM alpine:3.19\n", StageJobs: cfg.Jobs + 1}, http.StatusBadRequest},
		// Timeouts a time.Duration cannot hold: the first would wrap to
		// 64 ns, the second to a negative (unbounded) duration.
		{BuildRequest{Tag: "x:1", Dockerfile: "FROM alpine:3.19\n", TimeoutMS: 76480200929599801}, http.StatusBadRequest},
		{BuildRequest{Tag: "x:1", Dockerfile: "FROM alpine:3.19\n", TimeoutMS: 10000000000000}, http.StatusBadRequest},
		{BuildRequest{Tag: "x:1", Dockerfile: "FROM alpine:3.19\n", InstrTimeoutMS: 76480200929599801}, http.StatusBadRequest},
		{BuildRequest{Tag: "x:1", Dockerfile: "FROM alpine:3.19\n", InstrTimeoutMS: 10000000000000}, http.StatusBadRequest},
		{BuildRequest{Tag: "x:1", Dockerfile: "FROM alpine:3.19\n", StageJobs: 0}, http.StatusAccepted},
	}
	for i, c := range cases {
		if code := doJSON(t, http.MethodPost, srv.URL+"/v1/builds", c.req, nil); code != c.want {
			t.Errorf("case %d: status %d, want %d", i, code, c.want)
		}
	}
	if code := doJSON(t, http.MethodGet, srv.URL+"/v1/operations/nope", nil, nil); code != http.StatusNotFound {
		t.Errorf("GET unknown operation: status %d, want 404", code)
	}
	if code := doJSON(t, http.MethodPut, srv.URL+"/v1/builds", nil, nil); code != http.StatusMethodNotAllowed {
		t.Errorf("PUT /v1/builds: status %d, want 405", code)
	}
}

// TestDaemonSaturation fills the admission queue and asserts the
// deterministic 429, then releases the gate and asserts everything
// admitted completes and the pool accounting returns to idle — the
// no-goroutine-leak check.
func TestDaemonSaturation(t *testing.T) {
	release := make(chan struct{})
	var releaseOnce sync.Once
	defer releaseOnce.Do(func() { close(release) })
	cfg := Config{
		Jobs:  1,
		Queue: 1, // admission capacity: 2
		stepGate: func(ctx context.Context, ev build.ProgressEvent) {
			select {
			case <-release:
			case <-ctx.Done():
			}
		},
	}
	d, srv := startDaemon(t, cfg)

	req := func(i int) BuildRequest {
		return BuildRequest{
			Tag:        fmt.Sprintf("sat-%d:latest", i),
			Dockerfile: fmt.Sprintf("FROM alpine:3.19\nRUN echo %d > /i\n", i),
		}
	}
	var admitted []string
	for i := 0; i < 2; i++ {
		var op Operation
		if code := doJSON(t, http.MethodPost, srv.URL+"/v1/builds", req(i), &op); code != http.StatusAccepted {
			t.Fatalf("POST %d: status %d, want 202", i, code)
		}
		admitted = append(admitted, op.ID)
	}

	// Capacity is an admission counter, not a started-builds count, so
	// the third POST is rejected no matter how far the first two got.
	var er ErrorResponse
	if code := doJSON(t, http.MethodPost, srv.URL+"/v1/builds", req(2), &er); code != http.StatusTooManyRequests {
		t.Fatalf("overflow POST: status %d, want 429", code)
	}
	if er.Error == "" {
		t.Fatal("429 should carry an error body")
	}

	var st Stats
	if code := doJSON(t, http.MethodGet, srv.URL+"/v1/stats", nil, &st); code != http.StatusOK {
		t.Fatalf("GET /v1/stats: status %d", code)
	}
	if st.Active != 2 || st.QueueCap != 2 {
		t.Fatalf("stats active=%d queueCap=%d, want 2/2", st.Active, st.QueueCap)
	}

	releaseOnce.Do(func() { close(release) })
	for _, id := range admitted {
		if fin := pollOp(t, srv.URL, id); fin.Status != StatusSucceeded {
			t.Fatalf("operation %s: status %s, error %q", id, fin.Status, fin.Error)
		}
	}

	// Settled operations return their admission slots: the next POST is
	// accepted and the pool is idle.
	var op Operation
	if code := doJSON(t, http.MethodPost, srv.URL+"/v1/builds", req(3), &op); code != http.StatusAccepted {
		t.Fatalf("post-release POST: status %d, want 202", code)
	}
	if fin := pollOp(t, srv.URL, op.ID); fin.Status != StatusSucceeded {
		t.Fatalf("post-release operation: %s (%s)", fin.Status, fin.Error)
	}
	waitIdle(t, d)
}

// waitIdle asserts the pool's in-flight accounting returns to zero.
func waitIdle(t *testing.T, d *Daemon) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for d.stats().InFlight != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("pool still reports %d in-flight jobs", d.stats().InFlight)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestDaemonCancelRunning DELETEs a running operation and asserts the
// build stops within one instruction boundary — the cancel_test contract
// driven over HTTP.
func TestDaemonCancelRunning(t *testing.T) {
	started := make(chan struct{})
	var startOnce sync.Once
	var boundaries atomic.Int64
	cfg := Config{
		Jobs: 1,
		stepGate: func(ctx context.Context, ev build.ProgressEvent) {
			boundaries.Add(1)
			startOnce.Do(func() { close(started) })
			<-ctx.Done()
		},
	}
	d, srv := startDaemon(t, cfg)

	var op Operation
	req := BuildRequest{Tag: "victim:latest", Dockerfile: "FROM alpine:3.19\nRUN echo a > /a\nRUN echo b > /b\n"}
	if code := doJSON(t, http.MethodPost, srv.URL+"/v1/builds", req, &op); code != http.StatusAccepted {
		t.Fatalf("POST: status %d", code)
	}
	select {
	case <-started:
	case <-time.After(10 * time.Second):
		t.Fatal("build never reached an instruction boundary")
	}

	if code := doJSON(t, http.MethodDelete, srv.URL+"/v1/operations/"+op.ID, nil, nil); code != http.StatusAccepted {
		t.Fatalf("DELETE: status %d, want 202", code)
	}
	fin := pollOp(t, srv.URL, op.ID)
	if fin.Status != StatusCancelled {
		t.Fatalf("cancelled operation: status %s, error %q", fin.Status, fin.Error)
	}
	// Gated at the first boundary and cancelled there: exactly one
	// boundary crossed, nothing executed.
	if n := boundaries.Load(); n != 1 {
		t.Fatalf("build crossed %d boundaries after cancel, want 1", n)
	}
	if fin.Result == nil {
		t.Fatal("cancelled in-flight operation should carry its partial result")
	}
	if fin.Result.Executed != 0 {
		t.Fatalf("cancelled build executed %d instructions, want 0", fin.Result.Executed)
	}

	// A second DELETE races a terminal operation: 409.
	if code := doJSON(t, http.MethodDelete, srv.URL+"/v1/operations/"+op.ID, nil, nil); code != http.StatusConflict {
		t.Fatalf("DELETE terminal operation: status %d, want 409", code)
	}
	waitIdle(t, d)
}

// TestDaemonCancelQueued cancels an operation still waiting behind the
// single worker: it settles cancelled without ever running.
func TestDaemonCancelQueued(t *testing.T) {
	release := make(chan struct{})
	var releaseOnce sync.Once
	defer releaseOnce.Do(func() { close(release) })
	cfg := Config{
		Jobs:  1,
		Queue: 2,
		stepGate: func(ctx context.Context, ev build.ProgressEvent) {
			select {
			case <-release:
			case <-ctx.Done():
			}
		},
	}
	d, srv := startDaemon(t, cfg)

	var blocker, queued Operation
	if code := doJSON(t, http.MethodPost, srv.URL+"/v1/builds",
		BuildRequest{Tag: "blocker:1", Dockerfile: "FROM alpine:3.19\nRUN echo a > /a\n"}, &blocker); code != http.StatusAccepted {
		t.Fatalf("POST blocker: status %d", code)
	}
	if code := doJSON(t, http.MethodPost, srv.URL+"/v1/builds",
		BuildRequest{Tag: "queued:1", Dockerfile: "FROM alpine:3.19\nRUN echo q > /q\n"}, &queued); code != http.StatusAccepted {
		t.Fatalf("POST queued: status %d", code)
	}

	if code := doJSON(t, http.MethodDelete, srv.URL+"/v1/operations/"+queued.ID, nil, nil); code != http.StatusAccepted {
		t.Fatalf("DELETE queued: status %d, want 202", code)
	}
	fin := pollOp(t, srv.URL, queued.ID)
	if fin.Status != StatusCancelled {
		t.Fatalf("queued operation: status %s, want cancelled", fin.Status)
	}
	if fin.Result != nil {
		t.Fatalf("never-started operation should have no result: %+v", fin.Result)
	}

	releaseOnce.Do(func() { close(release) })
	if fin := pollOp(t, srv.URL, blocker.ID); fin.Status != StatusSucceeded {
		t.Fatalf("blocker: status %s, error %q", fin.Status, fin.Error)
	}
	waitIdle(t, d)
}

// TestDaemonDrainRejects503 asserts the drain contract: once Shutdown
// begins, new POSTs get 503 while in-flight builds run to completion.
func TestDaemonDrainRejects503(t *testing.T) {
	release := make(chan struct{})
	var releaseOnce sync.Once
	defer releaseOnce.Do(func() { close(release) })
	cfg := Config{
		Jobs: 1,
		stepGate: func(ctx context.Context, ev build.ProgressEvent) {
			select {
			case <-release:
			case <-ctx.Done():
			}
		},
	}
	d, srv := startDaemon(t, cfg)

	var op Operation
	if code := doJSON(t, http.MethodPost, srv.URL+"/v1/builds",
		BuildRequest{Tag: "drain:1", Dockerfile: "FROM alpine:3.19\nRUN echo a > /a\n"}, &op); code != http.StatusAccepted {
		t.Fatalf("POST: status %d", code)
	}

	done := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		done <- d.Shutdown(ctx)
	}()

	// Draining flips synchronously under the daemon lock; poll stats
	// until the handler observes it, then the POST rejection is
	// deterministic.
	deadline := time.Now().Add(5 * time.Second)
	for {
		var st Stats
		doJSON(t, http.MethodGet, srv.URL+"/v1/stats", nil, &st)
		if st.Draining {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("daemon never reported draining")
		}
		time.Sleep(time.Millisecond)
	}
	if code := doJSON(t, http.MethodPost, srv.URL+"/v1/builds",
		BuildRequest{Tag: "late:1", Dockerfile: "FROM alpine:3.19\n"}, nil); code != http.StatusServiceUnavailable {
		t.Fatalf("POST during drain: status %d, want 503", code)
	}

	releaseOnce.Do(func() { close(release) })
	if err := <-done; err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	// The in-flight build was drained, not cancelled.
	fin := pollOp(t, srv.URL, op.ID)
	if fin.Status != StatusSucceeded {
		t.Fatalf("drained operation: status %s, error %q", fin.Status, fin.Error)
	}
}

// TestDaemonDrainDeadlineCancelsLive drives Shutdown past its grace
// period: the running operation is cancelled at its boundary, the one
// queued behind it settles cancelled without ever starting, and the
// daemon's accounting returns to idle.
func TestDaemonDrainDeadlineCancelsLive(t *testing.T) {
	started := make(chan struct{})
	var startOnce sync.Once
	cfg := Config{
		Jobs:  1,
		Queue: 1,
		stepGate: func(ctx context.Context, ev build.ProgressEvent) {
			startOnce.Do(func() { close(started) })
			<-ctx.Done()
		},
	}
	d, srv := startDaemon(t, cfg)

	var running, queued Operation
	if code := doJSON(t, http.MethodPost, srv.URL+"/v1/builds",
		BuildRequest{Tag: "parked:1", Dockerfile: "FROM alpine:3.19\nRUN echo a > /a\n"}, &running); code != http.StatusAccepted {
		t.Fatalf("POST parked: status %d", code)
	}
	select {
	case <-started:
	case <-time.After(10 * time.Second):
		t.Fatal("build never reached an instruction boundary")
	}
	if code := doJSON(t, http.MethodPost, srv.URL+"/v1/builds",
		BuildRequest{Tag: "queued:1", Dockerfile: "FROM alpine:3.19\nRUN echo q > /q\n"}, &queued); code != http.StatusAccepted {
		t.Fatalf("POST queued: status %d", code)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if err := d.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}

	if fin := pollOp(t, srv.URL, running.ID); fin.Status != StatusCancelled {
		t.Fatalf("running operation: status %s, error %q", fin.Status, fin.Error)
	}
	fin := pollOp(t, srv.URL, queued.ID)
	if fin.Status != StatusCancelled {
		t.Fatalf("queued operation: status %s, error %q", fin.Status, fin.Error)
	}
	if fin.Result != nil || fin.StartedAt != "" {
		t.Fatalf("never-started operation: result %+v, startedAt %q", fin.Result, fin.StartedAt)
	}
	if st := d.stats(); st.Active != 0 || st.InFlight != 0 {
		t.Fatalf("stats after drain: active=%d inFlight=%d, want 0/0", st.Active, st.InFlight)
	}
}
