package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"sync"
	"time"

	"repro/internal/build"
	"repro/internal/daemon"
)

// The daemon traffic is the repository's own service benchmark, `make
// bench-daemon`: ch-imaged --jobs 4 --queue 128 (4 is also the daemon's
// default) driven by cmd/loadgen's defaults, -c 8 and --cold-every 16,
// polling every 2 ms.
const (
	// daemonJobs is the daemon's worker count and daemonClients the
	// closed-loop clients driving it: more clients than workers, so
	// requests queue, and fewer than jobs+queue, so none is refused.
	daemonJobs    = 4
	daemonQueue   = 128
	daemonClients = 8

	// Every coldEvery-th request of a client is a never-seen Dockerfile;
	// the rest repeat the warm variants.
	coldEvery = 16

	// pollInterval is how often a client asks whether its build finished.
	pollInterval = 2 * time.Millisecond
)

// daemonSystem runs the daemon workload: a resident ch-imaged on a
// loopback port, over one cache directory, serving concurrent clients.
type daemonSystem struct {
	variants []*input

	d      *daemon.Daemon
	srv    *http.Server
	served chan error
	base   string
	http   *http.Client

	mu    sync.Mutex
	colds []*input // cold requests that succeeded, verified after the run
}

// setup starts a daemon over a fresh cache directory and builds every
// variant through it once, so the measured window starts warm.
func (s *daemonSystem) setup(ctx context.Context, dir string) error {
	d, err := daemon.New(daemon.Config{
		Jobs: daemonJobs, Queue: daemonQueue, Force: build.ForceSeccomp, CacheDir: dir,
	})
	if err != nil {
		return err
	}
	if err := d.Start(ctx); err != nil {
		return errors.Join(err, d.Shutdown(ctx))
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return errors.Join(err, d.Shutdown(ctx))
	}
	s.d = d
	s.srv = &http.Server{Handler: d.Handler()}
	s.served = make(chan error, 1)
	go func() { s.served <- s.srv.Serve(ln) }()
	s.base = "http://" + ln.Addr().String()
	s.http = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 2 * daemonClients}}
	s.colds = nil
	for _, in := range s.variants {
		op, _, err := s.build(ctx, in)
		if err != nil {
			return err
		}
		if err := checkOp(in, op, anySplit, in.cacheable); err != nil {
			return err
		}
	}
	return nil
}

func (s *daemonSystem) op(ctx context.Context, c *client, i int, traced bool) (sample, error) {
	in, cold := s.variants[c.rng.Intn(len(s.variants))], false
	if i%coldEvery == coldEvery-1 {
		in, cold = c.gen.make(template{"cold", build.ForceSeccomp, coldUnique},
			fmt.Sprintf("cold-%d-%d:latest", c.id, i)), true
	}
	var smp sample
	if traced {
		smp.parse = timeParse(in.text)
	}
	start := time.Now()
	op, end, err := s.build(ctx, in)
	if err != nil {
		return smp, err
	}
	smp.latency = end.Sub(start)
	wantExec, wantHits := 0, in.cacheable
	if cold {
		wantExec, wantHits = in.cacheable, 0
	}
	if err := checkOp(in, op, wantExec, wantHits); err != nil {
		return smp, err
	}
	smp.executed, smp.hits = op.Result.Executed, op.Result.CacheHits
	smp.vns = op.Result.VirtualNanos
	if traced && op.Spans != nil {
		created, err := time.Parse(time.RFC3339Nano, op.CreatedAt)
		if err != nil {
			return smp, err
		}
		attribute(&smp, *op.Spans, created, start, end)
	}
	if cold {
		s.mu.Lock()
		s.colds = append(s.colds, in)
		s.mu.Unlock()
	}
	return smp, nil
}

// build POSTs one request and polls its operation until it settles. It
// returns the settled operation and when the client saw it settle.
func (s *daemonSystem) build(ctx context.Context, in *input) (*daemon.Operation, time.Time, error) {
	body, err := json.Marshal(daemon.BuildRequest{
		Tag: in.tag, Dockerfile: in.text, Context: in.context,
		Force: in.force.String(), StageJobs: 1,
	})
	if err != nil {
		return nil, time.Time{}, err
	}
	var op daemon.Operation
	if err := s.call(ctx, http.MethodPost, "/v1/builds", body, http.StatusAccepted, &op); err != nil {
		return nil, time.Time{}, err
	}
	for {
		var cur daemon.Operation
		if err := s.call(ctx, http.MethodGet, "/v1/operations/"+op.ID, nil, http.StatusOK, &cur); err != nil {
			return nil, time.Time{}, err
		}
		switch cur.Status {
		case daemon.StatusSucceeded:
			return &cur, time.Now(), nil
		case daemon.StatusFailed, daemon.StatusCancelled:
			return nil, time.Time{}, fmt.Errorf("%s: operation %s: %s", in.tag, cur.Status, cur.Error)
		}
		select {
		case <-ctx.Done():
			return nil, time.Time{}, ctx.Err()
		case <-time.After(pollInterval):
		}
	}
}

// call makes one API request and decodes the JSON answer into out.
func (s *daemonSystem) call(ctx context.Context, method, path string, body []byte, want int, out any) error {
	req, err := http.NewRequestWithContext(ctx, method, s.base+path, bytes.NewReader(body))
	if err != nil {
		return err
	}
	resp, err := s.http.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != want {
		return fmt.Errorf("%s %s: %s: %s", method, path, resp.Status, bytes.TrimSpace(data))
	}
	if out == nil {
		return nil
	}
	return json.Unmarshal(data, out)
}

// metrics scrapes the daemon's /metrics endpoint.
func (s *daemonSystem) metrics(ctx context.Context) (map[string]float64, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, s.base+"/metrics", nil)
	if err != nil {
		return nil, err
	}
	resp, err := s.http.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	return parseMetrics(resp.Body)
}

// verify checks the images the daemon's store holds against the
// reference builds: every variant and every cold request that succeeded.
func (s *daemonSystem) verify(ctx context.Context) error {
	for _, in := range s.colds {
		if err := reference(ctx, in); err != nil {
			return err
		}
	}
	for _, in := range append(append([]*input(nil), s.variants...), s.colds...) {
		img, ok := s.d.Store().GetContext(ctx, in.tag)
		if !ok {
			return fmt.Errorf("%s: not in the daemon's store", in.tag)
		}
		if err := checkImage(in, img); err != nil {
			return err
		}
	}
	return nil
}

// stop drains the daemon and its HTTP server and waits for both.
func (s *daemonSystem) stop(ctx context.Context) error {
	if s.d == nil {
		return nil
	}
	sctx, cancel := context.WithTimeout(ctx, 30*time.Second)
	defer cancel()
	err := errors.Join(s.srv.Shutdown(sctx), s.d.Shutdown(sctx))
	if serr := <-s.served; !errors.Is(serr, http.ErrServerClosed) {
		err = errors.Join(err, serr)
	}
	s.http.CloseIdleConnections()
	s.d = nil
	return err
}

// checkOp holds a settled operation to what the inputs predict. The
// image itself is checked against the reference in verify, from the
// daemon's store.
func checkOp(in *input, op *daemon.Operation, wantExec, wantHits int) error {
	r := op.Result
	if r == nil {
		return fmt.Errorf("%s: operation %s has no result", in.tag, op.ID)
	}
	if r.Degraded {
		return fmt.Errorf("%s: degraded: %v", in.tag, r.DegradedErrs)
	}
	if !expected(r.Executed, r.CacheHits, wantExec, wantHits) {
		return fmt.Errorf("%s: executed %d, replayed %d; want %d and %d",
			in.tag, r.Executed, r.CacheHits, wantExec, wantHits)
	}
	return nil
}
