// ch-imaged is the build daemon: a long-running HTTP server that accepts
// Dockerfile builds over the REST API in internal/daemon and executes
// them asynchronously over one shared (optionally persistent) cache; an
// operation moves to running when it takes one of the --jobs slots.
// SIGINT/SIGTERM drains in-flight builds and exits 0. See docs/daemon.md
// for the API.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/build"
	"repro/internal/cas"
	"repro/internal/daemon"
	"repro/internal/obs"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	code := serve(ctx, os.Args[1:])
	stop()
	os.Exit(code)
}

// serve runs the daemon until ctx is cancelled; factored from main so
// tests can drive a full serve/drain cycle in-process.
func serve(ctx context.Context, args []string) int {
	fs := flag.NewFlagSet("ch-imaged", flag.ContinueOnError)
	listen := fs.String("listen", "127.0.0.1:0", "listen address: host:port, or unix:PATH for a unix socket")
	addrFile := fs.String("addr-file", "", "write the bound address to this file once listening (clients poll it)")
	jobs := fs.Int("jobs", 4, "build slots: an admitted build runs once it takes one")
	queue := fs.Int("queue", 0, "admitted builds allowed to wait beyond --jobs running ones before 429 (0 = 2*jobs)")
	force := fs.String("force", "seccomp", "default root emulation: none, seccomp, fakeroot, proot")
	cacheDir := fs.String("cache-dir", "", "persistent build-cache directory shared by every build; the daemon holds its flock for its lifetime")
	cacheVerify := fs.String("cache-verify", "full", "cache-dir open validation: full or lazy")
	drainTimeout := fs.Duration("drain-timeout", 30*time.Second, "how long shutdown waits for in-flight builds before cancelling them")
	transcriptTail := fs.Int("transcript-tail", 4096, "transcript bytes an operation rendering carries")
	maxOperations := fs.Int("max-operations", 512, "settled operations retained for polling; the oldest-settled are evicted past this (404 thereafter)")
	debugAddr := fs.String("debug-addr", "", "optional second listen address (host:port) serving /debug/pprof/* and /metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *jobs < 1 {
		fmt.Fprintf(os.Stderr, "ch-imaged: --jobs %d: must be at least 1\n", *jobs)
		return 2
	}

	mode, err := build.ParseForce(*force)
	if err != nil {
		fmt.Fprintf(os.Stderr, "ch-imaged: --force: %v\n", err)
		return 2
	}
	verify, err := cas.ParseVerify(*cacheVerify)
	if err != nil {
		fmt.Fprintf(os.Stderr, "ch-imaged: --cache-verify: %v\n", err)
		return 2
	}

	cfg := daemon.Config{
		Jobs:           *jobs,
		Queue:          *queue,
		Force:          mode,
		CacheDir:       *cacheDir,
		CacheVerify:    verify,
		TranscriptTail: *transcriptTail,
		MaxOperations:  *maxOperations,
	}
	// CH_IMAGE_CAS_FAULTS injects deterministic faults into the
	// persistent store (the degraded-operation contract end to end; see
	// internal/cas.ParseFaults for the syntax).
	if spec := os.Getenv("CH_IMAGE_CAS_FAULTS"); spec != "" {
		inj, err := cas.ParseFaults(spec)
		if err != nil {
			fmt.Fprintf(os.Stderr, "ch-imaged: CH_IMAGE_CAS_FAULTS: %v\n", err)
			return 2
		}
		cfg.Faults = inj
	}

	d, err := daemon.New(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "ch-imaged: %v\n", err)
		return 1
	}
	if err := d.Start(ctx); err != nil {
		fmt.Fprintf(os.Stderr, "ch-imaged: %v\n", err)
		return 1
	}

	ln, advertised, err := listenOn(*listen)
	if err != nil {
		fmt.Fprintf(os.Stderr, "ch-imaged: %v\n", err)
		drainCtx, cancel := context.WithTimeout(ctx, *drainTimeout)
		defer cancel()
		_ = d.Shutdown(drainCtx)
		return 1
	}

	srv := &http.Server{Handler: d.Handler()}
	errCh := make(chan error, 1)
	go func() { errCh <- srv.Serve(ln) }()
	fmt.Fprintf(os.Stderr, "ch-imaged: listening on %s (jobs=%d)\n", advertised, *jobs)

	// The debug listener is a separate, opt-in server: pprof and the
	// metrics scrape never share a port with the build API unless the
	// operator asks (the API's own /metrics remains for same-socket
	// scrapes).
	var debugSrv *http.Server
	if *debugAddr != "" {
		dln, err := net.Listen("tcp", *debugAddr)
		if err != nil {
			fmt.Fprintf(os.Stderr, "ch-imaged: debug-addr: %v\n", err)
			drainCtx, cancel := context.WithTimeout(ctx, *drainTimeout)
			defer cancel()
			_ = srv.Close()
			_ = d.Shutdown(drainCtx)
			return 1
		}
		debugSrv = &http.Server{Handler: debugMux()}
		go func() {
			if err := debugSrv.Serve(dln); err != nil && !errors.Is(err, http.ErrServerClosed) {
				fmt.Fprintf(os.Stderr, "ch-imaged: debug serve: %v\n", err)
			}
		}()
		fmt.Fprintf(os.Stderr, "ch-imaged: debug listener on http://%s (pprof, metrics)\n", dln.Addr())
	}
	if *addrFile != "" {
		// Write-then-rename so pollers never read a partial address.
		tmp := *addrFile + ".tmp"
		if err := os.WriteFile(tmp, []byte(advertised+"\n"), 0o644); err == nil {
			err = os.Rename(tmp, *addrFile)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "ch-imaged: addr-file: %v\n", err)
		}
	}

	code := 0
	select {
	case <-ctx.Done():
		fmt.Fprintln(os.Stderr, "ch-imaged: signal received, draining")
	case err := <-errCh:
		if err != nil && !errors.Is(err, http.ErrServerClosed) {
			fmt.Fprintf(os.Stderr, "ch-imaged: serve: %v\n", err)
			code = 1
		}
	}

	// Drain: stop accepting HTTP, let in-flight builds finish within the
	// grace period, cancel stragglers, release the cas flock.
	drainCtx, cancel := context.WithTimeout(context.WithoutCancel(ctx), *drainTimeout)
	defer cancel()
	if err := srv.Shutdown(drainCtx); err != nil {
		_ = srv.Close()
	}
	if debugSrv != nil {
		if err := debugSrv.Shutdown(drainCtx); err != nil {
			_ = debugSrv.Close()
		}
	}
	if err := d.Shutdown(drainCtx); err != nil {
		fmt.Fprintf(os.Stderr, "ch-imaged: shutdown: %v\n", err)
		code = 1
	}
	fmt.Fprintln(os.Stderr, "ch-imaged: drained, exiting")
	return code
}

// debugMux builds the --debug-addr handler: the pprof surface plus the
// Prometheus scrape. Explicit registrations, not net/http/pprof's
// DefaultServeMux side effects — the build API's mux must never grow
// pprof routes by accident.
func debugMux() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.Handle("/metrics", obs.Default.Handler())
	return mux
}

// listenOn opens the listener for --listen and returns the address to
// advertise in --addr-file: "http://host:port" for TCP (with the real
// ephemeral port) or "unix:PATH" for a unix socket.
func listenOn(spec string) (net.Listener, string, error) {
	if path, ok := strings.CutPrefix(spec, "unix:"); ok {
		// A stale socket file from a previous run would fail the bind.
		_ = os.Remove(path)
		ln, err := net.Listen("unix", path)
		if err != nil {
			return nil, "", fmt.Errorf("listen %s: %w", spec, err)
		}
		return ln, "unix:" + path, nil
	}
	ln, err := net.Listen("tcp", spec)
	if err != nil {
		return nil, "", fmt.Errorf("listen %s: %w", spec, err)
	}
	return ln, "http://" + ln.Addr().String(), nil
}
