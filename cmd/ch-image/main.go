// ch-image is the simulated Charliecloud image builder: it builds
// Dockerfiles inside a fully unprivileged (Type III) simulated container
// with a selectable root-emulation mode, printing transcripts in the style
// of the paper's Figures 1 and 2.
//
// Usage:
//
//	ch-image build -t TAG[,TAG...] [-f DOCKERFILE] [--force=none|seccomp|fakeroot|proot]
//	               [--jobs N] [--target STAGE] [--cache-dir DIR] CONTEXT
//	ch-image cache --cache-dir DIR ls|gc [TAG...]|reset
//	ch-image list
//
// With a comma-separated tag list, one build per tag runs through
// build.Pool with up to --jobs concurrent builders, all sharing the image
// store and one instruction cache — the shared steps execute once and
// replay everywhere else.
//
// Multi-stage Dockerfiles (FROM ... AS name, COPY --from=stage) build
// through the stage DAG driver: independent stages run concurrently (also
// bounded by --jobs), unreferenced stages are pruned, and only the final
// stage is tagged; --target STAGE stops the build at a named stage and
// tags that instead. See docs/dockerfile-dialect.md for the full dialect.
// The simulated world ships base images alpine:3.19, centos:7 and
// debian:12 with their package repositories.
//
// --cache-dir DIR makes the build cache persistent (internal/cas): layer
// blobs, instruction-cache entries and tags are written through to DIR,
// and the next ch-image invocation against the same DIR replays warm —
// "instructions executed: 0". The cache subcommands inspect (ls),
// garbage-collect (gc, optionally dropping the listed tags first) and
// wipe (reset) such a directory.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"

	"repro/internal/build"
	"repro/internal/cas"
	"repro/internal/image"
	"repro/internal/obs"
	"repro/internal/pkgmgr"
	"repro/internal/simos"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(1)
	}
	// SIGINT/SIGTERM cancel the command's context: an in-flight build
	// stops at its next instruction boundary, the cache handle closes
	// cleanly through the usual defers, and the process exits 130 like an
	// interrupted shell command. A second signal kills the process the
	// default way (stop() restores default disposition on the first).
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	switch os.Args[1] {
	case "build":
		os.Exit(cmdBuild(ctx, os.Args[2:]))
	case "cache":
		os.Exit(cmdCache(ctx, os.Args[2:]))
	case "list":
		os.Exit(cmdList())
	default:
		usage()
		os.Exit(1)
	}
}

// exitInterrupted is the exit status of a build stopped by SIGINT/SIGTERM
// (128 + SIGINT, the shell convention).
const exitInterrupted = 130

func usage() {
	fmt.Fprintln(os.Stderr, "usage: ch-image build -t TAG[,TAG...] [-f DOCKERFILE] [--force=MODE] [--jobs N] [--target STAGE] [--cache-dir DIR] [--cache-max-bytes N] CONTEXT")
	fmt.Fprintln(os.Stderr, "       ch-image cache --cache-dir DIR [--lock-wait DUR] ls|gc [--max-bytes N] [TAG...]|fsck|reset")
	fmt.Fprintln(os.Stderr, "       ch-image list")
}

// openCacheDir opens the persistent store, reporting what the open found
// the way fsck(8) would: loudly, but without failing the run.
func openCacheDir(dir string, opts ...cas.Option) (*cas.Dir, error) {
	d, rep, err := cas.Open(dir, opts...)
	if err != nil {
		return nil, err
	}
	if rep.Quarantined() {
		fmt.Fprintf(os.Stderr, "ch-image: cache-dir %s: %s\n", dir, rep)
	}
	return d, nil
}

// seededStore builds the store of base images. With a cache dir the
// backing is attached before seeding, so base blobs and tags persist and
// later invocations can verify against them.
func seededStore(w *pkgmgr.World, d *cas.Dir) (*image.Store, error) {
	s := image.NewStore()
	if d != nil {
		s.SetBacking(d)
	}
	return s, w.SeedBases(s)
}

func cmdBuild(ctx context.Context, args []string) int {
	// ContinueOnError, not ExitOnError: a bad flag must return exit 2
	// through the normal path (running deferred cleanups), not os.Exit
	// from inside the flag package.
	fs := flag.NewFlagSet("build", flag.ContinueOnError)
	tag := fs.String("t", "", "image tag, or a comma-separated list for a pooled multi-tag build")
	file := fs.String("f", "", "Dockerfile path (default CONTEXT/Dockerfile)")
	force := fs.String("force", "seccomp", "root emulation: none, seccomp, fakeroot, proot")
	noWorkaround := fs.Bool("no-apt-workaround", false, "disable the apt sandbox RUN rewriting")
	rebuild := fs.Bool("rebuild", false, "build twice to demonstrate the instruction cache")
	pushTo := fs.String("push", "", "after a successful build, push the image to this registry URL")
	strace := fs.String("strace", "", "trace syscalls: 'faked' (emulated only) or 'all'")
	trace := fs.Bool("trace", false, "when the build finishes, print its span tree (stages, instructions, cache outcomes) to stderr")
	jobs := fs.Int("jobs", 1, "concurrent builders for a multi-tag build and concurrent stages for a multi-stage build")
	target := fs.String("target", "", "stop the build at this stage (name or index) and tag it")
	cacheDir := fs.String("cache-dir", "", "persistent build-cache directory; warm rebuilds survive across invocations")
	cacheMaxBytes := fs.Int64("cache-max-bytes", 0, "after the build, evict least-recently-recorded cache entries until the cache-dir blob store fits this many bytes (0 = unbounded)")
	timeout := fs.Duration("timeout", 0, "whole-build deadline; an overrunning build fails at its next instruction boundary (0 = none)")
	instrTimeout := fs.Duration("instr-timeout", 0, "per-instruction deadline (0 = none)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *tag == "" {
		fmt.Fprintln(os.Stderr, "ch-image: -t TAG is required")
		return 2
	}
	if *jobs < 1 {
		fmt.Fprintf(os.Stderr, "ch-image: --jobs %d: must be at least 1\n", *jobs)
		return 2
	}
	tags := strings.Split(*tag, ",")
	for i, tg := range tags {
		tags[i] = strings.TrimSpace(tg)
		if tags[i] == "" {
			fmt.Fprintf(os.Stderr, "ch-image: empty tag in -t %q\n", *tag)
			return 2
		}
	}
	ctxDir := "."
	if fs.NArg() > 0 {
		ctxDir = fs.Arg(0)
	}
	dfPath := *file
	if dfPath == "" {
		dfPath = filepath.Join(ctxDir, "Dockerfile")
	}
	text, err := os.ReadFile(dfPath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "ch-image: %v\n", err)
		return 2
	}

	mode, err := build.ParseForce(*force)
	if err != nil {
		fmt.Fprintf(os.Stderr, "ch-image: --force: %v\n", err)
		return 2
	}
	if *cacheMaxBytes < 0 {
		fmt.Fprintf(os.Stderr, "ch-image: --cache-max-bytes %d: must not be negative\n", *cacheMaxBytes)
		return 2
	}

	// Load the build context (regular files only, one level of depth is
	// plenty for the examples).
	ctxFiles := map[string][]byte{}
	entries, err := os.ReadDir(ctxDir)
	if err == nil {
		for _, e := range entries {
			if e.Type().IsRegular() {
				if data, err := os.ReadFile(filepath.Join(ctxDir, e.Name())); err == nil {
					ctxFiles[e.Name()] = data
				}
			}
		}
	}

	var dir *cas.Dir
	if *cacheDir != "" {
		var err error
		if dir, err = openCacheDir(*cacheDir); err != nil {
			fmt.Fprintf(os.Stderr, "ch-image: %v\n", err)
			return 2
		}
		defer dir.Close()
		// CH_IMAGE_CAS_FAULTS injects deterministic faults into the
		// persistent store (testing the degraded-operation contract
		// end to end; see internal/cas.ParseFaults for the syntax).
		if spec := os.Getenv("CH_IMAGE_CAS_FAULTS"); spec != "" {
			inj, err := cas.ParseFaults(spec)
			if err != nil {
				fmt.Fprintf(os.Stderr, "ch-image: CH_IMAGE_CAS_FAULTS: %v\n", err)
				return 2
			}
			dir.SetFailpoints(inj)
		}
	}
	world := pkgmgr.NewWorld()
	store, err := seededStore(world, dir)
	if err != nil {
		fmt.Fprintf(os.Stderr, "ch-image: %v\n", err)
		return 2
	}
	opts := build.Options{
		Tag: tags[0], Force: mode, Store: store, World: world,
		Context: ctxFiles, Output: os.Stdout,
		DisableAptWorkaround: *noWorkaround,
		StageJobs:            *jobs,
		TargetStage:          *target,
		BuildTimeout:         *timeout,
		InstrTimeout:         *instrTimeout,
	}
	if dir != nil {
		opts.Cache = build.NewPersistentCache(dir)
	} else if *rebuild || len(tags) > 1 {
		opts.Cache = build.NewCache()
	}
	switch *strace {
	case "":
	case "faked":
		opts.Tracer = func(ev simos.TraceEvent) {
			if ev.Faked {
				fmt.Fprintf(os.Stderr, "    [strace pid %d %s] %s(%s) = 0 (faked)\n",
					ev.PID, ev.Comm, ev.Name, ev.Detail)
			}
		}
	case "all":
		opts.Tracer = func(ev simos.TraceEvent) {
			suffix := ""
			if ev.Faked {
				suffix = " (faked)"
			}
			fmt.Fprintf(os.Stderr, "    [strace pid %d %s] %s(%s) = -%d%s\n",
				ev.PID, ev.Comm, ev.Name, ev.Detail, ev.Errno, suffix)
		}
	default:
		fmt.Fprintf(os.Stderr, "ch-image: unknown -strace mode %q\n", *strace)
		return 2
	}
	if len(tags) > 1 {
		if *strace != "" {
			fmt.Fprintln(os.Stderr, "ch-image: -strace does not combine with a multi-tag build")
			return 2
		}
		if *trace {
			fmt.Fprintln(os.Stderr, "ch-image: -trace does not combine with a multi-tag build")
			return 2
		}
		code := cmdBuildPool(ctx, string(text), tags, *jobs, opts, *rebuild, *pushTo)
		if code == 0 {
			budgetGC(ctx, store, *cacheMaxBytes)
		}
		warnDegraded(opts.Cache, store)
		return code
	}
	buildCtx, root := traceCtx(ctx, *trace, "build "+tags[0])
	res, err := build.BuildContext(buildCtx, string(text), opts)
	dumpTrace(root)
	if err != nil {
		return buildFailure(err)
	}
	if *rebuild {
		fmt.Println("--- rebuilding with warm cache ---")
		buildCtx, root = traceCtx(ctx, *trace, "rebuild "+tags[0])
		res, err = build.BuildContext(buildCtx, string(text), opts)
		dumpTrace(root)
		if err != nil {
			return buildFailure(err)
		}
		fmt.Printf("cache hits: %d\n", res.CacheHits)
	}
	if opts.Cache != nil {
		// The `make cache-smoke` assertion line: a second invocation
		// against the same --cache-dir must report 0 executed.
		fmt.Printf("instructions executed: %d (cache hits %d)\n", res.Executed, res.CacheHits)
	}
	budgetGC(ctx, store, *cacheMaxBytes)
	warnDegraded(opts.Cache, store)
	if *pushTo != "" {
		if err := image.Push(*pushTo, res.Image); err != nil {
			fmt.Fprintf(os.Stderr, "ch-image: push: %v\n", err)
			return 1
		}
		fmt.Printf("pushed %s to %s\n", res.Image.Name, *pushTo)
	}
	return 0
}

// traceCtx starts a trace on ctx when --trace asked for one; otherwise
// the context passes through untouched and the nil root makes dumpTrace
// a no-op.
func traceCtx(ctx context.Context, enabled bool, name string) (context.Context, *obs.Span) {
	if !enabled {
		return ctx, nil
	}
	return obs.NewTrace(ctx, name)
}

// dumpTrace ends the root span and prints the tree to stderr. The tree
// prints on failure too — where the build stopped is exactly what the
// flag is for.
func dumpTrace(root *obs.Span) {
	if root == nil {
		return
	}
	root.End()
	root.Snapshot().WriteTree(os.Stderr)
}

// buildFailure reports a failed build and picks its exit status: 130 for
// a build interrupted by a cancelled context (SIGINT/SIGTERM), 1 for
// everything else — a --timeout overrun included, which is an ordinary
// build failure wrapping context.DeadlineExceeded.
func buildFailure(err error) int {
	if errors.Is(err, context.Canceled) {
		fmt.Fprintf(os.Stderr, "ch-image: interrupted: %v\n", err)
		return exitInterrupted
	}
	fmt.Fprintf(os.Stderr, "ch-image: %v\n", err)
	return 1
}

// budgetGC bounds the persistent cache after a successful build
// (--cache-max-bytes): least-recently-recorded entries are evicted until
// the blob store fits. A failure (ErrBusy included) degrades to an
// oversized cache, surfaced by warnDegraded, never a failed build. Runs
// even after an interrupt: it is cleanup of what the build already wrote.
func budgetGC(ctx context.Context, store *image.Store, maxBytes int64) {
	if maxBytes <= 0 || store.Backing() == nil {
		return
	}
	if stats, err := store.GCBacking(context.WithoutCancel(ctx), cas.Budget{MaxBytes: maxBytes}); err == nil {
		fmt.Printf("cache gc: %d bytes kept (budget %d), %d blob(s) evicted\n",
			stats.BytesKept, maxBytes, stats.BlobsSwept)
	}
}

// warnDegraded is the degraded-build contract: when the build succeeded
// but some of its persistence failed — cache write-through or store
// backing writes — ch-image prints one warning on stderr and still exits
// 0. The image is correct; the on-disk cache is merely colder and the
// next invocation re-executes what failed to persist.
func warnDegraded(cache *build.Cache, store *image.Store) {
	var errs []error
	if cache != nil {
		errs = append(errs, cache.PersistErrs()...)
	}
	if store != nil {
		errs = append(errs, store.BackingErrs()...)
	}
	if len(errs) > 0 {
		fmt.Fprintf(os.Stderr, "ch-image: warning: cache degraded: %d persistence failure(s); first: %v\n",
			len(errs), errs[0])
	}
}

// cmdBuildPool runs the same Dockerfile once per tag through build.Pool:
// up to jobs builds in flight, all sharing the store and one instruction
// cache, so shared steps execute once and replay under every other tag.
func cmdBuildPool(ctx context.Context, text string, tags []string, jobs int, opts build.Options, rebuild bool, pushTo string) int {
	mkJobs := func() []build.Job {
		js := make([]build.Job, len(tags))
		for i, tg := range tags {
			o := opts
			o.Tag = tg
			o.Output = nil // captured per job, printed in submission order
			js[i] = build.Job{Name: o.Tag, Dockerfile: text, Options: o}
		}
		return js
	}
	run := func() ([]build.JobResult, error) {
		results, err := (&build.Pool{Workers: jobs}).RunContext(ctx, mkJobs())
		for _, r := range results {
			fmt.Printf("=== %s ===\n", r.Name)
			fmt.Print(r.Transcript)
			if r.Err != nil {
				fmt.Fprintf(os.Stderr, "ch-image: %s: %v\n", r.Name, r.Err)
			} else {
				fmt.Printf("cache hits: %d\n", r.Result.CacheHits)
			}
		}
		return results, err
	}
	results, err := run()
	if err != nil {
		return buildFailure(err)
	}
	if rebuild {
		fmt.Println("--- rebuilding with warm cache ---")
		if results, err = run(); err != nil {
			return buildFailure(err)
		}
	}
	hits, misses := opts.Cache.Stats()
	fmt.Printf("pool: %d builds, %d workers, cache %d hits / %d misses\n",
		len(tags), jobs, hits, misses)
	if pushTo != "" {
		for _, r := range results {
			if err := image.Push(pushTo, r.Result.Image); err != nil {
				fmt.Fprintf(os.Stderr, "ch-image: push: %v\n", err)
				return 1
			}
			fmt.Printf("pushed %s to %s\n", r.Result.Image.Name, pushTo)
		}
	}
	return 0
}

// cmdCache inspects and maintains a persistent cache directory:
//
//	ls                         list tags, cached instructions and blob usage
//	gc [--max-bytes N] [TAG...]  drop the listed tags, then collect: with no
//	                           budget, everything no remaining tag reaches;
//	                           with --max-bytes, the least-recently-recorded
//	                           entries until the blob store fits N bytes
//	fsck                       read back and digest-verify every blob,
//	                           quarantining damage; exit 1 if any was found
//	reset                      wipe the directory back to empty
//
// Flags may appear before or after the subcommand, so
// `cache gc --max-bytes N --cache-dir DIR` works. The flag set uses
// ContinueOnError: a bad flag returns exit 2 through the normal path
// (deferred handle close included) instead of os.Exit from the flag
// package.
func cmdCache(ctx context.Context, args []string) int {
	fs := flag.NewFlagSet("cache", flag.ContinueOnError)
	cacheDir := fs.String("cache-dir", "", "persistent build-cache directory (required)")
	maxBytes := fs.Int64("max-bytes", 0, "gc: evict least-recently-recorded entries until the blob store fits this many bytes (0 = full reachability sweep)")
	lockWait := fs.Duration("lock-wait", cas.DefaultLockWait, "how long gc/reset wait for a store another process holds open")
	// Interleaved parse: flag.Parse stops at the first positional, so
	// collect positionals one at a time and re-parse the rest.
	var pos []string
	for rest := args; ; {
		if err := fs.Parse(rest); err != nil {
			return 2
		}
		if fs.NArg() == 0 {
			break
		}
		pos = append(pos, fs.Arg(0))
		rest = fs.Args()[1:]
	}
	if *cacheDir == "" {
		fmt.Fprintln(os.Stderr, "ch-image: cache: --cache-dir DIR is required")
		return 2
	}
	if len(pos) < 1 {
		fmt.Fprintln(os.Stderr, "ch-image: cache: subcommand required: ls, gc, fsck or reset")
		return 2
	}
	if *maxBytes < 0 {
		fmt.Fprintf(os.Stderr, "ch-image: cache: --max-bytes %d: must not be negative\n", *maxBytes)
		return 2
	}
	d, err := openCacheDir(*cacheDir, cas.WithLockWait(*lockWait))
	if err != nil {
		fmt.Fprintf(os.Stderr, "ch-image: %v\n", err)
		return 2
	}
	defer d.Close()

	switch sub, tags := pos[0], pos[1:]; sub {
	case "ls":
		fmt.Println("tags:")
		for _, name := range d.TagNames() {
			tg, _ := d.Tag(name)
			fmt.Printf("  %-30s %d layer(s)\n", name, len(tg.Layers))
		}
		count, bytes := d.BlobStats()
		fmt.Printf("instruction cache: %d entr(ies)\n", len(d.Steps()))
		fmt.Printf("blobs:             %d file(s), %d bytes\n", count, bytes)
		return 0
	case "gc":
		// Validate every tag before deleting any: `gc good:1 typo:1`
		// must be an error and a no-op, not a half-done deletion that
		// aborts without collecting.
		for _, tag := range tags {
			if _, ok := d.Tag(tag); !ok {
				fmt.Fprintf(os.Stderr, "ch-image: cache gc: unknown tag %q; nothing deleted\n", tag)
				return 1
			}
		}
		for _, tag := range tags {
			if err := d.DeleteTag(ctx, tag); err != nil {
				fmt.Fprintf(os.Stderr, "ch-image: cache gc: %v\n", err)
				return 1
			}
		}
		stats, err := d.GC(ctx, cas.Budget{MaxBytes: *maxBytes})
		if err != nil {
			fmt.Fprintf(os.Stderr, "ch-image: cache gc: %v\n", err)
			return 1
		}
		fmt.Printf("gc: kept %d tag(s) and %d blob(s) (%d bytes); swept %d blob(s) (%d bytes), dropped %d step(s)\n",
			stats.TagsKept, stats.BlobsKept, stats.BytesKept, stats.BlobsSwept, stats.BytesSwept,
			stats.StepsDropped)
		return 0
	case "fsck":
		rep, err := d.Fsck(ctx)
		if err != nil {
			fmt.Fprintf(os.Stderr, "ch-image: cache fsck: %v\n", err)
			return 1
		}
		fmt.Printf("fsck: checked %d blob(s) and %d journal line(s)\n", rep.BlobsChecked, rep.JournalLines)
		if rep.Quarantined() {
			fmt.Printf("fsck: %s\n", rep)
			return 1
		}
		return 0
	case "reset":
		if err := d.Reset(ctx); err != nil {
			fmt.Fprintf(os.Stderr, "ch-image: cache reset: %v\n", err)
			return 1
		}
		fmt.Printf("reset: %s is empty\n", *cacheDir)
		return 0
	default:
		fmt.Fprintf(os.Stderr, "ch-image: cache: unknown subcommand %q (want ls, gc, fsck or reset)\n", sub)
		return 2
	}
}

func cmdList() int {
	world := pkgmgr.NewWorld()
	store, err := seededStore(world, nil)
	if err != nil {
		fmt.Fprintf(os.Stderr, "ch-image: %v\n", err)
		return 2
	}
	fmt.Println("base images:")
	for _, t := range store.Tags() {
		fmt.Println("  " + t)
	}
	fmt.Println("packages:")
	for _, d := range []struct {
		name string
		repo *pkgmgr.Repo
	}{{"alpine", world.Alpine}, {"centos7", world.CentOS7}, {"debian", world.Debian}} {
		fmt.Printf("  %s: %s\n", d.name, strings.Join(d.repo.Names(), " "))
	}
	return 0
}
