// Package daemon is the ch-imaged build service: a long-running HTTP
// server accepting Dockerfile builds and executing them asynchronously
// over one shared image.Store + build.Cache — optionally persistent via
// one cas.Dir held (with its shared flock) for the daemon's whole
// lifetime. Each admitted operation waits for one of Jobs slots and then
// runs its build. The shape is LXD's daemon + async operation objects:
// POST returns an operation ID immediately, clients poll or cancel it,
// and a bounded admission counter rejects overload with 429 instead of
// queueing unboundedly. See docs/daemon.md.
package daemon

import (
	"context"
	"errors"
	"fmt"
	"math"
	"net/http"
	"os"
	"sync"
	"time"

	"repro/internal/build"
	"repro/internal/cas"
	"repro/internal/image"
	"repro/internal/obs"
	"repro/internal/pkgmgr"
)

// Sentinel errors of the admission path; the HTTP layer maps them to
// status codes with errors.Is.
var (
	// ErrQueueFull reports an admission counter at capacity (HTTP 429).
	ErrQueueFull = errors.New("daemon: admission queue full")

	// ErrDraining reports a daemon shutting down (HTTP 503).
	ErrDraining = errors.New("daemon: draining, not accepting builds")

	// ErrNotStarted reports a Submit before Start.
	ErrNotStarted = errors.New("daemon: not started")
)

// Config parameterises a Daemon.
type Config struct {
	// Jobs bounds how many builds run at once; <= 0 means 4.
	Jobs int

	// Queue bounds how many admitted operations may wait beyond the
	// Jobs running ones before POSTs are rejected with 429; <= 0 means
	// 2*Jobs. The total admission capacity is Jobs+Queue.
	Queue int

	// Force is the default root-emulation mechanism for requests that
	// don't name one.
	Force build.ForceMode

	// CacheDir, when non-empty, backs the daemon's store and cache with
	// a persistent cas store opened and fscked once at New and held
	// (with its shared flock) until Shutdown.
	CacheDir string

	// Faults, when non-nil, is installed as the cas store's failpoint
	// injector (the CH_IMAGE_CAS_FAULTS path). Ignored when CacheDir is
	// empty.
	Faults cas.Injector

	// TranscriptTail bounds the transcript bytes an operation rendering
	// carries; <= 0 means 4096.
	TranscriptTail int

	// MaxOperations bounds how many terminal (settled) operations the
	// registry retains for polling; past it the oldest-settled are
	// evicted and later GETs for them answer 404. Live operations are
	// never evicted. <= 0 means 512.
	MaxOperations int

	// stepGate, when set by tests, is called from the build's Progress
	// hook at every instruction boundary — the same rendezvous the
	// engine's own cancel tests use.
	stepGate func(ctx context.Context, ev build.ProgressEvent)
}

// Daemon is one ch-imaged instance.
type Daemon struct {
	cfg        Config
	world      *pkgmgr.World
	store      *image.Store
	cache      *build.Cache
	report     cas.Report
	reg        *registry
	handler    http.Handler
	persistent bool

	// slots holds one token per running build, at most Jobs. It is
	// immutable after New and synchronises itself, so it lives above mu.
	slots chan struct{}

	// mu guards the lifecycle state below it.
	mu         sync.Mutex
	started    bool
	draining   bool
	expired    bool // the drain's grace ran out: no queued operation starts
	active     int
	baseCtx    context.Context
	idle       chan struct{}
	idleClosed bool
	dir        *cas.Dir
}

// New builds a Daemon: opens and verifies the cas store (if configured)
// and wires the shared store, cache, build slots and HTTP handler. A
// stock base image enters the store at the first build that names it.
// The daemon serves nothing until Start.
func New(cfg Config) (*Daemon, error) {
	if cfg.Jobs <= 0 {
		cfg.Jobs = 4
	}
	if cfg.Queue <= 0 {
		cfg.Queue = 2 * cfg.Jobs
	}
	if cfg.TranscriptTail <= 0 {
		cfg.TranscriptTail = 4096
	}
	d := &Daemon{
		cfg:   cfg,
		world: pkgmgr.NewWorld(),
		reg:   newRegistry(cfg.MaxOperations),
		slots: make(chan struct{}, cfg.Jobs),
	}
	if cfg.CacheDir != "" {
		dir, _, err := cas.Open(cfg.CacheDir)
		if err != nil {
			return nil, fmt.Errorf("daemon: open cache-dir: %w", err)
		}
		// The daemon opens once for its lifetime, so it verifies every
		// blob once, here: a damaged base blob is quarantined and healed
		// by the put of the first build that names the base.
		//chlint:allow ctxfirst -- New has no caller context (_imagebench calls New(cfg)); the one startup fsck runs to completion
		rep, err := dir.Fsck(context.Background())
		if err != nil {
			return nil, errors.Join(fmt.Errorf("daemon: fsck cache-dir: %w", err), dir.Close())
		}
		d.dir = dir
		d.report = rep
		if rep.Quarantined() {
			fmt.Fprintf(os.Stderr, "ch-imaged: cache-dir %s: %s\n", cfg.CacheDir, rep)
		}
		if cfg.Faults != nil {
			dir.SetFailpoints(cfg.Faults)
		}
	}
	d.store = image.NewStore()
	if d.dir != nil {
		d.store.SetBacking(d.dir)
		d.cache = build.NewPersistentCache(d.dir)
		d.persistent = true
	} else {
		d.cache = build.NewCache()
	}
	d.handler = d.routes()
	return d, nil
}

// closeDir closes the cas handle once (releasing the shared flock the
// daemon held for its lifetime); safe with no handle.
func (d *Daemon) closeDir() error {
	d.mu.Lock()
	dir := d.dir
	d.dir = nil
	d.mu.Unlock()
	if dir == nil {
		return nil
	}
	return dir.Close()
}

// Start brings the daemon into service: from now on Submit admits
// builds. ctx is the daemon's base context — every operation's context
// derives from it, detached from its cancellation (operations stop via
// their own cancel or Shutdown's drain deadline, not because the base
// context ended).
func (d *Daemon) Start(ctx context.Context) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.started {
		return errors.New("daemon: already started")
	}
	d.started = true
	d.baseCtx = ctx
	d.idle = make(chan struct{})
	return nil
}

// Handler returns the daemon's HTTP handler.
func (d *Daemon) Handler() http.Handler { return d.handler }

// Store exposes the shared image store (tests and /v1/images).
func (d *Daemon) Store() *image.Store { return d.store }

// Report returns what the startup open and fsck of the cas store found
// (zero without a CacheDir).
func (d *Daemon) Report() cas.Report { return d.report }

// Submit admits one build request: it allocates an operation, charges
// the admission counter, and starts the goroutine that runs it. It
// returns the operation as admitted — rendered before that goroutine
// starts, so its status is always queued. At capacity it fails fast with
// ErrQueueFull — the bounded queue the API surfaces as 429 — and during
// drain with ErrDraining (503).
func (d *Daemon) Submit(ctx context.Context, req BuildRequest) (Operation, error) {
	if err := validate(req, d.cfg.Jobs); err != nil {
		return Operation{}, err
	}
	force := d.cfg.Force
	if req.Force != "" {
		m, err := build.ParseForce(req.Force)
		if err != nil {
			return Operation{}, fmt.Errorf("daemon: %w", err)
		}
		force = m
	}
	id, err := newID()
	if err != nil {
		return Operation{}, fmt.Errorf("daemon: operation id: %w", err)
	}

	d.mu.Lock()
	if !d.started {
		d.mu.Unlock()
		mAdmissionRejected.With("not_started").Inc()
		return Operation{}, ErrNotStarted
	}
	if d.draining {
		d.mu.Unlock()
		mAdmissionRejected.With("draining").Inc()
		return Operation{}, ErrDraining
	}
	if d.active >= d.cfg.Jobs+d.cfg.Queue {
		d.mu.Unlock()
		mAdmissionRejected.With("queue_full").Inc()
		return Operation{}, ErrQueueFull
	}
	d.active++
	// The operation's context derives from the daemon's base context
	// but survives its cancellation: the async build outlives the POST,
	// and drain — not base-context teardown — decides when running
	// builds die. The trace rides the same context into the engine; its
	// root span ends when the operation settles.
	opCtx, cancel := context.WithCancel(context.WithoutCancel(d.baseCtx))
	opCtx, root := obs.NewTrace(opCtx, "build "+req.Tag)
	op := &operation{
		id:      id,
		req:     req,
		force:   force,
		ctx:     opCtx,
		cancel:  cancel,
		trace:   root,
		done:    make(chan struct{}),
		created: time.Now(),
		status:  StatusQueued,
	}
	admitted := op.render(d.cfg.TranscriptTail)
	d.mu.Unlock()

	d.reg.add(op)
	go d.run(op)
	return admitted, nil
}

// run carries one admitted operation to its end. It waits for one of
// the Jobs slots and runs the build in it; if the operation's context
// ends first — DELETE, or the drain deadline — the operation settles
// cancelled without running. Either way it then returns the admission
// slot.
func (d *Daemon) run(op *operation) {
	job := d.jobFor(op)
	var r build.JobResult
	select {
	case d.slots <- struct{}{}:
		d.mu.Lock()
		expired := d.expired
		d.mu.Unlock()
		if expired || op.ctx.Err() != nil {
			// The slot came free as the drain cancelled everything live
			// (or with the operation's own cancel): it never starts.
			<-d.slots
			op.cancel()
			r = build.RunJob(op.ctx, job)
			break
		}
		op.markRunning(time.Now())
		r = build.RunJob(op.ctx, job)
		<-d.slots
	case <-op.ctx.Done():
		r = build.RunJob(op.ctx, job)
	}
	op.settle(r, time.Now())
	op.cancel()
	d.noteSettled(op)
}

// noteSettled returns one admission slot, records the operation as
// terminal for retention accounting (which may evict the oldest settled
// operations past the cap) and, during drain, closes idle when the last
// live operation settles.
func (d *Daemon) noteSettled(op *operation) {
	d.reg.noteTerminal(op.id)
	d.mu.Lock()
	defer d.mu.Unlock()
	d.active--
	if d.draining && d.active == 0 && !d.idleClosed {
		d.idleClosed = true
		close(d.idle)
	}
}

// jobFor turns an operation into the build job that executes it. Store,
// World and Cache are the daemon's shared ones — that sharing is the
// warm-cache story; Output is the operation itself (transcript capture)
// and Progress feeds its step counter.
func (d *Daemon) jobFor(op *operation) build.Job {
	opt := build.Options{
		Tag:         op.req.Tag,
		Force:       op.force,
		Store:       d.store,
		World:       d.world,
		Cache:       d.cache,
		Context:     op.req.Context,
		BuildArgs:   op.req.BuildArgs,
		TargetStage: op.req.Target,
		StageJobs:   op.req.StageJobs,
		Output:      op,
		Progress: func(ctx context.Context, ev build.ProgressEvent) {
			op.noteProgress(ev)
			if gate := d.cfg.stepGate; gate != nil {
				gate(ctx, ev)
			}
		},
	}
	if opt.StageJobs == 0 {
		opt.StageJobs = d.cfg.Jobs
	}
	if op.req.TimeoutMS > 0 {
		opt.BuildTimeout = time.Duration(op.req.TimeoutMS) * time.Millisecond
	}
	if op.req.InstrTimeoutMS > 0 {
		opt.InstrTimeout = time.Duration(op.req.InstrTimeoutMS) * time.Millisecond
	}
	return build.Job{Name: op.id, Dockerfile: op.req.Dockerfile, Options: opt}
}

// Shutdown drains the daemon: admission flips to 503, in-flight and
// queued operations get until ctx's deadline to finish, anything still
// live past it is cancelled (stopping at the next instruction boundary),
// and the cas handle is closed. Idempotent-ish: a second call returns nil
// immediately.
func (d *Daemon) Shutdown(ctx context.Context) error {
	d.mu.Lock()
	if !d.started {
		d.mu.Unlock()
		return d.closeDir()
	}
	if d.draining {
		d.mu.Unlock()
		return nil
	}
	d.draining = true
	if d.active == 0 && !d.idleClosed {
		d.idleClosed = true
		close(d.idle)
	}
	idle := d.idle
	d.mu.Unlock()

	select {
	case <-idle:
	case <-ctx.Done():
		// Grace expired: cancel everything live and wait for the
		// settles — each build stops at its next instruction boundary,
		// and a queued one whose slot frees first still never starts.
		d.mu.Lock()
		d.expired = true
		d.mu.Unlock()
		d.reg.cancelLive()
		<-idle
	}
	return d.closeDir()
}

// maxTimeoutMS is the largest millisecond timeout a time.Duration holds;
// a larger one would wrap when converted.
const maxTimeoutMS = math.MaxInt64 / int64(time.Millisecond)

// validate checks the request fields every build needs, that stageJobs
// stays within the daemon's jobs bound, and that the timeouts fit a
// time.Duration.
func validate(req BuildRequest, jobs int) error {
	if req.Tag == "" {
		return errors.New("daemon: tag is required")
	}
	if req.Dockerfile == "" {
		return errors.New("daemon: dockerfile is required")
	}
	if req.StageJobs < 0 || req.StageJobs > jobs {
		return fmt.Errorf("daemon: stageJobs %d out of range 0..%d", req.StageJobs, jobs)
	}
	if req.TimeoutMS > maxTimeoutMS {
		return fmt.Errorf("daemon: timeoutMs %d above %d", req.TimeoutMS, maxTimeoutMS)
	}
	if req.InstrTimeoutMS > maxTimeoutMS {
		return fmt.Errorf("daemon: instrTimeoutMs %d above %d", req.InstrTimeoutMS, maxTimeoutMS)
	}
	return nil
}

// stats snapshots the daemon's counters for GET /v1/stats.
func (d *Daemon) stats() Stats {
	d.mu.Lock()
	active, draining := d.active, d.draining
	d.mu.Unlock()
	hits, misses := d.cache.Stats()
	return Stats{
		Jobs:        d.cfg.Jobs,
		QueueCap:    d.cfg.Jobs + d.cfg.Queue,
		Active:      active,
		InFlight:    len(d.slots),
		Draining:    draining,
		CacheHits:   hits,
		CacheMisses: misses,
		Operations:  d.reg.statusCounts(),
		Persistent:  d.persistent,
	}
}
