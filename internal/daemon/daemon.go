// Package daemon is the ch-imaged build service: a long-running HTTP
// server accepting Dockerfile builds and executing them asynchronously
// on one shared build.Pool over one shared image.Store + build.Cache —
// optionally persistent via one cas.Dir held (with its shared flock)
// for the daemon's whole lifetime. The shape is LXD's daemon + async
// operation objects: POST returns an operation ID immediately, clients
// poll or cancel it, and a bounded admission counter rejects overload
// with 429 instead of queueing unboundedly. See docs/daemon.md.
package daemon

import (
	"context"
	"errors"
	"fmt"
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
	// Jobs is the shared pool's worker count; <= 0 means 4.
	Jobs int

	// Queue bounds how many admitted operations may wait beyond the
	// Jobs running ones before POSTs are rejected with 429; <= 0 means
	// 2*Jobs. The total admission capacity is Jobs+Queue.
	Queue int

	// Force is the default root-emulation mechanism for requests that
	// don't name one.
	Force build.ForceMode

	// CacheDir, when non-empty, backs the daemon's store and cache with
	// a persistent cas store opened once at New and held (with its
	// shared flock) until Shutdown.
	CacheDir string

	// CacheVerify selects the CacheDir open validation (cas.VerifyFull
	// or cas.VerifyLazy). Ignored when CacheDir is empty.
	CacheVerify cas.VerifyMode

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
	pool       *build.Pool
	reg        *registry
	handler    http.Handler
	persistent bool

	// mu guards the lifecycle state below it.
	mu             sync.Mutex
	started        bool
	draining       bool
	active         int
	baseCtx        context.Context
	queue          chan *operation
	dispatcherDone chan struct{}
	idle           chan struct{}
	idleClosed     bool
	dir            *cas.Dir
}

// New builds a Daemon: opens the cas store (if configured), seeds the
// base images, and wires the shared pool, cache and HTTP handler. The
// daemon serves nothing until Start.
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
		pool:  &build.Pool{Workers: cfg.Jobs},
	}
	if cfg.CacheDir != "" {
		dir, rep, err := cas.Open(cfg.CacheDir, cas.WithVerify(cfg.CacheVerify))
		if err != nil {
			return nil, fmt.Errorf("daemon: open cache-dir: %w", err)
		}
		d.dir = dir
		d.report = rep
		if rep.Quarantined() {
			fmt.Fprintf(os.Stderr,
				"ch-imaged: cache-dir %s: quarantined %d corrupt blob(s) and %d journal line(s), dropped %d record(s); affected steps will re-execute\n",
				cfg.CacheDir, rep.BlobsQuarantined, rep.JournalQuarantined, rep.RecordsDropped)
		}
		if cfg.Faults != nil {
			dir.SetFailpoints(cfg.Faults)
		}
	}
	// Backing attaches before seeding so base blobs and tags persist
	// (the seededStore rule from cmd/ch-image).
	store := image.NewStore()
	if d.dir != nil {
		store.SetBacking(d.dir)
	}
	for _, db := range []struct{ distro, name string }{
		{pkgmgr.DistroAlpine, "alpine:3.19"},
		{pkgmgr.DistroCentOS7, "centos:7"},
		{pkgmgr.DistroDebian, "debian:12"},
	} {
		img, err := d.world.BaseImage(db.distro, db.name)
		if err != nil {
			closeErr := d.closeDir()
			return nil, errors.Join(fmt.Errorf("daemon: seed %s: %w", db.name, err), closeErr)
		}
		store.Put(img)
	}
	d.store = store
	if d.dir != nil {
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

// Start brings the daemon into service: the pool's resident workers come
// up and the dispatcher begins feeding them. ctx is the daemon's base
// context — every operation's context derives from it, detached from its
// cancellation (operations stop via their own cancel or Shutdown's drain
// deadline, not because the base context ended).
func (d *Daemon) Start(ctx context.Context) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.started {
		return errors.New("daemon: already started")
	}
	if err := d.pool.Start(); err != nil {
		return err
	}
	d.started = true
	d.baseCtx = ctx
	d.queue = make(chan *operation, d.cfg.Jobs+d.cfg.Queue)
	d.dispatcherDone = make(chan struct{})
	d.idle = make(chan struct{})
	go d.dispatch(d.queue, d.dispatcherDone)
	return nil
}

// Handler returns the daemon's HTTP handler.
func (d *Daemon) Handler() http.Handler { return d.handler }

// Store exposes the shared image store (tests and /v1/images).
func (d *Daemon) Store() *image.Store { return d.store }

// Pool exposes the shared pool (the tests' no-leak accounting check).
func (d *Daemon) Pool() *build.Pool { return d.pool }

// Report returns the cas open report (zero without a CacheDir).
func (d *Daemon) Report() cas.Report { return d.report }

// Submit admits one build request: it allocates an operation, charges
// the admission counter, and hands the operation to the dispatcher. It
// returns the operation as admitted — rendered before the dispatcher can
// see it, so its status is always queued. At capacity it fails fast with
// ErrQueueFull — the bounded queue the API surfaces as 429 — and during
// drain with ErrDraining (503).
func (d *Daemon) Submit(ctx context.Context, req BuildRequest) (Operation, error) {
	if err := validate(req, d.cfg.Jobs); err != nil {
		return Operation{}, err
	}
	force := d.cfg.Force
	if req.Force != "" {
		m, err := parseForce(req.Force)
		if err != nil {
			return Operation{}, err
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
	if d.active >= cap(d.queue) {
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
	// The admission counter bounds live operations at cap(queue), so
	// this send always finds buffer space and never blocks under mu.
	d.queue <- op
	d.mu.Unlock()

	d.reg.add(op)
	return admitted, nil
}

// dispatch feeds admitted operations to the pool. The channels arrive as
// parameters so the loop never reads the mutex-guarded fields they came
// from. It exits when Shutdown closes the queue.
func (d *Daemon) dispatch(queue <-chan *operation, done chan<- struct{}) {
	defer close(done)
	for op := range queue {
		ch, err := d.pool.Submit(op.ctx, d.jobFor(op))
		if err != nil {
			// Pool drained under us (shutdown race): settle the
			// operation as failed-clean.
			op.settle(build.JobResult{
				Name: op.id,
				Err:  fmt.Errorf("daemon: operation %s not started: %w", op.id, err),
			}, time.Now())
			op.cancel()
			d.noteSettled(op)
			continue
		}
		op.markRunning(time.Now())
		go d.await(op, ch)
	}
}

// await settles op with the pool's result and credits the admission
// counter back.
func (d *Daemon) await(op *operation, ch <-chan build.JobResult) {
	op.settle(<-ch, time.Now())
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

// jobFor turns an operation into the pool job that executes it. Store,
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
// and the pool, dispatcher and cas handle are torn down. Idempotent-ish:
// a second call returns nil immediately.
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
	queue, idle, dispatcherDone := d.queue, d.idle, d.dispatcherDone
	d.mu.Unlock()

	// No more admissions: the dispatcher drains what is queued and
	// exits.
	close(queue)

	select {
	case <-idle:
	case <-ctx.Done():
		// Grace expired: cancel everything live and wait for the
		// settles — each build stops at its next instruction boundary.
		d.reg.cancelLive()
		<-idle
	}
	<-dispatcherDone
	d.pool.Drain()
	return d.closeDir()
}

// Operation looks up an operation by ID.
func (d *Daemon) Operation(id string) (*operation, bool) { return d.reg.get(id) }

// validate checks the request fields every build needs, and that
// stageJobs stays within the daemon's jobs bound.
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
	return nil
}

// parseForce maps the wire force names to build.ForceMode.
func parseForce(s string) (build.ForceMode, error) {
	switch s {
	case "none":
		return build.ForceNone, nil
	case "seccomp":
		return build.ForceSeccomp, nil
	case "fakeroot":
		return build.ForceFakeroot, nil
	case "proot":
		return build.ForceProot, nil
	}
	return 0, fmt.Errorf("daemon: unknown force mode %q", s)
}

// stats snapshots the daemon's counters for GET /v1/stats.
func (d *Daemon) stats() Stats {
	d.mu.Lock()
	active, draining := d.active, d.draining
	queueCap := 0
	if d.queue != nil {
		queueCap = cap(d.queue)
	}
	d.mu.Unlock()
	hits, misses := d.cache.Stats()
	return Stats{
		Jobs:        d.cfg.Jobs,
		QueueCap:    queueCap,
		Active:      active,
		InFlight:    d.pool.InFlight(),
		Draining:    draining,
		CacheHits:   hits,
		CacheMisses: misses,
		Operations:  d.reg.statusCounts(),
		Persistent:  d.persistent,
	}
}
