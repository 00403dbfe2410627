package daemon

// Async operation objects in the LXD shape: every accepted build becomes
// an operation with an ID, a status machine, and a cancel handle. The
// HTTP layer renders operations; Daemon.run drives them.

import (
	"bytes"
	"context"
	"crypto/rand"
	"encoding/hex"
	"sort"
	"sync"
	"time"

	"repro/internal/build"
	"repro/internal/obs"
)

// Operation statuses. queued → running → {succeeded, failed, cancelled};
// cancelling is running with a cancel already requested.
const (
	StatusQueued     = "queued"
	StatusRunning    = "running"
	StatusCancelling = "cancelling"
	StatusSucceeded  = "succeeded"
	StatusFailed     = "failed"
	StatusCancelled  = "cancelled"
)

// terminalStatus reports whether s is an end state.
func terminalStatus(s string) bool {
	return s == StatusSucceeded || s == StatusFailed || s == StatusCancelled
}

// operation is one admitted build. Its ctx is derived from the daemon's
// base context, not the POST request's — the build outlives the request
// that created it.
type operation struct {
	id    string
	req   BuildRequest
	force build.ForceMode

	// ctx governs the build; cancel stops it at its next instruction
	// boundary (DELETE /v1/operations/{id}, or daemon drain expiry).
	ctx    context.Context
	cancel context.CancelFunc

	// trace is the build's root span, carried on ctx into the engine.
	// Set once at admission and immutable after; the Span synchronises
	// itself, so render snapshots it without o.mu ordering concerns.
	trace *obs.Span

	// done closes when the operation settles — the tests' and drain
	// path's wait handle.
	done chan struct{}

	// created is set once at admission and immutable after.
	created time.Time

	// mu guards the mutable state below it.
	mu         sync.Mutex
	status     string
	started    time.Time
	finished   time.Time
	step       int
	totalSteps int
	lastCmd    string
	transcript bytes.Buffer
	result     *build.Result
	errMsg     string
}

// newID returns a 16-hex-digit random operation ID.
func newID() (string, error) {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		return "", err
	}
	return hex.EncodeToString(b[:]), nil
}

// Write appends build output to the transcript; the operation is the
// build job's Options.Output.
func (o *operation) Write(p []byte) (int, error) {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.transcript.Write(p)
}

// noteProgress records an instruction boundary (the build's
// Options.Progress hook).
func (o *operation) noteProgress(ev build.ProgressEvent) {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.step = ev.Step
	o.totalSteps = ev.Total
	o.lastCmd = ev.Cmd
}

// markRunning moves queued → running; a no-op once cancel was requested
// or the operation settled.
func (o *operation) markRunning(now time.Time) {
	o.mu.Lock()
	defer o.mu.Unlock()
	if o.status == StatusQueued {
		o.status = StatusRunning
		o.started = now
	}
}

// requestCancel asks the operation to stop. It reports false when the
// operation is already terminal (the HTTP 409 case); otherwise it marks
// the operation cancelling and cancels its context — a queued operation
// settles without running, a running build stops at its next instruction
// boundary.
func (o *operation) requestCancel() bool {
	o.mu.Lock()
	if terminalStatus(o.status) {
		o.mu.Unlock()
		return false
	}
	o.status = StatusCancelling
	o.mu.Unlock()
	o.cancel()
	return true
}

// settle records the build's outcome and closes done. Exactly one settle
// wins; later calls are no-ops.
func (o *operation) settle(r build.JobResult, now time.Time) {
	o.mu.Lock()
	if terminalStatus(o.status) {
		o.mu.Unlock()
		return
	}
	o.result = r.Result
	o.finished = now
	switch {
	case r.Cancelled:
		o.status = StatusCancelled
		o.errMsg = r.Err.Error()
	case r.Err != nil:
		o.status = StatusFailed
		o.errMsg = r.Err.Error()
	default:
		o.status = StatusSucceeded
	}
	status := o.status
	// The root span ends and the settled counter bumps before the
	// terminal status is visible: a client that saw the operation settle
	// and then scrapes /metrics must find it counted, and its timeline
	// finished. (Lock order o.mu → span.mu / family mu is safe — neither
	// ever takes an operation's mu.)
	o.trace.End()
	mOpsSettled.With(status).Inc()
	o.mu.Unlock()
	close(o.done)
}

// render snapshots the operation as its wire type, truncating the
// transcript to its last tail bytes (tail <= 0 keeps it all).
func (o *operation) render(tail int) Operation {
	o.mu.Lock()
	defer o.mu.Unlock()
	out := Operation{
		ID:        o.id,
		Tag:       o.req.Tag,
		Status:    o.status,
		CreatedAt: o.created.UTC().Format(time.RFC3339Nano),
	}
	if !o.started.IsZero() {
		out.StartedAt = o.started.UTC().Format(time.RFC3339Nano)
	}
	if !o.finished.IsZero() {
		out.FinishedAt = o.finished.UTC().Format(time.RFC3339Nano)
	}
	if o.step > 0 {
		out.Progress = &Progress{Step: o.step, Total: o.totalSteps, Cmd: o.lastCmd}
	}
	t := o.transcript.Bytes()
	if tail > 0 && len(t) > tail {
		out.Transcript = string(t[len(t)-tail:])
		out.TranscriptTruncated = true
	} else {
		out.Transcript = string(t)
	}
	if o.trace != nil {
		sd := o.trace.Snapshot()
		out.Spans = &sd
	}
	if o.result != nil {
		br := &BuildResult{
			Executed:      o.result.Executed,
			CacheHits:     o.result.CacheHits,
			StagesBuilt:   o.result.StagesBuilt,
			StagesSkipped: o.result.StagesSkipped,
			ModifiedRuns:  o.result.ModifiedRuns,
			VirtualNanos:  o.result.VirtualNanos,
			Degraded:      o.result.Degraded,
		}
		for _, e := range o.result.DegradedErrs {
			br.DegradedErrs = append(br.DegradedErrs, e.Error())
		}
		out.Result = br
	}
	out.Error = o.errMsg
	return out
}

// statusNow returns the operation's current status.
func (o *operation) statusNow() string {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.status
}

// defaultMaxOperations is the terminal-operation retention cap when the
// configuration does not name one.
const defaultMaxOperations = 512

// registry is the daemon's operation table. Live operations stay
// forever (they hold an admission slot, so they are bounded by it);
// terminal ones are retained for polling up to max, oldest-settled
// evicted first.
type registry struct {
	// max is the terminal-operation retention cap; immutable.
	max int

	// mu guards the table state below it.
	mu       sync.Mutex
	ops      map[string]*operation
	terminal []string // settled operation IDs, oldest first
}

func newRegistry(max int) *registry {
	if max <= 0 {
		max = defaultMaxOperations
	}
	return &registry{max: max, ops: map[string]*operation{}}
}

func (r *registry) add(op *operation) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.ops[op.id] = op
}

// noteTerminal records that the operation settled and evicts the
// oldest-settled operations past the retention cap. An evicted
// operation disappears from GET /v1/operations and its ID answers 404
// from then on (docs/daemon.md).
func (r *registry) noteTerminal(id string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.ops[id]; !ok {
		return
	}
	r.terminal = append(r.terminal, id)
	for len(r.terminal) > r.max {
		victim := r.terminal[0]
		r.terminal = r.terminal[1:]
		if _, live := r.ops[victim]; live {
			delete(r.ops, victim)
			mOpsEvicted.Inc()
		}
	}
}

func (r *registry) get(id string) (*operation, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	op, ok := r.ops[id]
	return op, ok
}

// list returns every operation ordered by creation time (ties broken by
// ID so the order is stable).
func (r *registry) list() []*operation {
	r.mu.Lock()
	ops := make([]*operation, 0, len(r.ops))
	for _, op := range r.ops {
		ops = append(ops, op)
	}
	r.mu.Unlock()
	sort.Slice(ops, func(i, j int) bool {
		if !ops[i].created.Equal(ops[j].created) {
			return ops[i].created.Before(ops[j].created)
		}
		return ops[i].id < ops[j].id
	})
	return ops
}

// statusCounts tallies operations by status.
func (r *registry) statusCounts() map[string]int {
	counts := map[string]int{}
	for _, op := range r.list() {
		counts[op.statusNow()]++
	}
	return counts
}

// cancelLive cancels every non-terminal operation — the drain deadline's
// hammer.
func (r *registry) cancelLive() {
	for _, op := range r.list() {
		op.requestCancel()
	}
}
