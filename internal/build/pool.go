// The parallel build farm. The paper's argument is that seccomp root
// emulation makes unprivileged builds cheap enough to run everywhere at
// once; Pool is the "at once": N independent Dockerfile builds, each with
// its own simos kernel and VFS, all sharing one instruction Cache and one
// image.Store. The shared layers are single-flight (Cache.getOrBegin,
// Store.flattened), so identical work submitted N times executes once and
// replays N−1 times — the pool's wall time approaches the cost of the
// distinct work, not the submitted work.
package build

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"sync"
)

// Job is one build submitted to a Pool.
type Job struct {
	// Name identifies the job in its JobResult; defaults to Options.Tag,
	// then to "job-<index>".
	Name string

	// Dockerfile is the build text.
	Dockerfile string

	// Options configures the build. Store, World and Cache are typically
	// shared across the pool's jobs — that sharing is the point — but any
	// job may override them. A nil Output is replaced with a private
	// buffer whose contents land in JobResult.Transcript.
	Options Options
}

// JobResult is the outcome of one pooled build, in submission order.
type JobResult struct {
	// Name echoes the job identity.
	Name string

	// Result is the build's result; non-nil even on failure or
	// cancellation (it carries the counters accrued up to the point the
	// build stopped). Nil only when the job never started because its
	// context was already cancelled.
	Result *Result

	// Err is the build error, nil on success. Cancelled jobs report an
	// error wrapping context.Canceled.
	Err error

	// Cancelled distinguishes a job stopped by context cancellation from
	// a job that genuinely failed. A cancelled in-flight job still
	// carries the partial Transcript and Result it accrued before
	// stopping.
	Cancelled bool

	// Transcript is the captured build output when the job's Options.
	// Output was nil; empty otherwise (the caller's writer received it).
	// Cancelled and failed jobs keep the partial transcript they
	// produced — it is the evidence of where they stopped.
	Transcript string
}

// Pool runs a batch of builds with bounded concurrency. The zero value
// is ready for use.
type Pool struct {
	// Workers bounds concurrent builds; <= 0 means one worker per job.
	Workers int
}

// jobName picks the reported identity of a job: Name, then Options.Tag,
// then the caller's positional fallback.
func jobName(job Job, fallback string) string {
	if job.Name != "" {
		return job.Name
	}
	if job.Options.Tag != "" {
		return job.Options.Tag
	}
	return fallback
}

// RunJob executes one job under ctx; Pool.RunContext's workers and the
// ch-imaged daemon both run their builds through it. A ctx already dead
// on entry reports the cancelled not-started shape (Cancelled, nil
// Result) without running anything; a job whose Options.Output is nil
// gets a private buffer whose contents land in JobResult.Transcript.
func RunJob(ctx context.Context, job Job) JobResult {
	name := jobName(job, "job")
	if ctx.Err() != nil {
		return JobResult{
			Name:      name,
			Err:       fmt.Errorf("build: job %s not started: %w", name, ctx.Err()),
			Cancelled: true,
		}
	}
	mPoolInFlight.Inc()
	defer mPoolInFlight.Dec()
	var buf *bytes.Buffer
	opt := job.Options
	if opt.Output == nil {
		buf = &bytes.Buffer{}
		opt.Output = buf
	}
	res, err := BuildContext(ctx, job.Dockerfile, opt)
	r := JobResult{Name: name, Result: res, Err: err}
	r.Cancelled = err != nil && errors.Is(err, context.Canceled)
	if buf != nil {
		r.Transcript = buf.String()
	}
	return r
}

// RunContext executes jobs and returns one JobResult per job, in
// submission order, plus the aggregate error (errors.Join of the per-job
// failures). Every job runs whatever its siblings do, and results are
// complete even when the error is non-nil — the caller decides what a
// partial batch is worth. The jobs run on min(Workers, len(jobs))
// goroutines. Cancelling ctx stops every in-flight build at its next
// instruction boundary; jobs not yet started report Cancelled without
// running.
func (p *Pool) RunContext(ctx context.Context, jobs []Job) ([]JobResult, error) {
	results := make([]JobResult, len(jobs))
	workers := p.Workers
	if workers <= 0 || workers > len(jobs) {
		workers = len(jobs)
	}
	next := make(chan int)
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for i := range next {
				job := jobs[i]
				job.Name = jobName(job, fmt.Sprintf("job-%d", i))
				results[i] = RunJob(ctx, job)
			}
		}()
	}
	for i := range jobs {
		next <- i
	}
	close(next)
	wg.Wait()

	var errs []error
	for _, r := range results {
		if r.Err != nil {
			errs = append(errs, fmt.Errorf("%s: %w", r.Name, r.Err))
		}
	}
	return results, errors.Join(errs...)
}
