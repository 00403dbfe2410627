package cas

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"syscall"
	"time"
)

// Retry classification: the engine retries only failures that can succeed
// on a second try without anything else changing — ErrBusy (another
// process briefly holds the store lock exclusive), EINTR/EAGAIN from the
// backing filesystem, and errors explicitly wrapped by MarkTransient.
// Everything else is permanent by default: ENOSPC does not clear itself,
// a context cancellation must win immediately, and a digest mismatch is
// corruption (handled by quarantine + re-execution, the third retry class,
// not by re-reading the same bytes).

// transientError marks a wrapped error as retryable.
type transientError struct{ err error }

func (e *transientError) Error() string { return e.err.Error() }
func (e *transientError) Unwrap() error { return e.err }

// MarkTransient wraps err so Transient reports it retryable. Returns nil
// for a nil err.
func MarkTransient(err error) error {
	if err == nil {
		return nil
	}
	return &transientError{err}
}

// Transient reports whether err is worth retrying.
func Transient(err error) bool {
	if err == nil {
		return false
	}
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return false
	}
	if errors.Is(err, ErrBusy) {
		return true
	}
	var te *transientError
	if errors.As(err, &te) {
		return true
	}
	return errors.Is(err, syscall.EINTR) || errors.Is(err, syscall.EAGAIN)
}

// RetryPolicy retries transient failures with capped exponential backoff
// and full jitter.
type RetryPolicy struct {
	Attempts int           // total tries, including the first; min 1
	Base     time.Duration // first backoff ceiling; doubles per attempt
	Max      time.Duration // backoff cap
}

// DefaultRetry is the policy the engine uses around cas write-through and
// rehydration: a handful of quick tries, worst-case tens of milliseconds
// of added latency — transient lock contention survives, real outages
// degrade fast.
var DefaultRetry = RetryPolicy{Attempts: 4, Base: 2 * time.Millisecond, Max: 50 * time.Millisecond}

// Do runs op, retrying while the error is Transient, up to p.Attempts
// total tries. It returns op's last error, nil on success, or the context
// error if ctx is done first.
func (p RetryPolicy) Do(ctx context.Context, op func() error) error {
	attempts := p.Attempts
	if attempts < 1 {
		attempts = 1
	}
	var err error
	for i := 0; i < attempts; i++ {
		if cerr := ctx.Err(); cerr != nil {
			return cerr
		}
		if err = op(); err == nil || !Transient(err) {
			return err
		}
		if i == attempts-1 {
			break
		}
		mRetries.Inc()
		t := time.NewTimer(p.backoff(i))
		select {
		case <-ctx.Done():
			t.Stop()
			return err
		case <-t.C:
		}
	}
	return err
}

// backoff computes the jittered delay after try i (0-based): the ceiling
// doubles from Base per try, capped at Max, and the delay is drawn
// uniformly from [ceiling/2, ceiling].
func (p RetryPolicy) backoff(i int) time.Duration {
	base := p.Base
	if base <= 0 {
		base = time.Millisecond
	}
	d := base << uint(i)
	if p.Max > 0 && d > p.Max {
		d = p.Max
	}
	if d < 2 {
		return d
	}
	return d/2 + time.Duration(rand.Int63n(int64(d/2)+1))
}

// failureCap bounds a Failures list: past it, further failures are
// counted, not stored, so a long degraded run cannot grow the list
// without bound.
const failureCap = 32

// Failures records the write-through failures that outlived DefaultRetry:
// the on-disk store ended up colder than memory, never wrong. It has no
// lock of its own; its owner guards Add and List with its own mutex.
type Failures struct {
	errs    []error
	dropped int
}

// Add records err; a nil err is ignored.
func (f *Failures) Add(err error) {
	switch {
	case err == nil:
	case len(f.errs) < failureCap:
		f.errs = append(f.errs, err)
	default:
		f.dropped++
	}
}

// List returns every recorded failure (a copy), plus a trailing summary
// entry when failures past the cap were dropped; nil when none occurred.
func (f *Failures) List() []error {
	if len(f.errs) == 0 {
		return nil
	}
	out := append([]error(nil), f.errs...)
	if f.dropped > 0 {
		out = append(out, fmt.Errorf("cas: %d further persistence failure(s) dropped", f.dropped))
	}
	return out
}
