package cas

import (
	"context"
	"errors"
	"fmt"
	"os"
	"time"
)

// ErrBusy reports that an exclusive store operation (GC, Reset, journal
// compaction) could not take the store lock within its wait because
// another handle — usually another process — holds the store open.
// Nothing was modified; retry after the other process closes the store.
var ErrBusy = errors.New("cas: store locked by another handle")

// DefaultLockWait bounds how long exclusive operations wait for the
// store lock before failing with ErrBusy. Shared acquisition (Open)
// always blocks: the exclusive sections it can wait behind are short —
// one GC or compaction — while the converse wait (an exclusive taker
// behind an open build) lasts as long as the build, so only that
// direction needs a bound.
const DefaultLockWait = 60 * time.Second

// storeLock is the advisory cross-process lock on a store root, a
// flock(2) on DIR/lock. The protocol:
//
//   - every open handle holds the lock SHARED from Open to Close, so
//     appends and reads from any number of processes coexist;
//   - GC, Reset and journal compaction convert to EXCLUSIVE for the
//     critical section and convert back after, so a rewrite of the
//     journal (or a sweep of the blob directory) can never interleave
//     with another process's append — the writer either finishes before
//     the exclusive conversion is granted or opens after it releases.
//
// flock locks attach to the open file description, so two Dir handles
// in one process exclude each other exactly like two processes do. A
// failed nonblocking conversion may drop the held lock on the way (the
// kernel converts by unlock-then-lock), so every failure path here
// re-acquires the shared lock before returning.
//
// On platforms without flock (see lock_other.go) the lock degrades to a
// no-op and the store keeps the previous single-process guarantees.
type storeLock struct {
	f *os.File
}

// openLock opens (creating if absent) the lock file and acquires the
// shared lock, blocking until any exclusive holder releases.
func openLock(path string) (*storeLock, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, fmt.Errorf("cas: lock: %w", err)
	}
	if err := flockShared(f); err != nil {
		f.Close()
		return nil, fmt.Errorf("cas: lock: %w", err)
	}
	return &storeLock{f: f}, nil
}

// exclusive converts the held shared lock to exclusive, polling for up
// to wait (wait <= 0 tries once) or until ctx is done. On timeout it
// restores the shared lock and returns ErrBusy; on cancellation it does
// the same and returns the context error. The caller's handle stays
// fully usable either way.
//
// Between polls the handle may hold no lock (a failed conversion can
// drop it), and that is deliberate: two handles waiting to go exclusive at
// once would each keep the other out until both timed out if they
// re-took the shared lock between polls. Only the last attempt, the one
// tryExclusive makes, restores it.
func (l *storeLock) exclusive(ctx context.Context, wait time.Duration) error {
	start := time.Now()
	defer mFlockWaitSeconds.ObserveSince(start)
	for deadline := start.Add(wait); time.Now().Before(deadline); {
		if err := l.convert(); !errors.Is(err, ErrBusy) {
			return err
		}
		select {
		case <-ctx.Done():
			if err := l.reshare(); err != nil {
				return err
			}
			return fmt.Errorf("cas: lock: %w", ctx.Err())
		case <-time.After(5 * time.Millisecond):
		}
	}
	return l.tryExclusive()
}

// tryExclusive is the wait-0 conversion: one non-blocking attempt that,
// on contention, restores the shared lock and returns ErrBusy.
func (l *storeLock) tryExclusive() error {
	if err := l.convert(); !errors.Is(err, ErrBusy) {
		return err
	}
	mBusy.Inc()
	if err := l.reshare(); err != nil {
		return err
	}
	return ErrBusy
}

// convert makes one non-blocking attempt to convert the held shared lock
// to exclusive. On contention it returns ErrBusy, and the shared lock
// may be gone: the kernel converts by unlock-then-lock. On any other
// failure it restores the shared lock first.
func (l *storeLock) convert() error {
	ok, err := flockExclusiveNB(l.f)
	switch {
	case err != nil:
		l.reshare()
		return fmt.Errorf("cas: lock: %w", err)
	case !ok:
		return ErrBusy
	}
	return nil
}

// shared converts the lock back to shared after an exclusive section.
func (l *storeLock) shared() error {
	return l.reshare()
}

func (l *storeLock) reshare() error {
	if err := flockShared(l.f); err != nil {
		return fmt.Errorf("cas: lock: %w", err)
	}
	return nil
}

// close releases whatever lock is held and closes the file.
func (l *storeLock) close() error {
	return l.f.Close()
}
