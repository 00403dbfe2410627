//go:build darwin || dragonfly || freebsd || linux || netbsd || openbsd

package cas

import (
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"sync"
	"testing"
	"time"
)

// Two handles in one process open the lock file separately, so flock
// treats them like two processes: a maintenance pass through one must
// fail with ErrBusy while the other keeps the store open.
func TestGCBusyWhileSecondHandleOpen(t *testing.T) {
	root := t.TempDir()
	d1, _ := openT(t, root)
	if err := d1.PutStep(ctx, "warm", []byte("layer"), 0); err != nil {
		t.Fatal(err)
	}

	d2, _, err := Open(root, WithLockWait(50*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()

	if _, err := d2.GC(ctx, Budget{}); !errors.Is(err, ErrBusy) {
		t.Fatalf("GC with peer open: err = %v, want ErrBusy", err)
	}
	if err := d2.Reset(ctx); !errors.Is(err, ErrBusy) {
		t.Fatalf("Reset with peer open: err = %v, want ErrBusy", err)
	}

	// A failed maintenance attempt must leave the handle fully usable:
	// the exclusive conversion re-acquired its shared hold.
	if err := d2.PutStep(ctx, "after-busy", []byte("more"), 0); err != nil {
		t.Fatalf("append after ErrBusy: %v", err)
	}

	// Once the peer closes, the same call succeeds.
	if err := d1.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := d2.GC(ctx, Budget{}); err != nil {
		t.Fatalf("GC after peer closed: %v", err)
	}
	if _, ok := d2.Step("after-busy"); ok {
		t.Fatal("untagged step survived a full-sweep GC")
	}
}

// A GC that starts before the peer closes must block on the store lock
// and then proceed, rather than interleaving with the peer's appends.
func TestGCWaitsForPeerClose(t *testing.T) {
	root := t.TempDir()
	d1, _ := openT(t, root)
	if err := d1.PutStep(ctx, "warm", []byte("layer"), 0); err != nil {
		t.Fatal(err)
	}
	d2, _, err := Open(root, WithLockWait(10*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()

	done := make(chan error, 1)
	go func() {
		_, err := d2.GC(ctx, Budget{})
		done <- err
	}()
	select {
	case err := <-done:
		t.Fatalf("GC returned (%v) while peer still held the store", err)
	case <-time.After(100 * time.Millisecond):
	}
	if err := d1.Close(); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("GC after peer close: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("GC never completed after peer closed")
	}
}

// TestFlockGCHelper is the child half of TestTwoProcessFlock: re-executed
// via the test binary, it opens the store named by CAS_FLOCK_ROOT with a
// short lock wait and reports through its exit code — 3 for ErrBusy,
// 0 for a successful GC, 1 for anything else.
func TestFlockGCHelper(t *testing.T) {
	root := os.Getenv("CAS_FLOCK_ROOT")
	if root == "" {
		t.Skip("helper: run by TestTwoProcessFlock only")
	}
	d, _, err := Open(root, WithLockWait(200*time.Millisecond))
	if err != nil {
		t.Logf("open: %v", err)
		os.Exit(1)
	}
	_, err = d.GC(ctx, Budget{})
	d.Close()
	switch {
	case errors.Is(err, ErrBusy):
		os.Exit(3)
	case err != nil:
		t.Logf("gc: %v", err)
		os.Exit(1)
	}
	os.Exit(0)
}

// The cross-process acceptance case: while this process holds the store
// open (shared lock), a second process's GC fails cleanly with ErrBusy;
// after Close it succeeds.
func TestTwoProcessFlock(t *testing.T) {
	root := t.TempDir()
	d, _ := openT(t, root)
	if err := d.PutStep(ctx, "warm", []byte("layer"), 0); err != nil {
		t.Fatal(err)
	}

	run := func() int {
		t.Helper()
		cmd := exec.Command(os.Args[0], "-test.run=^TestFlockGCHelper$", "-test.v")
		cmd.Env = append(os.Environ(), "CAS_FLOCK_ROOT="+root)
		out, err := cmd.CombinedOutput()
		if err == nil {
			return 0
		}
		var ee *exec.ExitError
		if errors.As(err, &ee) {
			return ee.ExitCode()
		}
		t.Fatalf("exec: %v\n%s", err, out)
		return -1
	}

	if code := run(); code != 3 {
		t.Fatalf("child GC with store held: exit %d, want 3 (ErrBusy)", code)
	}
	// The busy child must not have corrupted anything for us.
	if err := d.PutStep(ctx, "after-child", []byte("more"), 0); err != nil {
		t.Fatalf("append after child ErrBusy: %v", err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	if code := run(); code != 0 {
		t.Fatalf("child GC with store released: exit %d, want 0", code)
	}
	// The child's full sweep dropped the untagged steps; reopening must
	// see a healthy (colder) store, not damage.
	d2, _ := openT(t, root)
	rep := fsckT(t, d2)
	if rep.Quarantined() {
		t.Fatalf("store damaged after child GC: %+v", rep)
	}
	if _, ok := d2.Step("warm"); ok {
		t.Fatal("untagged step survived the child's full sweep")
	}
}

// A damaged store shared with a long-lived peer (a resident daemon holds
// its handle for life) must open at once: compaction tries the exclusive
// lock once and falls through to the degraded path, which terminates the
// torn tail so later appends survive.
func TestDamagedOpenWithPeerDoesNotWait(t *testing.T) {
	root := t.TempDir()
	peer, _ := openT(t, root)
	if err := peer.PutStep(ctx, "good", []byte("layer"), 0); err != nil {
		t.Fatal(err)
	}
	j, err := os.OpenFile(filepath.Join(root, "journal"), os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := j.WriteString(`deadbeef {"t":"step","key":"half`); err != nil {
		t.Fatal(err)
	}
	j.Close()

	start := time.Now()
	d, rep, err := Open(root) // the default lock wait: a minute
	if err != nil {
		t.Fatal(err)
	}
	if took := time.Since(start); took >= time.Second {
		t.Fatalf("damaged open with a peer holding the store took %v", took)
	}
	if rep.JournalQuarantined != 1 {
		t.Fatalf("report %+v, want the torn line quarantined", rep)
	}
	if err := d.PutStep(ctx, "after", nil, 0); err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	if err := peer.Close(); err != nil {
		t.Fatal(err)
	}
	d2, _ := openT(t, root)
	for _, key := range []string{"good", "after"} {
		if _, ok := d2.Step(key); !ok {
			t.Fatalf("step %q lost after a degraded open", key)
		}
	}
}

// A record whose only blob Fsck quarantined is dropped both by that Fsck
// and by the next plain Open. A peer keeps the journal from being
// compacted, so the record is still on disk when the later open replays
// it; the open's presence check (one stat per distinct digest) must drop
// it too.
func TestQuarantinedBlobRecordDroppedInBothModes(t *testing.T) {
	root := t.TempDir()
	d, _ := openT(t, root)
	if err := d.PutStep(ctx, "victim", []byte("victim layer"), 0); err != nil {
		t.Fatal(err)
	}
	if err := d.PutStep(ctx, "bystander", []byte("bystander layer"), 0); err != nil {
		t.Fatal(err)
	}
	victim, _ := d.Step("victim")
	corruptBlobOnDisk(t, d, victim.Layer)

	for _, fsck := range []bool{true, false} {
		d2, rep, err := Open(root)
		if err != nil {
			t.Fatal(err)
		}
		if fsck {
			if rep = fsckT(t, d2); rep.BlobsQuarantined != 1 {
				t.Fatalf("fsck: %+v, want the corrupt blob quarantined", rep)
			}
		}
		if rep.RecordsDropped != 1 {
			t.Fatalf("fsck=%v: %+v, want the victim record dropped", fsck, rep)
		}
		if _, ok := d2.Step("victim"); ok {
			t.Fatalf("fsck=%v: record on a quarantined blob survived", fsck)
		}
		if _, ok := d2.Step("bystander"); !ok {
			t.Fatalf("fsck=%v: unrelated record lost", fsck)
		}
		if err := d2.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// Two handles converting to exclusive at once: the one that polls second
// wins, because a failed conversion can leave the first holding no lock
// while it waits; the loser times out with ErrBusy, since the winner's
// handle keeps its shared hold. Re-taking the shared lock between polls
// would make each keep the other out until both timed out. The loser
// must come back holding the store shared: once the winner closes, its
// own GC goes through.
func TestConcurrentExclusiveWaitersOneWins(t *testing.T) {
	root := t.TempDir()
	handles := make([]*Dir, 2)
	for i := range handles {
		d, _, err := Open(root, WithLockWait(300*time.Millisecond))
		if err != nil {
			t.Fatal(err)
		}
		defer d.Close()
		handles[i] = d
	}
	errs := make([]error, len(handles))
	var wg sync.WaitGroup
	for i, d := range handles {
		wg.Add(1)
		go func(i int, d *Dir) {
			defer wg.Done()
			_, errs[i] = d.GC(ctx, Budget{})
		}(i, d)
	}
	wg.Wait()
	winner, loser := -1, -1
	for i, err := range errs {
		switch {
		case err == nil:
			winner = i
		case errors.Is(err, ErrBusy):
			loser = i
		default:
			t.Fatalf("GC: %v", err)
		}
	}
	if winner < 0 || loser < 0 {
		t.Fatalf("GC results %v, want one success and one ErrBusy", errs)
	}
	if err := handles[winner].Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := handles[loser].GC(ctx, Budget{}); err != nil {
		t.Fatalf("GC after the winner closed: %v", err)
	}
}
