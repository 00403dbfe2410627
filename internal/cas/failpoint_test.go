package cas

import (
	"context"
	"errors"
	"fmt"
	"os"
	"syscall"
	"testing"
	"time"
)

func TestFailpointBlobWriteTornLeavesOnlyTmpLitter(t *testing.T) {
	root := t.TempDir()
	d, _ := openT(t, root)
	d.SetFailpoints(NewScript(ScriptStep{Op: OpBlobWrite, Err: &TornWrite{Keep: 3}}))
	data := []byte("torn-victim-payload")
	if _, err := d.PutBlob(ctx, data); err == nil {
		t.Fatal("torn write should fail the put")
	}
	tmps, err := os.ReadDir(d.path("tmp"))
	if err != nil || len(tmps) != 1 {
		t.Fatalf("want exactly one stranded temp, got %d (err %v)", len(tmps), err)
	}
	// The script is spent: the same put now succeeds and reads back whole.
	digest, err := d.PutBlob(ctx, data)
	if err != nil {
		t.Fatal(err)
	}
	got, err := d.Blob(ctx, digest)
	if err != nil || string(got) != string(data) {
		t.Fatalf("healed blob read: %q, %v", got, err)
	}
	d.Close()
	// Reopen: litter cleared, zero damage.
	d2, _ := openT(t, root)
	rep := fsckT(t, d2)
	if rep.Quarantined() {
		t.Fatalf("torn temp read as damage: %+v", rep)
	}
	if tmps, _ := os.ReadDir(d2.path("tmp")); len(tmps) != 0 {
		t.Fatalf("stranded temps not cleared: %d", len(tmps))
	}
}

func TestFailpointBlobReadDoesNotQuarantine(t *testing.T) {
	d, _ := openT(t, t.TempDir())
	digest, err := d.PutBlob(ctx, []byte("healthy"))
	if err != nil {
		t.Fatal(err)
	}
	d.SetFailpoints(FailOps(fmt.Errorf("injected read fault"), OpBlobRead))
	if _, err := d.Blob(ctx, digest); err == nil {
		t.Fatal("injected read fault should surface")
	}
	if rep := d.Report(); rep.BlobsQuarantined != 0 {
		t.Fatalf("healthy blob quarantined on injected read fault: %+v", rep)
	}
	d.SetFailpoints(nil)
	if got, err := d.Blob(ctx, digest); err != nil || string(got) != "healthy" {
		t.Fatalf("blob unreadable after injected fault cleared: %q, %v", got, err)
	}
}

func TestFailpointJournalAppendENOSPCKeepsStoreClean(t *testing.T) {
	root := t.TempDir()
	d, _ := openT(t, root)
	if err := d.PutStep(ctx, "k1", []byte("l1"), 0); err != nil {
		t.Fatal(err)
	}
	d.SetFailpoints(FailOps(fmt.Errorf("injected: %w", syscall.ENOSPC), OpJournalAppend))
	err := d.PutStep(ctx, "k2", []byte("l2"), 0)
	if !errors.Is(err, syscall.ENOSPC) {
		t.Fatalf("want ENOSPC through, got %v", err)
	}
	d.Close()
	d2, _ := openT(t, root)
	rep := fsckT(t, d2)
	if rep.Quarantined() {
		t.Fatalf("failed append damaged the store: %+v", rep)
	}
	if _, ok := d2.Step("k1"); !ok {
		t.Fatal("pre-fault step lost")
	}
	if _, ok := d2.Step("k2"); ok {
		t.Fatal("failed append half-recorded")
	}
}

func TestFailpointLockBusyGC(t *testing.T) {
	d, _ := openT(t, t.TempDir())
	d.SetFailpoints(FailOps(fmt.Errorf("injected: %w", ErrBusy), OpLock))
	if _, err := d.GC(ctx, Budget{}); !errors.Is(err, ErrBusy) {
		t.Fatalf("want ErrBusy, got %v", err)
	}
	if err := d.Reset(ctx); !errors.Is(err, ErrBusy) {
		t.Fatalf("want ErrBusy from Reset, got %v", err)
	}
}

func TestPlanIsDeterministic(t *testing.T) {
	rate := map[Op]float64{OpBlobWrite: 0.5, OpBlobRead: 0.5}
	seq := func() []string {
		p := NewPlan(42, rate)
		var out []string
		for i := 0; i < 64; i++ {
			err := p.Fail(AllOps[i%len(AllOps)])
			if err == nil {
				out = append(out, "")
			} else {
				out = append(out, err.Error())
			}
		}
		return out
	}
	a, b := seq(), seq()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at %d: %q vs %q", i, a[i], b[i])
		}
	}
}

func TestParseFaults(t *testing.T) {
	inj, err := ParseFaults("journal-append,blob-read:transient")
	if err != nil {
		t.Fatal(err)
	}
	if err := inj.Fail(OpJournalAppend); err == nil || Transient(err) {
		t.Fatalf("journal-append should fail permanently, got %v", err)
	}
	if err := inj.Fail(OpBlobRead); err == nil || !Transient(err) {
		t.Fatalf("blob-read:transient should fail transiently, got %v", err)
	}
	if err := inj.Fail(OpBlobWrite); err != nil {
		t.Fatalf("unlisted op should pass, got %v", err)
	}
	if _, err := ParseFaults("no-such-op"); err == nil {
		t.Fatal("unknown op should be rejected")
	}
	if _, err := ParseFaults(" , "); err == nil {
		t.Fatal("empty spec should be rejected")
	}
}

func TestRetryDo(t *testing.T) {
	fast := RetryPolicy{Attempts: 4, Base: time.Microsecond, Max: 10 * time.Microsecond}

	// Transient failures retry until success.
	calls := 0
	err := fast.Do(context.Background(), func() error {
		calls++
		if calls < 3 {
			return MarkTransient(fmt.Errorf("flaky"))
		}
		return nil
	})
	if err != nil || calls != 3 {
		t.Fatalf("want success on try 3, got err=%v calls=%d", err, calls)
	}

	// Permanent failures return immediately.
	calls = 0
	permanent := fmt.Errorf("injected: %w", syscall.ENOSPC)
	err = fast.Do(context.Background(), func() error { calls++; return permanent })
	if !errors.Is(err, syscall.ENOSPC) || calls != 1 {
		t.Fatalf("ENOSPC must not retry: err=%v calls=%d", err, calls)
	}

	// ErrBusy is transient by classification and exhausts the attempts.
	calls = 0
	err = fast.Do(context.Background(), func() error { calls++; return ErrBusy })
	if !errors.Is(err, ErrBusy) || calls != 4 {
		t.Fatalf("ErrBusy should retry to exhaustion: err=%v calls=%d", err, calls)
	}

	// A done context stops before the first try.
	cctx, cancel := context.WithCancel(context.Background())
	cancel()
	calls = 0
	err = fast.Do(cctx, func() error { calls++; return nil })
	if !errors.Is(err, context.Canceled) || calls != 0 {
		t.Fatalf("cancelled ctx should not run op: err=%v calls=%d", err, calls)
	}
}

func TestTransientClassification(t *testing.T) {
	cases := []struct {
		err  error
		want bool
	}{
		{nil, false},
		{ErrBusy, true},
		{fmt.Errorf("wrap: %w", ErrBusy), true},
		{MarkTransient(fmt.Errorf("io hiccup")), true},
		{fmt.Errorf("wrap: %w", MarkTransient(fmt.Errorf("io hiccup"))), true},
		{syscall.EINTR, true},
		{syscall.EAGAIN, true},
		{syscall.ENOSPC, false},
		{context.Canceled, false},
		{context.DeadlineExceeded, false},
		{fmt.Errorf("plain"), false},
	}
	for i, c := range cases {
		if got := Transient(c.err); got != c.want {
			t.Errorf("case %d (%v): Transient = %v, want %v", i, c.err, got, c.want)
		}
	}
}

func TestContextCancelledStoreOps(t *testing.T) {
	d, _ := openT(t, t.TempDir())
	cctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := d.PutBlob(cctx, []byte("x")); !errors.Is(err, context.Canceled) {
		t.Fatalf("PutBlob: %v", err)
	}
	if _, err := d.Blob(cctx, Sum([]byte("x"))); !errors.Is(err, context.Canceled) {
		t.Fatalf("Blob: %v", err)
	}
	if err := d.PutStep(cctx, "k", nil, 0); !errors.Is(err, context.Canceled) {
		t.Fatalf("PutStep: %v", err)
	}
	if _, err := d.GC(cctx, Budget{}); !errors.Is(err, context.Canceled) {
		t.Fatalf("GC: %v", err)
	}
}
