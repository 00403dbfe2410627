package cas

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"testing"
)

// corruptBlobOnDisk flips the stored bytes of a blob without touching its
// name, simulating bit rot between invocations.
func corruptBlobOnDisk(t *testing.T, d *Dir, digest string) {
	t.Helper()
	p, err := d.blobPath(digest)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(p, []byte("rotten"), 0o644); err != nil {
		t.Fatal(err)
	}
}

// A kill between writeCompactJournalLocked's temp write and its rename strands
// a temp journal and leaves the real journal untouched. Reopen must heal:
// the litter is cleared, every record survives, and no damage is reported.
func TestCrashMidCompactionHeals(t *testing.T) {
	root := t.TempDir()
	d, _ := openT(t, root)
	if err := d.PutStep(ctx, "k1", withData([]byte("layer-1")), 0); err != nil {
		t.Fatal(err)
	}
	if err := d.PutStep(ctx, "k2", withData([]byte("layer-2")), 0); err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	// The stranded temp file: half a compacted journal, never renamed.
	// Its content is deliberately a torn prefix of valid-looking lines.
	journal, err := os.ReadFile(filepath.Join(root, "journal"))
	if err != nil {
		t.Fatal(err)
	}
	tmp := filepath.Join(root, "tmp", "journal-42")
	if err := os.WriteFile(tmp, journal[:len(journal)/2], 0o644); err != nil {
		t.Fatal(err)
	}

	d2, _ := openT(t, root)
	rep := fsckT(t, d2)
	if rep.Quarantined() {
		t.Fatalf("reopen after crash-mid-compaction reports damage: %+v", rep)
	}
	for _, key := range []string{"k1", "k2"} {
		if _, ok := d2.Step(key); !ok {
			t.Fatalf("step %q lost to a crash that never renamed", key)
		}
	}
	if _, err := os.Stat(tmp); !os.IsNotExist(err) {
		t.Fatalf("stranded temp journal not cleared: %v", err)
	}
}

// Open must not read blob contents: a corrupt blob goes unnoticed at
// open (no fsck pass), is caught by Blob's verify-on-read, and the next
// open drops the now-dangling record.
func TestLazyOpenDefersBlobVerification(t *testing.T) {
	root := t.TempDir()
	d, _ := openT(t, root)
	if err := d.PutStep(ctx, "good", withData([]byte("good layer")), 0); err != nil {
		t.Fatal(err)
	}
	if err := d.PutStep(ctx, "bad", withData([]byte("bad layer")), 0); err != nil {
		t.Fatal(err)
	}
	badStep, _ := d.Step("bad")
	corruptBlobOnDisk(t, d, badStep.Layer)
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	d2, _, err := Open(root)
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	rep := d2.Report()
	if rep.BlobsChecked != 0 || rep.BlobsQuarantined != 0 {
		t.Fatalf("open ran the fsck pass: %+v", rep)
	}
	// The record is still there — the open trades early detection for a
	// cheap open; presence was stat-checked, content was not.
	if _, ok := d2.Step("bad"); !ok {
		t.Fatal("open dropped a record whose blob file exists")
	}
	// Verify-on-read is the backstop: the corrupt blob reads as an error
	// and is quarantined then.
	if _, err := d2.Blob(ctx, badStep.Layer); err == nil {
		t.Fatal("corrupt blob read back without error")
	}
	if d2.Report().BlobsQuarantined != 1 {
		t.Fatalf("corrupt blob not quarantined at read: %+v", d2.Report())
	}
	goodStep, _ := d2.Step("good")
	if data, err := d2.Blob(ctx, goodStep.Layer); err != nil || string(data) != "good layer" {
		t.Fatalf("good blob: %q %v", data, err)
	}
	if err := d2.Close(); err != nil {
		t.Fatal(err)
	}

	// Same end state as Fsck, discovered later: the next open sees the
	// quarantined blob missing and drops the dangling record.
	d3, _, err := Open(root)
	if err != nil {
		t.Fatal(err)
	}
	defer d3.Close()
	if _, ok := d3.Step("bad"); ok {
		t.Fatal("dangling record survived reopen")
	}
	if _, ok := d3.Step("good"); !ok {
		t.Fatal("healthy record lost")
	}
}

// Open still drops records whose blob files are missing entirely — the
// stat-based presence check needs no blob read.
func TestLazyOpenDropsDanglingRecords(t *testing.T) {
	root := t.TempDir()
	d, _ := openT(t, root)
	if err := d.PutStep(ctx, "dangling", withData([]byte("gone layer")), 0); err != nil {
		t.Fatal(err)
	}
	st, _ := d.Step("dangling")
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	p, err := d.blobPath(st.Layer)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(p); err != nil {
		t.Fatal(err)
	}

	d2, _, err := Open(root)
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	if _, ok := d2.Step("dangling"); ok {
		t.Fatal("record referencing a missing blob survived open")
	}
	if d2.Report().RecordsDropped != 1 {
		t.Fatalf("RecordsDropped = %d, want 1", d2.Report().RecordsDropped)
	}
}

// Fsck is a context-first store operation: a done context or a closed
// handle fails it before any blob is read.
func TestFsckRefusesDoneContextAndClosedHandle(t *testing.T) {
	d, _ := openT(t, t.TempDir())
	if _, err := putBlob(d, []byte("blob")); err != nil {
		t.Fatal(err)
	}
	done, cancel := context.WithCancel(ctx)
	cancel()
	if _, err := d.Fsck(done); !errors.Is(err, context.Canceled) {
		t.Fatalf("Fsck with a done context: %v", err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Fsck(ctx); err == nil {
		t.Fatal("Fsck on a closed handle succeeded")
	}
}
