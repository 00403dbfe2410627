package cas

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

// ctx is the no-deadline context the package tests thread through the
// store's context-taking methods.
var ctx = context.Background()

func openT(t *testing.T, root string) (*Dir, Report) {
	t.Helper()
	d, rep, err := Open(root)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { d.Close() })
	return d, rep
}

// putBlob stages one blob the way PutStep and PutTag write a layer's
// missing blob, and returns its digest.
func putBlob(d *Dir, data []byte) (string, error) {
	digest := Sum(data)
	d.mu.Lock()
	defer d.mu.Unlock()
	return digest, d.putLayerLocked(Layer{Digest: digest, Data: data})
}

// stored names layers the store already holds, for PutTag.
func stored(digests ...string) []Layer {
	out := make([]Layer, len(digests))
	for i, dg := range digests {
		out[i] = Layer{Digest: dg}
	}
	return out
}

// withData is the layer data makes, digest and bytes, for PutStep; a nil
// data makes the zero layer of a step that changed nothing.
func withData(data []byte) Layer {
	if data == nil {
		return Layer{}
	}
	return Layer{Digest: Sum(data), Data: data}
}

// hasBlob reports blob presence without reading it.
func hasBlob(d *Dir, digest string) bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.hasBlobLocked(digest)
}

func fsckT(t *testing.T, d *Dir) Report {
	t.Helper()
	rep, err := d.Fsck(ctx)
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

func TestBlobRoundTrip(t *testing.T) {
	d, rep := openT(t, t.TempDir())
	if rep.Quarantined() {
		t.Fatalf("fresh store reports damage: %+v", rep)
	}
	data := []byte("layer bytes")
	digest, err := putBlob(d, data)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(digest, DigestPrefix) {
		t.Fatalf("digest %q", digest)
	}
	// Re-put is a no-op, not an error.
	if d2, err := putBlob(d, data); err != nil || d2 != digest {
		t.Fatalf("re-put: %q %v", d2, err)
	}
	got, err := d.Blob(ctx, digest)
	if err != nil || string(got) != string(data) {
		t.Fatalf("Blob: %q %v", got, err)
	}
	if !hasBlob(d, digest) || hasBlob(d, Sum([]byte("other"))) {
		t.Fatal("hasBlob wrong")
	}
	if _, err := d.Blob(ctx, "sha256:doge"); err == nil {
		t.Fatal("malformed digest accepted")
	}
}

func TestJournalStateSurvivesReopen(t *testing.T) {
	root := t.TempDir()
	d, _ := openT(t, root)
	layer := []byte("step layer")
	if err := d.PutStep(ctx, "key1", withData(layer), 2); err != nil {
		t.Fatal(err)
	}
	if err := d.PutStep(ctx, "key2", Layer{}, 0); err != nil {
		t.Fatal(err)
	}
	ld, _ := putBlob(d, []byte("tag layer"))
	if err := d.PutTag(ctx, "app:1", stored(ld), []byte(`{"user":"u"}`)); err != nil {
		t.Fatal(err)
	}
	if err := d.PutTag(ctx, "gone:1", stored(ld), nil); err != nil {
		t.Fatal(err)
	}
	if err := d.DeleteTag(ctx, "gone:1"); err != nil {
		t.Fatal(err)
	}
	d.Close()

	d2, _ := openT(t, root)
	rep := fsckT(t, d2)
	if rep.Quarantined() {
		t.Fatalf("clean store reports damage: %+v", rep)
	}
	st, ok := d2.Step("key1")
	if !ok || st.Modified != 2 || st.Layer != Sum(layer) {
		t.Fatalf("step: %+v ok=%v", st, ok)
	}
	if got, err := d2.Blob(ctx, st.Layer); err != nil || string(got) != "step layer" {
		t.Fatalf("step layer: %q %v", got, err)
	}
	if st2, ok := d2.Step("key2"); !ok || st2.Layer != "" {
		t.Fatalf("empty-layer step: %+v ok=%v", st2, ok)
	}
	tg, ok := d2.Tag("app:1")
	if !ok || len(tg.Layers) != 1 || tg.Layers[0] != ld || string(tg.Config) != `{"user":"u"}` {
		t.Fatalf("tag: %+v ok=%v", tg, ok)
	}
	if _, ok := d2.Tag("gone:1"); ok {
		t.Fatal("untag did not survive reopen")
	}
	if names := d2.TagNames(); len(names) != 1 || names[0] != "app:1" {
		t.Fatalf("TagNames: %v", names)
	}
}

func TestTagRejectsMissingLayer(t *testing.T) {
	d, _ := openT(t, t.TempDir())
	if err := d.PutTag(ctx, "x:1", stored(Sum([]byte("never stored"))), nil); err == nil {
		t.Fatal("dangling tag accepted")
	}
}

func TestReportString(t *testing.T) {
	r := Report{BlobsChecked: 9, BlobsQuarantined: 1, JournalQuarantined: 2, RecordsDropped: 3}
	const want = "quarantined 1 corrupt blob(s) and 2 journal line(s), dropped 3 record(s); affected steps will re-execute"
	if got := r.String(); got != want {
		t.Fatalf("String() = %q, want %q", got, want)
	}
}

func TestOpenOnFileFails(t *testing.T) {
	f := filepath.Join(t.TempDir(), "afile")
	if err := os.WriteFile(f, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := Open(f); err == nil {
		t.Fatal("Open on a regular file succeeded")
	}
}

// A torn tail — the classic crash shape — must quarantine only the torn
// line; every record before it replays.
func TestTornJournalTailRecovered(t *testing.T) {
	root := t.TempDir()
	d, _ := openT(t, root)
	if err := d.PutStep(ctx, "good", withData([]byte("bytes")), 0); err != nil {
		t.Fatal(err)
	}
	d.Close()
	j := filepath.Join(root, "journal")
	data, err := os.ReadFile(j)
	if err != nil {
		t.Fatal(err)
	}
	// Simulate a crash mid-append: half of a new line, no newline.
	torn := append(data, []byte("deadbeef {\"t\":\"step\",\"key\":\"half")...)
	if err := os.WriteFile(j, torn, 0o644); err != nil {
		t.Fatal(err)
	}

	d2, rep := openT(t, root)
	if rep.JournalQuarantined != 1 {
		t.Fatalf("quarantined %d lines, want 1 (%+v)", rep.JournalQuarantined, rep)
	}
	if _, ok := d2.Step("good"); !ok {
		t.Fatal("intact record lost")
	}
	if _, ok := d2.Step("half"); ok {
		t.Fatal("torn record applied")
	}
	// The torn line is preserved for post-mortems.
	if _, err := os.Stat(filepath.Join(root, "quarantine", "journal.bad")); err != nil {
		t.Fatalf("quarantine file: %v", err)
	}
	// Appending after recovery keeps working — and because recovery
	// compacted the journal (the fragment is gone from the file, not just
	// skipped), the appended record must NOT merge with the torn tail.
	if err := d2.PutStep(ctx, "after", Layer{}, 0); err != nil {
		t.Fatal(err)
	}
	d2.Close()

	d3, _ := openT(t, root)
	rep3 := fsckT(t, d3)
	if rep3.Quarantined() {
		t.Fatalf("damage reported again after recovery: %+v", rep3)
	}
	if _, ok := d3.Step("after"); !ok {
		t.Fatal("record appended after torn-tail recovery lost at next open")
	}
	if _, ok := d3.Step("good"); !ok {
		t.Fatal("pre-tear record lost after recovery")
	}
}

// A bit-flip inside the journal fails the line checksum; the damaged line
// is dropped, the rest replay.
func TestCorruptJournalLineQuarantined(t *testing.T) {
	root := t.TempDir()
	d, _ := openT(t, root)
	if err := d.PutStep(ctx, "a", Layer{}, 0); err != nil {
		t.Fatal(err)
	}
	if err := d.PutStep(ctx, "b", Layer{}, 0); err != nil {
		t.Fatal(err)
	}
	d.Close()
	j := filepath.Join(root, "journal")
	data, _ := os.ReadFile(j)
	lines := strings.SplitAfter(string(data), "\n")
	lines[0] = strings.Replace(lines[0], `"a"`, `"z"`, 1) // payload no longer matches checksum
	os.WriteFile(j, []byte(strings.Join(lines, "")), 0o644)

	d2, rep := openT(t, root)
	if rep.JournalQuarantined != 1 {
		t.Fatalf("quarantined %d, want 1", rep.JournalQuarantined)
	}
	if _, ok := d2.Step("a"); ok {
		t.Fatal("corrupt line applied")
	}
	if _, ok := d2.Step("z"); ok {
		t.Fatal("tampered line applied")
	}
	if _, ok := d2.Step("b"); !ok {
		t.Fatal("intact line lost")
	}
}

// A truncated blob is caught by Fsck, moved to quarantine, and every
// record referencing it is dropped — the build re-executes those steps
// instead of failing.
func TestCorruptBlobQuarantinedByFsck(t *testing.T) {
	root := t.TempDir()
	d, _ := openT(t, root)
	layer := []byte("will be truncated")
	if err := d.PutStep(ctx, "victim", withData(layer), 0); err != nil {
		t.Fatal(err)
	}
	if err := d.PutStep(ctx, "bystander", withData([]byte("fine")), 0); err != nil {
		t.Fatal(err)
	}
	digest, _ := putBlob(d, []byte("tagged bytes"))
	if err := d.PutTag(ctx, "app:1", stored(digest), nil); err != nil {
		t.Fatal(err)
	}
	d.Close()

	p, err := (&Dir{root: root}).blobPath(Sum(layer))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(p, layer[:5], 0o644); err != nil { // truncate
		t.Fatal(err)
	}

	d2, _ := openT(t, root)
	rep := fsckT(t, d2)
	if rep.BlobsQuarantined != 1 {
		t.Fatalf("blobs quarantined %d, want 1 (%+v)", rep.BlobsQuarantined, rep)
	}
	// The step whose layer died drops.
	if rep.RecordsDropped != 1 {
		t.Fatalf("records dropped %d, want 1 (%+v)", rep.RecordsDropped, rep)
	}
	if _, ok := d2.Step("victim"); ok {
		t.Fatal("step with corrupt layer survived")
	}
	if _, ok := d2.Step("bystander"); !ok {
		t.Fatal("unrelated step lost")
	}
	if _, ok := d2.Tag("app:1"); !ok {
		t.Fatal("unrelated tag lost")
	}
	// The bad bytes were preserved, not deleted.
	ents, _ := os.ReadDir(filepath.Join(root, "quarantine"))
	if len(ents) != 1 {
		t.Fatalf("quarantine holds %d entries, want 1", len(ents))
	}
}

// Bit rot after open is caught on read: Blob verifies, quarantines and
// misses rather than returning wrong bytes.
func TestBlobVerifiedOnRead(t *testing.T) {
	root := t.TempDir()
	d, _ := openT(t, root)
	digest, err := putBlob(d, []byte("pristine"))
	if err != nil {
		t.Fatal(err)
	}
	p, _ := d.blobPath(digest)
	os.WriteFile(p, []byte("scribbled"), 0o644)
	if _, err := d.Blob(ctx, digest); err == nil {
		t.Fatal("corrupt blob served")
	}
	if hasBlob(d, digest) {
		t.Fatal("corrupt blob still present after quarantine")
	}
}

// Stranded temp files from a crashed writer are removed at open.
func TestStrandedTempFilesCleared(t *testing.T) {
	root := t.TempDir()
	d, _ := openT(t, root)
	d.Close()
	tmp := filepath.Join(root, "tmp", "blob-99-deadbeef")
	if err := os.WriteFile(tmp, []byte("partial"), 0o644); err != nil {
		t.Fatal(err)
	}
	openT(t, root)
	if _, err := os.Stat(tmp); !os.IsNotExist(err) {
		t.Fatal("stranded temp file survived open")
	}
}

func TestReset(t *testing.T) {
	d, _ := openT(t, t.TempDir())
	d.PutStep(ctx, "k", withData([]byte("x")), 0)
	digest, _ := putBlob(d, []byte("y"))
	d.PutTag(ctx, "t:1", stored(digest), nil)
	if err := d.Reset(ctx); err != nil {
		t.Fatal(err)
	}
	if _, ok := d.Step("k"); ok {
		t.Fatal("step survived reset")
	}
	if n, _ := d.BlobStats(); n != 0 {
		t.Fatalf("%d blobs survived reset", n)
	}
	// The store stays usable after a reset.
	if err := d.PutStep(ctx, "k2", withData([]byte("z")), 0); err != nil {
		t.Fatal(err)
	}
}

// Reset recreates blobs/sha256 and reopens the handle presence is checked
// through: a blob put after the reset is present, one from before it is
// not, and the store reopens with nothing to drop.
func TestResetReopensBlobHandle(t *testing.T) {
	root := t.TempDir()
	d, _ := openT(t, root)
	before := withData([]byte("before reset"))
	if err := d.PutStep(ctx, "old", before, 0); err != nil {
		t.Fatal(err)
	}
	if err := d.Reset(ctx); err != nil {
		t.Fatal(err)
	}
	after := withData([]byte("after reset"))
	if err := d.PutStep(ctx, "new", after, 0); err != nil {
		t.Fatal(err)
	}
	if !hasBlob(d, after.Digest) {
		t.Fatal("blob put after the reset reported absent")
	}
	if hasBlob(d, before.Digest) {
		t.Fatal("blob put before the reset reported present")
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	d2, rep := openT(t, root)
	if rep.Quarantined() {
		t.Fatalf("reopen after reset: %+v", rep)
	}
	if st, ok := d2.Step("new"); !ok || st.Layer != after.Digest {
		t.Fatalf("step put after the reset: %+v, %v", st, ok)
	}
}

// Many goroutines hammering one handle — the build pool's write pattern —
// must neither race (run with -race) nor lose records.
func TestConcurrentWriters(t *testing.T) {
	root := t.TempDir()
	d, _ := openT(t, root)
	const writers, each = 8, 25
	var wg sync.WaitGroup
	errs := make(chan error, writers)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				layer := []byte(fmt.Sprintf("layer-%d-%d", w, i))
				if err := d.PutStep(ctx, fmt.Sprintf("key-%d-%d", w, i), withData(layer), 0); err != nil {
					errs <- err
					return
				}
				// Contend on one shared blob too.
				if _, err := putBlob(d, []byte("shared")); err != nil {
					errs <- err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if got := len(d.Steps()); got != writers*each {
		t.Fatalf("steps after concurrent writes: %d, want %d", got, writers*each)
	}
	d.Close()

	// Everything written under contention replays on a fresh open.
	d2, _ := openT(t, root)
	rep := fsckT(t, d2)
	if rep.Quarantined() {
		t.Fatalf("contended store reports damage: %+v", rep)
	}
	if got := len(d2.Steps()); got != writers*each {
		t.Fatalf("steps after reopen: %d, want %d", got, writers*each)
	}
	for w := 0; w < writers; w++ {
		for i := 0; i < each; i++ {
			st, ok := d2.Step(fmt.Sprintf("key-%d-%d", w, i))
			if !ok {
				t.Fatalf("key-%d-%d lost", w, i)
			}
			if got, err := d2.Blob(ctx, st.Layer); err != nil ||
				string(got) != fmt.Sprintf("layer-%d-%d", w, i) {
				t.Fatalf("layer %d-%d: %q %v", w, i, got, err)
			}
		}
	}
}

// Puts on a closed handle fail before any blob I/O: a layer the store
// lacks is not written, since the shared store lock that kept GC and Reset
// out is gone.
func TestAppendAfterCloseFails(t *testing.T) {
	root := t.TempDir()
	d, _ := openT(t, root)
	d.Close()
	if err := d.PutStep(ctx, "k", Layer{}, 0); err == nil {
		t.Fatal("append after close succeeded")
	}
	if err := d.PutStep(ctx, "k", withData([]byte("step layer")), 0); err == nil {
		t.Fatal("step put after close succeeded")
	}
	if err := d.PutTag(ctx, "t:1", []Layer{withData([]byte("tag layer"))}, nil); err == nil {
		t.Fatal("tag put after close succeeded")
	}
	for _, sub := range []string{"blobs", "tmp"} {
		err := filepath.WalkDir(filepath.Join(root, sub), func(p string, e os.DirEntry, err error) error {
			if err == nil && !e.IsDir() {
				t.Errorf("put after close wrote %s", p)
			}
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
	}
}

// PutTag writes the layers the store lacks from the bytes it is given,
// checking them against their claimed digest, and takes a present layer
// by its digest alone: its bytes are neither hashed nor written.
func TestPutTagWritesOnlyMissingBlobs(t *testing.T) {
	d, _ := openT(t, t.TempDir())
	present, err := putBlob(d, []byte("present"))
	if err != nil {
		t.Fatal(err)
	}
	missing := []byte("missing")
	layers := []Layer{
		{Digest: present, Data: []byte("not the present bytes")},
		{Digest: Sum(missing), Data: missing},
	}
	if err := d.PutTag(ctx, "app:1", layers, nil); err != nil {
		t.Fatal(err)
	}
	if got, err := d.Blob(ctx, Sum(missing)); err != nil || string(got) != "missing" {
		t.Fatalf("missing layer not written: %q, %v", got, err)
	}
	if got, err := d.Blob(ctx, present); err != nil || string(got) != "present" {
		t.Fatalf("present layer rewritten: %q, %v", got, err)
	}
	if tg, ok := d.Tag("app:1"); !ok || len(tg.Layers) != 2 || tg.Layers[1] != Sum(missing) {
		t.Fatalf("tag = %+v, %v", tg, ok)
	}

	liar := []Layer{{Digest: Sum([]byte("claimed")), Data: []byte("actual")}}
	if err := d.PutTag(ctx, "liar:1", liar, nil); err == nil {
		t.Fatal("a layer whose bytes hash to another digest was accepted")
	}
	if _, ok := d.Tag("liar:1"); ok {
		t.Fatal("rejected tag recorded")
	}
}

// PutStep takes the layer's digest from its caller: a present blob is
// taken by that digest alone, unhashed and unwritten, and a missing one is
// written only when its bytes hash to the claimed digest.
func TestPutStepChecksClaimedDigest(t *testing.T) {
	d, _ := openT(t, t.TempDir())
	present, err := putBlob(d, []byte("present"))
	if err != nil {
		t.Fatal(err)
	}
	if err := d.PutStep(ctx, "present", Layer{Digest: present, Data: []byte("not the present bytes")}, 0); err != nil {
		t.Fatal(err)
	}
	if got, err := d.Blob(ctx, present); err != nil || string(got) != "present" {
		t.Fatalf("present layer rewritten: %q, %v", got, err)
	}

	claimed, actual := Sum([]byte("claimed")), []byte("actual")
	for _, c := range []struct {
		name  string
		layer Layer
	}{
		{"bytes under another digest", Layer{Digest: claimed, Data: actual}},
		{"missing blob without bytes", Layer{Digest: claimed}},
		{"bytes without a digest", Layer{Data: actual}},
	} {
		if err := d.PutStep(ctx, c.name, c.layer, 0); err == nil {
			t.Errorf("%s: accepted", c.name)
		}
		if _, ok := d.Step(c.name); ok {
			t.Errorf("%s: rejected step recorded", c.name)
		}
	}
	if hasBlob(d, claimed) || hasBlob(d, Sum(actual)) {
		t.Fatal("a rejected layer's bytes were written")
	}
}

// A handle whose journal was replaced underneath it must not append into
// the unlinked inode: the next append detects the orphan and rewrites the
// journal from its own state first. A *cooperating* handle can no longer
// cause this (its compaction blocks on our shared flock), so the test
// plays a non-cooperating external writer: it renames a fresh copy of the
// journal into place by hand, orphaning d1's append fd.
func TestAppendAfterExternalCompactionNotLost(t *testing.T) {
	root := t.TempDir()
	d1, _ := openT(t, root)
	if err := d1.PutStep(ctx, "before", withData([]byte("layer-b")), 0); err != nil {
		t.Fatal(err)
	}
	if err := d1.PutTag(ctx, "root:1", stored(Sum([]byte("layer-b"))), nil); err != nil {
		t.Fatal(err)
	}

	// External rewrite: same bytes, new inode.
	j := filepath.Join(root, "journal")
	data, err := os.ReadFile(j)
	if err != nil {
		t.Fatal(err)
	}
	ext := filepath.Join(root, "ext-journal")
	if err := os.WriteFile(ext, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.Rename(ext, j); err != nil {
		t.Fatal(err)
	}

	if err := d1.PutStep(ctx, "after", withData([]byte("layer-a")), 0); err != nil {
		t.Fatal(err)
	}
	d1.Close()

	d3, _ := openT(t, root)
	rep := fsckT(t, d3)
	if rep.Quarantined() {
		t.Fatalf("damage after orphan recovery: %+v", rep)
	}
	if _, ok := d3.Step("after"); !ok {
		t.Fatal("record appended through an orphaned handle lost")
	}
	if _, ok := d3.Step("before"); !ok {
		t.Fatal("pre-rewrite record lost")
	}
}

// A blob that exists but cannot be served (wrong file type standing in
// for EACCES/EIO) is quarantined on read, so a later re-put of the good
// bytes heals the store instead of stat-hitting the broken file forever.
func TestUnserveableBlobHealsOnRePut(t *testing.T) {
	d, _ := openT(t, t.TempDir())
	data := []byte("healable bytes")
	digest, err := putBlob(d, data)
	if err != nil {
		t.Fatal(err)
	}
	p, _ := d.blobPath(digest)
	// Replace the blob file with a directory: present, unreadable as a file.
	if err := os.Remove(p); err != nil {
		t.Fatal(err)
	}
	if err := os.Mkdir(p, 0o755); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Blob(ctx, digest); err == nil {
		t.Fatal("unserveable blob served")
	}
	// The broken entry was moved aside; re-putting the bytes heals.
	if _, err := putBlob(d, data); err != nil {
		t.Fatal(err)
	}
	got, err := d.Blob(ctx, digest)
	if err != nil || string(got) != string(data) {
		t.Fatalf("after heal: %q %v", got, err)
	}
}

// A bad journal line is quarantined once, however many times the store
// reads the journal: an open that repairs the journal reads it twice (the
// load, then the reload under the exclusive lock). A bad line first seen
// at a later reload, such as a peer's torn append, still lands in
// journal.bad.
func TestBadJournalLineQuarantinedOnce(t *testing.T) {
	root := t.TempDir()
	d, _ := openT(t, root)
	if err := d.PutStep(ctx, "good", Layer{}, 0); err != nil {
		t.Fatal(err)
	}
	d.Close()
	j := filepath.Join(root, "journal")
	appendJournal := func(line string) {
		t.Helper()
		f, err := os.OpenFile(j, os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.WriteString(line); err != nil {
			t.Fatal(err)
		}
		f.Close()
	}
	bad := filepath.Join(root, "quarantine", "journal.bad")
	wantBad := func(want string) {
		t.Helper()
		got, err := os.ReadFile(bad)
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != want {
			t.Fatalf("journal.bad = %q, want %q", got, want)
		}
	}

	appendJournal("0000 torn\n")
	d2, rep := openT(t, root)
	if rep.JournalQuarantined != 1 {
		t.Fatalf("quarantined %d lines, want 1 (%+v)", rep.JournalQuarantined, rep)
	}
	wantBad("0000 torn\n")

	// A peer's torn append, first seen when GC reloads the journal.
	appendJournal("1111 peer\n")
	if _, err := d2.GC(ctx, Budget{}); err != nil {
		t.Fatal(err)
	}
	wantBad("0000 torn\n1111 peer\n")
	if _, ok := d2.Step("good"); !ok {
		t.Fatal("intact record lost")
	}
}
