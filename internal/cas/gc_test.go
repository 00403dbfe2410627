package cas

import (
	"os"
	"path/filepath"
	"testing"
)

// GC keeps a blob while ANY tag references it: dropping one of two tags
// sharing a layer must not sweep the layer.
func TestGCBlobSharedByTwoTagsSurvives(t *testing.T) {
	d, _ := openT(t, t.TempDir())
	shared, _ := putBlob(d, []byte("shared layer"))
	only, _ := putBlob(d, []byte("private layer"))
	if err := d.PutTag(ctx, "a:1", stored(shared), nil); err != nil {
		t.Fatal(err)
	}
	if err := d.PutTag(ctx, "b:1", stored(shared, only), nil); err != nil {
		t.Fatal(err)
	}
	if err := d.DeleteTag(ctx, "b:1"); err != nil {
		t.Fatal(err)
	}
	stats, err := d.GC(ctx, Budget{})
	if err != nil {
		t.Fatal(err)
	}
	if !hasBlob(d, shared) {
		t.Fatal("blob still referenced by a:1 was swept")
	}
	if hasBlob(d, only) {
		t.Fatal("blob referenced only by the deleted tag survived")
	}
	if stats.BlobsSwept != 1 || stats.BlobsKept != 1 || stats.TagsKept != 1 {
		t.Fatalf("stats: %+v", stats)
	}
}

// Untagged intermediate-stage blobs — step layers no tagged image
// retains — are collected; everything a tag reaches stays.
func TestGCCollectsUntaggedIntermediates(t *testing.T) {
	root := t.TempDir()
	d, _ := openT(t, root)
	final := []byte("final layer")
	inter := []byte("intermediate stage layer")
	fd, _ := putBlob(d, final)
	if err := d.PutTag(ctx, "app:1", stored(fd), nil); err != nil {
		t.Fatal(err)
	}
	// A step of the tagged image and a step of a pruned intermediate.
	if err := d.PutStep(ctx, "final-step", withData(final), 0); err != nil {
		t.Fatal(err)
	}
	if err := d.PutStep(ctx, "inter-step", withData(inter), 0); err != nil {
		t.Fatal(err)
	}
	if err := d.PutStep(ctx, "no-layer-step", Layer{}, 1); err != nil {
		t.Fatal(err)
	}

	stats, err := d.GC(ctx, Budget{})
	if err != nil {
		t.Fatal(err)
	}
	if stats.StepsDropped != 1 {
		t.Fatalf("stats: %+v", stats)
	}
	if _, ok := d.Step("final-step"); !ok {
		t.Fatal("tagged image's step dropped")
	}
	if _, ok := d.Step("no-layer-step"); !ok {
		t.Fatal("empty-layer step dropped")
	}
	if _, ok := d.Step("inter-step"); ok {
		t.Fatal("intermediate step survived")
	}
	if hasBlob(d, Sum(inter)) {
		t.Fatal("intermediate blobs survived")
	}
	if !hasBlob(d, fd) {
		t.Fatal("tagged blobs swept")
	}
	d.Close()

	// GC compacts the journal: the reopened store holds exactly the
	// survivors and reports no damage (dropped records are gone for good,
	// not re-dropped every open).
	d2, _ := openT(t, root)
	rep := fsckT(t, d2)
	if rep.Quarantined() {
		t.Fatalf("post-GC store reports damage: %+v", rep)
	}
	if _, ok := d2.Step("inter-step"); ok {
		t.Fatal("dropped step resurrected by reopen")
	}
	if _, ok := d2.Step("final-step"); !ok {
		t.Fatal("surviving step lost on reopen")
	}
}

// GC on an empty (or never-used) store is a no-op, not an error.
func TestGCEmptyStoreNoOp(t *testing.T) {
	root := filepath.Join(t.TempDir(), "never-existed")
	d, _ := openT(t, root) // Open creates the layout
	stats, err := d.GC(ctx, Budget{})
	if err != nil {
		t.Fatal(err)
	}
	if stats != (GCStats{}) {
		t.Fatalf("stats on empty store: %+v", stats)
	}
	// Still usable afterwards.
	if _, err := putBlob(d, []byte("post-gc")); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(root, "journal")); err != nil {
		t.Fatalf("journal after empty GC: %v", err)
	}
}

// With no tags at all, GC sweeps everything — the store degenerates to
// empty rather than leaking unreachable blobs forever.
func TestGCNoRootsSweepsAll(t *testing.T) {
	d, _ := openT(t, t.TempDir())
	d.PutStep(ctx, "s", withData([]byte("layer")), 0)
	putBlob(d, []byte("unreferenced"))
	stats, err := d.GC(ctx, Budget{})
	if err != nil {
		t.Fatal(err)
	}
	if stats.BlobsSwept != 2 || stats.BlobsKept != 0 {
		t.Fatalf("stats: %+v", stats)
	}
	if n, _ := d.BlobStats(); n != 0 {
		t.Fatalf("%d blobs left", n)
	}
}
