package cas

import (
	"bytes"
	"fmt"
	"testing"
)

// putSizedStep records a step whose layer blob is exactly size bytes,
// unique per key so blobs do not deduplicate across steps.
func putSizedStep(t *testing.T, d *Dir, key string, size int) string {
	t.Helper()
	layer := append([]byte(key+":"), bytes.Repeat([]byte{'x'}, size-len(key)-1)...)
	if len(layer) != size {
		t.Fatalf("layer for %q is %d bytes, want %d", key, len(layer), size)
	}
	if err := d.PutStep(ctx, key, withData(layer), 0); err != nil {
		t.Fatal(err)
	}
	st, _ := d.Step(key)
	return st.Layer
}

// Budgeted GC evicts in journal order, oldest record first: with three
// 1 KiB steps and a 2 KiB budget, the first-recorded step goes and the
// two newer ones stay warm — even though none of them is tagged.
func TestGCBudgetEvictsOldestFirst(t *testing.T) {
	d, _ := openT(t, t.TempDir())
	putSizedStep(t, d, "oldest", 1024)
	putSizedStep(t, d, "middle", 1024)
	putSizedStep(t, d, "newest", 1024)

	stats, err := d.GC(ctx, Budget{MaxBytes: 2048})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := d.Step("oldest"); ok {
		t.Fatal("oldest step survived over budget")
	}
	for _, key := range []string{"middle", "newest"} {
		if _, ok := d.Step(key); !ok {
			t.Fatalf("step %q evicted though the budget fit it", key)
		}
	}
	if stats.BytesKept != 2048 || stats.StepsDropped != 1 || stats.BlobsSwept != 1 {
		t.Fatalf("stats: %+v", stats)
	}
}

// Under budget, budgeted GC keeps everything — including untagged warm
// entries the reachability sweep would have collected. That is the point
// of the policy.
func TestGCBudgetKeepsUntaggedUnderBudget(t *testing.T) {
	d, _ := openT(t, t.TempDir())
	putSizedStep(t, d, "untagged-warm", 512)
	stats, err := d.GC(ctx, Budget{MaxBytes: 4096})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := d.Step("untagged-warm"); !ok {
		t.Fatal("under-budget GC evicted a warm entry")
	}
	if stats.StepsDropped != 0 || stats.BlobsSwept != 0 || stats.BytesKept != 512 {
		t.Fatalf("stats: %+v", stats)
	}
}

// Tag layers are pins: a budget smaller than the pinned bytes evicts
// every unpinned entry but never touches what a tag reaches, and reports
// the overshoot via BytesKept instead of enforcing it.
func TestGCBudgetNeverEvictsTagPins(t *testing.T) {
	d, _ := openT(t, t.TempDir())
	pinnedLayer := putSizedStep(t, d, "pinned-step", 2048)
	if err := d.PutTag(ctx, "app:1", stored(pinnedLayer), nil); err != nil {
		t.Fatal(err)
	}
	putSizedStep(t, d, "loose-step", 1024)

	stats, err := d.GC(ctx, Budget{MaxBytes: 1}) // impossible budget
	if err != nil {
		t.Fatal(err)
	}
	if !hasBlob(d, pinnedLayer) {
		t.Fatal("tag-pinned blob evicted")
	}
	if _, ok := d.Step("pinned-step"); !ok {
		t.Fatal("step whose layer a tag pins was evicted (frees nothing)")
	}
	if _, ok := d.Step("loose-step"); ok {
		t.Fatal("unpinned step survived an impossible budget")
	}
	if stats.BytesKept != 2048 || stats.TagsKept != 1 {
		t.Fatalf("stats: %+v", stats)
	}
}

// A blob shared by two steps survives until both are evicted: reference
// counting, not per-victim deletion.
func TestGCBudgetSharedBlobRefcounted(t *testing.T) {
	d, _ := openT(t, t.TempDir())
	shared := bytes.Repeat([]byte{'s'}, 1024)
	if err := d.PutStep(ctx, "first", withData(shared), 0); err != nil {
		t.Fatal(err)
	}
	if err := d.PutStep(ctx, "second", withData(shared), 0); err != nil {
		t.Fatal(err)
	}
	putSizedStep(t, d, "third", 1024)
	digest := Sum(shared)

	// Budget forces one eviction: "first" goes, but "second" still holds
	// the shared blob.
	if _, err := d.GC(ctx, Budget{MaxBytes: 2048}); err != nil {
		t.Fatal(err)
	}
	if !hasBlob(d, digest) {
		t.Fatal("shared blob deleted while a surviving step references it")
	}
	if _, ok := d.Step("second"); !ok {
		t.Fatal("second sharer evicted prematurely")
	}

	// Now evict everything: the blob goes with its last reference.
	if _, err := d.GC(ctx, Budget{MaxBytes: 1}); err != nil {
		t.Fatal(err)
	}
	if hasBlob(d, digest) {
		t.Fatal("shared blob survived eviction of all referencing steps")
	}
}

// Recency order survives the journal compaction a GC performs and a full
// reopen: an under-budget GC (which rewrites the journal) must not reset
// the eviction order a later over-budget GC uses.
func TestGCBudgetOrderSurvivesCompactionAndReopen(t *testing.T) {
	root := t.TempDir()
	d, _ := openT(t, root)
	for i := 0; i < 4; i++ {
		putSizedStep(t, d, fmt.Sprintf("step-%d", i), 1024)
	}
	// Under budget: keeps all four, compacts the journal.
	if _, err := d.GC(ctx, Budget{MaxBytes: 1 << 20}); err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	d2, _ := openT(t, root)
	if _, err := d2.GC(ctx, Budget{MaxBytes: 2048}); err != nil {
		t.Fatal(err)
	}
	for i, wantAlive := range []bool{false, false, true, true} {
		_, ok := d2.Step(fmt.Sprintf("step-%d", i))
		if ok != wantAlive {
			t.Fatalf("step-%d alive=%v after compaction+reopen, want %v", i, ok, wantAlive)
		}
	}
}
