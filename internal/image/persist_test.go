package image

import (
	"context"
	"errors"
	"testing"

	"repro/internal/cas"
	"repro/internal/tarutil"
	"repro/internal/vfs"
)

func openDir(t *testing.T, root string) *cas.Dir {
	t.Helper()
	d, _, err := cas.Open(root)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { d.Close() })
	return d
}

func testImage(t *testing.T, name string) *Image {
	t.Helper()
	fs := vfs.New()
	rc := vfs.RootContext()
	fs.MkdirAll(rc, "/etc", 0o755, 0, 0)
	fs.WriteFile(rc, "/etc/banner", []byte("persisted"), 0o644, 0, 0)
	img, err := fromFS(name, fs, Config{
		Env:    []string{"A=1"},
		Labels: map[string]string{"org.repro.distro": "alpine"},
	})
	if err != nil {
		t.Fatal(err)
	}
	return img
}

// A tag Put through a backed store is resolvable by a completely fresh
// Store in a later "process", config and layer bytes intact.
func TestStoreTagSurvivesProcess(t *testing.T) {
	root := t.TempDir()
	img := testImage(t, "app:1")

	s1 := NewStore()
	s1.SetBacking(openDir(t, root))
	s1.Put(img)
	if err := errors.Join(s1.BackingErrs()...); err != nil {
		t.Fatal(err)
	}

	s2 := NewStore()
	s2.SetBacking(openDir(t, root))
	got, ok := s2.GetContext(context.Background(), "app:1")
	if !ok {
		t.Fatal("persisted tag not found by fresh store")
	}
	if got.Config.Distro() != "alpine" || len(got.Config.Env) != 1 {
		t.Fatalf("config lost: %+v", got.Config)
	}
	if len(got.Layers) != 1 || got.Layers[0].Digest != img.Layers[0].Digest {
		t.Fatalf("layers: %+v", got.Layers)
	}
	fs, err := got.Flatten()
	if err != nil {
		t.Fatal(err)
	}
	data, _ := fs.ReadFile(vfs.RootContext(), "/etc/banner")
	if string(data) != "persisted" {
		t.Fatalf("content: %q", data)
	}
	// Second Get serves from memory (same pointer).
	again, _ := s2.GetContext(context.Background(), "app:1")
	if again != got {
		t.Fatal("rehydrated image not cached in memory")
	}
	if _, ok := s2.GetContext(context.Background(), "never:1"); ok {
		t.Fatal("unknown tag resolved")
	}
}

// A chain the first process took from FromEntries without a fill fills once
// in the next process, from the layers GetContext loaded off disk:
// identical tree and lower snapshot.
func TestFlattenAcrossProcesses(t *testing.T) {
	root := t.TempDir()
	img := testImage(t, "app:1")

	s1 := NewStore()
	s1.SetBacking(openDir(t, root))
	s1.Put(img)
	fs1, err := s1.Flatten(context.Background(), img)
	if err != nil {
		t.Fatal(err)
	}
	if s1.FlattenFills() != 0 {
		t.Fatalf("process 1: fills=%d, want 0 (tree handed over by FromFS)", s1.FlattenFills())
	}
	if err := errors.Join(s1.BackingErrs()...); err != nil {
		t.Fatal(err)
	}

	s2 := NewStore()
	s2.SetBacking(openDir(t, root))
	img2, ok := s2.GetContext(context.Background(), "app:1")
	if !ok {
		t.Fatal("tag lost")
	}
	fs2, err := s2.Flatten(context.Background(), img2)
	if err != nil {
		t.Fatal(err)
	}
	if s2.FlattenFills() != 1 {
		t.Fatalf("process 2: fills=%d, want 1", s2.FlattenFills())
	}
	// The second process's tree matches the first's (Diff ignores mtime,
	// exactly as layer commits do).
	sn1, err := tarutil.Snapshot(fs1)
	if err != nil {
		t.Fatal(err)
	}
	sn2, err := tarutil.Snapshot(fs2)
	if err != nil {
		t.Fatal(err)
	}
	if d := tarutil.Diff(sn1, sn2); len(d) != 0 {
		t.Fatalf("second process's tree differs from the first's: %d entries", len(d))
	}
	// Both stores' lower snapshots match a fresh one, and a commit against
	// the second process's tree sees no phantom changes.
	checkLower(t, s1, img)
	checkLower(t, s2, img2)
	if _, added, err := commitLayer(img2, "noop:1", fs2); err != nil || added {
		t.Fatalf("phantom diff against the second process's chain: added=%v err=%v", added, err)
	}
}

// Images Put before SetBacking are not persisted; attach-then-seed is the
// documented order and must round-trip.
func TestBackingAttachOrder(t *testing.T) {
	root := t.TempDir()
	s1 := NewStore()
	s1.Put(testImage(t, "early:1")) // before attach: memory only
	s1.SetBacking(openDir(t, root))
	s1.Put(testImage(t, "late:1"))

	s2 := NewStore()
	s2.SetBacking(openDir(t, root))
	if _, ok := s2.GetContext(context.Background(), "early:1"); ok {
		t.Fatal("pre-attach Put leaked to disk")
	}
	if _, ok := s2.GetContext(context.Background(), "late:1"); !ok {
		t.Fatal("post-attach Put not persisted")
	}
}

// An untag written to the backing (cas.Dir.DeleteTag, as `cache gc TAG`
// does) is final: the next process's GetContext does not rehydrate it.
func TestUntagNotRehydrated(t *testing.T) {
	root := t.TempDir()
	d := openDir(t, root)
	s := NewStore()
	s.SetBacking(d)
	s.Put(testImage(t, "gone:1"))
	if err := errors.Join(s.BackingErrs()...); err != nil {
		t.Fatal(err)
	}
	if err := d.DeleteTag(context.Background(), "gone:1"); err != nil {
		t.Fatal(err)
	}
	s2 := NewStore()
	s2.SetBacking(openDir(t, root))
	if _, ok := s2.GetContext(context.Background(), "gone:1"); ok {
		t.Fatal("untagged tag resurrected in the next process")
	}
}

// GCBacking delegates to the attached cas directory; without one it is a
// quiet no-op, and a failure is recorded as a backing error (colder
// cache) rather than returned as a build-stopping condition upstream.
func TestGCBackingDelegatesAndRecordsErrors(t *testing.T) {
	// No backing: zero stats, no error, nothing recorded.
	s := NewStore()
	if stats, err := s.GCBacking(context.Background(), cas.Budget{MaxBytes: 1}); err != nil || stats != (cas.GCStats{}) {
		t.Fatalf("GCBacking without backing: %+v %v", stats, err)
	}

	// With a backing: the untagged blob goes, the tagged image survives.
	root := t.TempDir()
	d := openDir(t, root)
	s.SetBacking(d)
	s.Put(testImage(t, "keep:1"))
	garbage := []byte("untagged garbage")
	if err := d.PutTag(context.Background(), "garbage:1", []cas.Layer{{Digest: Digest(garbage), Data: garbage}}, nil); err != nil {
		t.Fatal(err)
	}
	if err := d.DeleteTag(context.Background(), "garbage:1"); err != nil {
		t.Fatal(err)
	}
	stats, err := s.GCBacking(context.Background(), cas.Budget{})
	if err != nil {
		t.Fatal(err)
	}
	if stats.BlobsSwept != 1 || stats.TagsKept != 1 {
		t.Fatalf("stats: %+v", stats)
	}
	if err := errors.Join(s.BackingErrs()...); err != nil {
		t.Fatalf("successful GC recorded an error: %v", err)
	}

	// A failing GC (closed backing) is recorded, not swallowed.
	d.Close()
	if _, err := s.GCBacking(context.Background(), cas.Budget{}); err == nil {
		t.Fatal("GC on closed backing succeeded")
	}
	if err := errors.Join(s.BackingErrs()...); err == nil {
		t.Fatal("GC failure not recorded as backing error")
	}
}
