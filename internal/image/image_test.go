package image

import (
	"context"
	"net/http"
	"strings"
	"testing"

	"repro/internal/errno"
	"repro/internal/tarutil"
	"repro/internal/vfs"
)

func baseFS(t *testing.T) *vfs.FS {
	t.Helper()
	fs := vfs.New()
	rc := vfs.RootContext()
	fs.MkdirAll(rc, "/etc", 0o755, 0, 0)
	fs.WriteFile(rc, "/etc/os-release", []byte("ID=test\n"), 0o644, 0, 0)
	fs.MkdirAll(rc, "/bin", 0o755, 0, 0)
	fs.WriteFile(rc, "/bin/sh", []byte("ELF"), 0o755, 0, 0)
	return fs
}

// fromFS is a single-layer image of a tree a test built: FromEntries over
// the tree's snapshot.
func fromFS(name string, fs *vfs.FS, cfg Config) (*Image, error) {
	entries, err := tarutil.Snapshot(fs)
	if err != nil {
		return nil, err
	}
	return FromEntries(name, entries, cfg)
}

// commitLayer diffs fs against img's flattened layers and, if anything
// changed, appends the diff as a new layer on a copy named newName; the
// bool reports whether a layer was added. It is the commit the builder
// makes, without the builder's kernel.
func commitLayer(img *Image, newName string, fs *vfs.FS) (*Image, bool, error) {
	baseFS, err := img.Flatten()
	if err != nil {
		return nil, false, err
	}
	lower, err := tarutil.Snapshot(baseFS)
	if err != nil {
		return nil, false, err
	}
	upper, err := tarutil.Snapshot(fs)
	if err != nil {
		return nil, false, err
	}
	out := img.Clone(newName)
	diff := tarutil.Diff(lower, upper)
	if len(diff) == 0 {
		return out, false, nil
	}
	data, err := tarutil.Pack(diff)
	if err != nil {
		return nil, false, err
	}
	out.Layers = append(out.Layers, Layer{Digest: Digest(data), Data: data})
	return out, true, nil
}

func TestFromFSAndFlatten(t *testing.T) {
	img, err := fromFS("test:1", baseFS(t), Config{Labels: map[string]string{"org.repro.distro": "alpine"}})
	if err != nil {
		t.Fatal(err)
	}
	if len(img.Layers) != 1 {
		t.Fatalf("layers: %d", len(img.Layers))
	}
	if !strings.HasPrefix(img.Layers[0].Digest, "sha256:") {
		t.Fatalf("digest: %s", img.Layers[0].Digest)
	}
	fs, err := img.Flatten()
	if err != nil {
		t.Fatal(err)
	}
	data, e := fs.ReadFile(vfs.RootContext(), "/etc/os-release")
	if e != errno.OK || string(data) != "ID=test\n" {
		t.Fatalf("flatten: %q %v", data, e)
	}
	if img.Config.Distro() != "alpine" {
		t.Fatalf("distro: %q", img.Config.Distro())
	}
}

func TestCommitLayerAddsDiff(t *testing.T) {
	img, _ := fromFS("test:1", baseFS(t), Config{})
	fs, _ := img.Flatten()
	rc := vfs.RootContext()
	fs.WriteFile(rc, "/etc/new", []byte("new"), 0o644, 0, 0)
	derived, added, err := commitLayer(img, "test:2", fs)
	if err != nil || !added {
		t.Fatalf("commit: added=%v err=%v", added, err)
	}
	if len(derived.Layers) != 2 {
		t.Fatalf("layers: %d", len(derived.Layers))
	}
	// Flattening the derived image includes the change.
	fs2, _ := derived.Flatten()
	if !fs2.Exists(rc, "/etc/new") {
		t.Fatal("committed file missing")
	}
	// No change → no layer.
	same, added, err := commitLayer(derived, "test:3", fs2)
	if err != nil || added {
		t.Fatalf("no-op commit: added=%v err=%v", added, err)
	}
	if len(same.Layers) != 2 {
		t.Fatalf("no-op layers: %d", len(same.Layers))
	}
}

// TestStoreFlattenCache: repeated flattens of the same chain reuse the
// cached tree, and every caller gets an independent copy.
func TestStoreFlattenCache(t *testing.T) {
	s := NewStore()
	img, _ := fromFS("test:1", baseFS(t), Config{})
	rc := vfs.RootContext()

	a, err := s.Flatten(context.Background(), img)
	if err != nil {
		t.Fatal(err)
	}
	b, err := s.Flatten(context.Background(), img)
	if err != nil {
		t.Fatal(err)
	}
	// Mutating one flatten must not leak into the other or into a third.
	a.WriteFile(rc, "/etc/dirty", []byte("x"), 0o644, 0, 0)
	a.ChownAll(1000, 1000)
	if b.Exists(rc, "/etc/dirty") {
		t.Fatal("flatten cache leaked a mutation between callers")
	}
	c, err := s.Flatten(context.Background(), img)
	if err != nil {
		t.Fatal(err)
	}
	if c.Exists(rc, "/etc/dirty") {
		t.Fatal("flatten cache poisoned by a caller's mutation")
	}
	if st, e := c.Stat(rc, "/bin/sh", true); e != errno.OK || st.UID != 0 {
		t.Fatalf("cached flatten ownership: %+v %v", st, e)
	}
}

// TestStoreCommitLayer: the store's memoised snapshot of a chain is the
// lower commitLayer diffs against, and committing a Store.Flatten
// clone keeps its additions and deletions.
func TestStoreCommitLayer(t *testing.T) {
	ctx := context.Background()
	s := NewStore()
	img, _ := fromFS("test:1", baseFS(t), Config{})
	rc := vfs.RootContext()

	fs, err := s.Flatten(ctx, img)
	if err != nil {
		t.Fatal(err)
	}
	checkLower(t, s, img)
	fs.WriteFile(rc, "/etc/new", []byte("new"), 0o644, 0, 0)
	fs.Unlink(rc, "/etc/os-release")
	derived, added, err := commitLayer(img, "test:2", fs)
	if err != nil || !added {
		t.Fatalf("commit: added=%v err=%v", added, err)
	}
	dfs, _ := derived.Flatten()
	if dfs.Exists(rc, "/etc/os-release") {
		t.Fatal("deletion lost in commit")
	}
	if !dfs.Exists(rc, "/etc/new") {
		t.Fatal("addition lost in commit")
	}
	checkLower(t, s, derived)
	// No-op commit of an untouched clone adds nothing.
	clean, _ := s.Flatten(ctx, img)
	if _, added, err := commitLayer(img, "test:3", clean); err != nil || added {
		t.Fatalf("no-op commit: added=%v err=%v", added, err)
	}
}

// checkLower reports whether the store's memoised snapshot of img's chain
// (FlattenedEntries) matches a fresh snapshot of img.Flatten(). Diff
// ignores mtimes and inode numbers, exactly as layer commits do. Safe to
// call from test goroutines.
func checkLower(t *testing.T, s *Store, img *Image) {
	t.Helper()
	got, err := s.FlattenedEntries(context.Background(), img)
	if err != nil {
		t.Errorf("flattened entries of %s: %v", img.Name, err)
		return
	}
	fs, err := img.Flatten()
	if err != nil {
		t.Errorf("flatten %s: %v", img.Name, err)
		return
	}
	want, err := tarutil.Snapshot(fs)
	if err != nil {
		t.Errorf("snapshot %s: %v", img.Name, err)
		return
	}
	if len(got) != len(want) || len(tarutil.Diff(want, got)) != 0 || len(tarutil.Diff(got, want)) != 0 {
		t.Errorf("%s: store's lower snapshot (%d entries) differs from a fresh one (%d entries)",
			img.Name, len(got), len(want))
	}
}

func TestChainDigestDistinguishesChains(t *testing.T) {
	img, _ := fromFS("test:1", baseFS(t), Config{})
	fs, _ := img.Flatten()
	vfsRC := vfs.RootContext()
	fs.WriteFile(vfsRC, "/etc/new", []byte("x"), 0o644, 0, 0)
	derived, _, err := commitLayer(img, "test:2", fs)
	if err != nil {
		t.Fatal(err)
	}
	if ChainDigest(img.Layers) == ChainDigest(derived.Layers) {
		t.Fatal("different chains share a chain digest")
	}
	if ChainDigest(img.Layers) != ChainDigest(img.Clone("other").Layers) {
		t.Fatal("identical chains got different chain digests")
	}
}

func TestLayerDeletionPropagates(t *testing.T) {
	img, _ := fromFS("test:1", baseFS(t), Config{})
	fs, _ := img.Flatten()
	rc := vfs.RootContext()
	fs.Unlink(rc, "/etc/os-release")
	derived, added, err := commitLayer(img, "test:2", fs)
	if err != nil || !added {
		t.Fatal("deletion commit failed")
	}
	fs2, _ := derived.Flatten()
	if fs2.Exists(rc, "/etc/os-release") {
		t.Fatal("whiteout did not propagate through flatten")
	}
}

func TestStoreTagsAndBlobs(t *testing.T) {
	s := NewStore()
	img, _ := fromFS("a:1", baseFS(t), Config{})
	s.Put(img)
	img2, _ := fromFS("b:2", baseFS(t), Config{})
	s.Put(img2)
	tags := s.Tags()
	if len(tags) != 2 || tags[0] != "a:1" || tags[1] != "b:2" {
		t.Fatalf("tags: %v", tags)
	}
	got, ok := s.GetContext(context.Background(), "a:1")
	if !ok || got.Name != "a:1" {
		t.Fatal("get failed")
	}
	blob, ok := s.Blob(img.Layers[0].Digest)
	if !ok || len(blob) == 0 {
		t.Fatal("blob missing")
	}
}

func TestClone(t *testing.T) {
	img, _ := fromFS("orig:1", baseFS(t), Config{
		Env:    []string{"PATH=/bin"},
		Labels: map[string]string{"k": "v"},
	})
	c := img.Clone("copy:1")
	c.Config.Labels["k"] = "changed"
	c.Config.Env = append(c.Config.Env, "X=1")
	if img.Config.Labels["k"] != "v" {
		t.Fatal("clone shares label map")
	}
	if len(img.Config.Env) != 1 {
		t.Fatal("clone shares env slice")
	}
}

func TestSplitRef(t *testing.T) {
	cases := []struct{ ref, name, tag string }{
		{"alpine:3.19", "alpine", "3.19"},
		{"alpine", "alpine", "latest"},
		{"repo/name:v1", "repo/name", "v1"},
	}
	for _, c := range cases {
		n, tg := SplitRef(c.ref)
		if n != c.name || tg != c.tag {
			t.Errorf("SplitRef(%q) = %q,%q", c.ref, n, tg)
		}
	}
}

func TestRegistryPullRoundTrip(t *testing.T) {
	s := NewStore()
	img, _ := fromFS("alpine:3.19", baseFS(t), Config{
		Env:    []string{"PATH=/bin"},
		Labels: map[string]string{"org.repro.distro": "alpine"},
	})
	s.Put(img)
	reg := NewRegistry(s)
	url, err := reg.Start()
	if err != nil {
		t.Fatal(err)
	}
	defer reg.Close()

	pulled, err := Pull(url, "alpine:3.19")
	if err != nil {
		t.Fatal(err)
	}
	if pulled.Config.Distro() != "alpine" || len(pulled.Layers) != 1 {
		t.Fatalf("pulled: %+v", pulled)
	}
	if pulled.Layers[0].Digest != img.Layers[0].Digest {
		t.Fatal("digest mismatch")
	}
	fs, err := pulled.Flatten()
	if err != nil {
		t.Fatal(err)
	}
	if !fs.Exists(vfs.RootContext(), "/bin/sh") {
		t.Fatal("pulled content missing")
	}
}

func TestRegistryPullUnknown(t *testing.T) {
	s := NewStore()
	reg := NewRegistry(s)
	url, _ := reg.Start()
	defer reg.Close()
	if _, err := Pull(url, "ghost:1"); err == nil {
		t.Fatal("unknown image must fail")
	}
}

func TestDigestStability(t *testing.T) {
	if Digest([]byte("x")) != Digest([]byte("x")) {
		t.Fatal("digest not deterministic")
	}
	if Digest([]byte("x")) == Digest([]byte("y")) {
		t.Fatal("digest collision")
	}
}

func TestPushPullRoundTrip(t *testing.T) {
	// Push a derived image to a fresh registry and pull it back — the
	// ch-image push path.
	src := NewStore()
	img, _ := fromFS("myapp:1.0", baseFS(t), Config{
		Labels: map[string]string{"org.repro.distro": "alpine"},
	})
	fs, _ := img.Flatten()
	fs.WriteFile(vfs.RootContext(), "/app", []byte("binary"), 0o755, 0, 0)
	derived, _, err := commitLayer(img, "myapp:1.0", fs)
	if err != nil {
		t.Fatal(err)
	}
	_ = src

	dstStore := NewStore()
	reg := NewRegistry(dstStore)
	url, err := reg.Start()
	if err != nil {
		t.Fatal(err)
	}
	defer reg.Close()

	if err := Push(url, derived); err != nil {
		t.Fatalf("push: %v", err)
	}
	pulled, err := Pull(url, "myapp:1.0")
	if err != nil {
		t.Fatalf("pull after push: %v", err)
	}
	if len(pulled.Layers) != 2 {
		t.Fatalf("layers: %d", len(pulled.Layers))
	}
	pfs, _ := pulled.Flatten()
	data, e := pfs.ReadFile(vfs.RootContext(), "/app")
	if !e.Ok() || string(data) != "binary" {
		t.Fatalf("content: %q %v", data, e)
	}
	if pulled.Config.Distro() != "alpine" {
		t.Fatalf("config lost: %+v", pulled.Config)
	}
}

func TestPushRejectsCorruptBlob(t *testing.T) {
	s := NewStore()
	reg := NewRegistry(s)
	url, _ := reg.Start()
	defer reg.Close()
	// A PUT whose body does not match the digest must be refused.
	req, _ := http.NewRequest(http.MethodPut,
		url+"/v2/evil/blobs/sha256:0000000000000000000000000000000000000000000000000000000000000000",
		strings.NewReader("not the content"))
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("corrupt blob accepted: HTTP %d", resp.StatusCode)
	}
}

func TestManifestPushRequiresBlobs(t *testing.T) {
	s := NewStore()
	reg := NewRegistry(s)
	url, _ := reg.Start()
	defer reg.Close()
	body := `{"schemaVersion":2,"config":{"digest":"sha256:missing"},"layers":[]}`
	req, _ := http.NewRequest(http.MethodPut, url+"/v2/x/manifests/1", strings.NewReader(body))
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("manifest with missing blobs accepted: HTTP %d", resp.StatusCode)
	}
}
