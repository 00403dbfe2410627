package tarutil

import (
	"testing"

	"repro/internal/errno"
	"repro/internal/vfs"
)

func buildTree(t *testing.T) *vfs.FS {
	t.Helper()
	fs := vfs.New()
	rc := vfs.RootContext()
	fs.MkdirAll(rc, "/etc", 0o755, 0, 0)
	fs.WriteFile(rc, "/etc/passwd", []byte("root:x:0:0\n"), 0o644, 0, 0)
	fs.MkdirAll(rc, "/var/empty/sshd", 0o711, 74, 74)
	fs.WriteFile(rc, "/usr-bin-ssh", []byte("ELF"), 0o755, 0, 0)
	fs.Symlink(rc, "/etc/passwd", "/etc/link", 0, 0)
	fs.Mknod(rc, "/null", vfs.TypeCharDev, 0o666, vfs.Makedev(1, 3), 0, 0)
	fs.SetXattr(rc, "/usr-bin-ssh", "security.capability", []byte{0x01}, false)
	return fs
}

func TestSnapshotPackUnpackRoundTrip(t *testing.T) {
	src := buildTree(t)
	ents, err := Snapshot(src)
	if err != nil {
		t.Fatalf("snapshot: %v", err)
	}
	layer, err := Pack(ents)
	if err != nil {
		t.Fatalf("pack: %v", err)
	}
	dst := vfs.New()
	if err := Unpack(dst, layer); err != nil {
		t.Fatalf("unpack: %v", err)
	}
	rc := vfs.RootContext()
	st, e := dst.Stat(rc, "/var/empty/sshd", true)
	if e != errno.OK || st.UID != 74 || st.GID != 74 || st.Mode != 0o711 {
		t.Fatalf("ownership lost: %+v %v", st, e)
	}
	data, e := dst.ReadFile(rc, "/etc/passwd")
	if e != errno.OK || string(data) != "root:x:0:0\n" {
		t.Fatalf("content: %q %v", data, e)
	}
	target, e := dst.Readlink(rc, "/etc/link")
	if e != errno.OK || target != "/etc/passwd" {
		t.Fatalf("symlink: %q %v", target, e)
	}
	dev, e := dst.Stat(rc, "/null", false)
	if e != errno.OK || dev.Type != vfs.TypeCharDev || dev.Rdev.Major() != 1 {
		t.Fatalf("device: %+v %v", dev, e)
	}
	v, e := dst.GetXattr(rc, "/usr-bin-ssh", "security.capability", false)
	if e != errno.OK || len(v) != 1 || v[0] != 1 {
		t.Fatalf("xattr: %v %v", v, e)
	}
}

func TestSnapshotDeterministic(t *testing.T) {
	// Mtimes come from independent clocks, so the packed bytes differ;
	// both trees must pack, and their entry names must match.
	ea, _ := Snapshot(buildTree(t))
	eb, _ := Snapshot(buildTree(t))
	for _, ents := range [][]Entry{ea, eb} {
		if _, err := Pack(ents); err != nil {
			t.Fatalf("pack: %v", err)
		}
	}
	if len(ea) != len(eb) {
		t.Fatalf("entry counts differ: %d %d", len(ea), len(eb))
	}
	for i := range ea {
		if ea[i].Path != eb[i].Path {
			t.Fatalf("entry %d: %s vs %s", i, ea[i].Path, eb[i].Path)
		}
	}
}

func TestWhiteoutDeletes(t *testing.T) {
	fs := vfs.New()
	rc := vfs.RootContext()
	fs.MkdirAll(rc, "/etc", 0o755, 0, 0)
	fs.WriteFile(rc, "/etc/old", []byte("x"), 0o644, 0, 0)
	// A layer with a whiteout for /etc/old.
	layer, err := Pack([]Entry{{
		Path: "/etc/" + WhiteoutPrefix + "old",
		Stat: vfs.Stat{Type: vfs.TypeRegular},
	}})
	if err != nil {
		t.Fatal(err)
	}
	if err := Unpack(fs, layer); err != nil {
		t.Fatalf("unpack: %v", err)
	}
	if fs.Exists(rc, "/etc/old") {
		t.Fatal("whiteout did not delete")
	}
}

func TestOpaqueWhiteout(t *testing.T) {
	fs := vfs.New()
	rc := vfs.RootContext()
	fs.MkdirAll(rc, "/data/sub", 0o755, 0, 0)
	fs.WriteFile(rc, "/data/a", []byte("x"), 0o644, 0, 0)
	fs.WriteFile(rc, "/data/sub/b", []byte("x"), 0o644, 0, 0)
	layer, _ := Pack([]Entry{{
		Path: "/data/" + WhiteoutOpaque,
		Stat: vfs.Stat{Type: vfs.TypeRegular},
	}})
	if err := Unpack(fs, layer); err != nil {
		t.Fatalf("unpack: %v", err)
	}
	if fs.Exists(rc, "/data/a") || fs.Exists(rc, "/data/sub") {
		t.Fatal("opaque whiteout did not clear directory")
	}
	if !fs.Exists(rc, "/data") {
		t.Fatal("opaque whiteout removed the directory itself")
	}
}

func TestUnpackOverwritesExisting(t *testing.T) {
	fs := vfs.New()
	rc := vfs.RootContext()
	fs.WriteFile(rc, "/f", []byte("old"), 0o600, 5, 5)
	layer, _ := Pack([]Entry{{
		Path: "/f",
		Stat: vfs.Stat{Type: vfs.TypeRegular, Mode: 0o644, UID: 0, GID: 0},
		Data: []byte("new"),
	}})
	if err := Unpack(fs, layer); err != nil {
		t.Fatal(err)
	}
	data, _ := fs.ReadFile(rc, "/f")
	st, _ := fs.Stat(rc, "/f", false)
	if string(data) != "new" || st.UID != 0 || st.Mode != 0o644 {
		t.Fatalf("overwrite: %q %+v", data, st)
	}
}

func TestDiffAddChangeDelete(t *testing.T) {
	base := vfs.New()
	rc := vfs.RootContext()
	base.MkdirAll(rc, "/etc", 0o755, 0, 0)
	base.WriteFile(rc, "/etc/keep", []byte("same"), 0o644, 0, 0)
	base.WriteFile(rc, "/etc/change", []byte("v1"), 0o644, 0, 0)
	base.WriteFile(rc, "/etc/delete", []byte("bye"), 0o644, 0, 0)
	lower, _ := Snapshot(base)

	upper := vfs.New()
	upper.MkdirAll(rc, "/etc", 0o755, 0, 0)
	upper.WriteFile(rc, "/etc/keep", []byte("same"), 0o644, 0, 0)
	upper.WriteFile(rc, "/etc/change", []byte("v2"), 0o644, 0, 0)
	upper.WriteFile(rc, "/etc/new", []byte("hi"), 0o644, 0, 0)
	up, _ := Snapshot(upper)

	diff := Diff(lower, up)
	got := map[string]bool{}
	for _, d := range diff {
		got[d.Path] = true
	}
	if !got["/etc/change"] || !got["/etc/new"] || !got["/etc/"+WhiteoutPrefix+"delete"] {
		t.Fatalf("diff paths: %v", got)
	}
	if got["/etc/keep"] {
		t.Fatal("unchanged file must not appear in diff")
	}
	// Applying the diff over the base must yield the upper state.
	layer, err := Pack(diff)
	if err != nil {
		t.Fatal(err)
	}
	if err := Unpack(base, layer); err != nil {
		t.Fatal(err)
	}
	data, _ := base.ReadFile(rc, "/etc/change")
	if string(data) != "v2" {
		t.Fatalf("after apply: %q", data)
	}
	if base.Exists(rc, "/etc/delete") {
		t.Fatal("deleted file survived layer application")
	}
	if !base.Exists(rc, "/etc/new") {
		t.Fatal("new file missing after layer application")
	}
}

func TestDiffOwnershipChangeDetected(t *testing.T) {
	a := vfs.New()
	rc := vfs.RootContext()
	a.WriteFile(rc, "/f", []byte("x"), 0o644, 0, 0)
	la, _ := Snapshot(a)
	b := vfs.New()
	b.WriteFile(rc, "/f", []byte("x"), 0o644, 74, 74)
	lb, _ := Snapshot(b)
	diff := Diff(la, lb)
	if len(diff) != 1 || diff[0].Path != "/f" {
		t.Fatalf("ownership-only change: %+v", diff)
	}
}

// Regression: an instruction that only changes an extended attribute (the
// setcap pattern) must commit a non-empty layer.
func TestDiffXattrOnlyChange(t *testing.T) {
	rc := vfs.RootContext()
	mk := func() *vfs.FS {
		fs := vfs.New()
		fs.WriteFile(rc, "/bin", []byte("ELF"), 0o755, 0, 0)
		return fs
	}
	a := mk()
	la, _ := Snapshot(a)
	b := mk()
	b.SetXattr(rc, "/bin", "security.capability", []byte{0x01}, false)
	lb, _ := Snapshot(b)
	diff := Diff(la, lb)
	if len(diff) != 1 || diff[0].Path != "/bin" {
		t.Fatalf("xattr-only change: %+v", diff)
	}
	// And removing the xattr is a change too.
	if diff := Diff(lb, la); len(diff) != 1 {
		t.Fatalf("xattr removal: %+v", diff)
	}
	// The committed layer round-trips the attribute.
	layer, err := Pack(diff)
	if err != nil {
		t.Fatal(err)
	}
	dst := mk()
	dst.SetXattr(rc, "/bin", "security.capability", []byte{0x01}, false)
	if err := Unpack(dst, layer); err != nil {
		t.Fatal(err)
	}
}

// Regression: deleting a directory emits exactly one whiteout (for the
// topmost deleted path), not a whiteout per descendant — and that single
// whiteout still removes the whole subtree when the layer is applied.
func TestDiffDeletedDirSingleWhiteout(t *testing.T) {
	rc := vfs.RootContext()
	base := vfs.New()
	base.MkdirAll(rc, "/gone/sub", 0o755, 0, 0)
	base.WriteFile(rc, "/gone/f", []byte("x"), 0o644, 0, 0)
	base.WriteFile(rc, "/gone/sub/g", []byte("y"), 0o644, 0, 0)
	base.WriteFile(rc, "/keep", []byte("z"), 0o644, 0, 0)
	lower, _ := Snapshot(base)

	upper := vfs.New()
	upper.WriteFile(rc, "/keep", []byte("z"), 0o644, 0, 0)
	up, _ := Snapshot(upper)

	diff := Diff(lower, up)
	if len(diff) != 1 || diff[0].Path != "/"+WhiteoutPrefix+"gone" {
		t.Fatalf("deleted dir diff: %+v", diff)
	}
	// Round trip: applying the layer onto the base yields the upper state.
	layer, err := Pack(diff)
	if err != nil {
		t.Fatal(err)
	}
	if err := Unpack(base, layer); err != nil {
		t.Fatal(err)
	}
	if base.Exists(rc, "/gone") || base.Exists(rc, "/gone/sub/g") {
		t.Fatal("whiteout did not remove the deleted directory tree")
	}
	if !base.Exists(rc, "/keep") {
		t.Fatal("whiteout removed an unrelated file")
	}
}

func TestUnpackCreatesMissingParents(t *testing.T) {
	fs := vfs.New()
	layer, _ := Pack([]Entry{{
		Path: "/deep/nested/path/file",
		Stat: vfs.Stat{Type: vfs.TypeRegular, Mode: 0o644},
		Data: []byte("x"),
	}})
	if err := Unpack(fs, layer); err != nil {
		t.Fatal(err)
	}
	if !fs.Exists(vfs.RootContext(), "/deep/nested/path/file") {
		t.Fatal("nested file missing")
	}
}

func TestHardLinkInLayer(t *testing.T) {
	src := vfs.New()
	rc := vfs.RootContext()
	src.WriteFile(rc, "/a", []byte("shared"), 0o644, 0, 0)
	src.Link(rc, "/a", "/b")
	// Snapshot sees two regular entries (tar hard-link detection is not
	// needed for correctness; content is duplicated).
	ents, err := Snapshot(src)
	if err != nil {
		t.Fatal(err)
	}
	layer, err := Pack(ents)
	if err != nil {
		t.Fatal(err)
	}
	dst := vfs.New()
	if err := Unpack(dst, layer); err != nil {
		t.Fatal(err)
	}
	da, _ := dst.ReadFile(rc, "/a")
	db, _ := dst.ReadFile(rc, "/b")
	if string(da) != "shared" || string(db) != "shared" {
		t.Fatalf("hard link contents: %q %q", da, db)
	}
}
