package tarutil

import (
	"archive/tar"
	"bytes"
	"math/rand"
	"path"
	"testing"

	"repro/internal/errno"
	"repro/internal/vfs"
)

// resolveNames is the namespace the random layer stacks draw from: every
// path of up to three components over three names, so members collide,
// replace and shadow one another often.
func resolveNames() []string {
	var out []string
	var walk func(dir string, depth int)
	walk = func(dir string, depth int) {
		if depth == 3 {
			return
		}
		for _, n := range []string{"a", "b", "c"} {
			p := path.Join(dir, n)
			out = append(out, p)
			walk(p, depth+1)
		}
	}
	walk("/", 0)
	return out
}

// randomLayer packs 1–6 members over names: directories, files and
// symlinks replacing whatever is there, whiteouts and opaque markers, and
// members whose parents nothing created (Unpack makes them implicitly).
func randomLayer(t *testing.T, rng *rand.Rand, names []string) []byte {
	t.Helper()
	var ents []Entry
	for n := 1 + rng.Intn(6); n > 0; n-- {
		p := names[rng.Intn(len(names))]
		switch rng.Intn(6) {
		case 0, 1:
			ents = append(ents, Entry{Path: p, Stat: vfs.Stat{Type: vfs.TypeDir, Mode: 0o755}})
		case 2:
			ents = append(ents, Entry{Path: p, Stat: vfs.Stat{Type: vfs.TypeRegular, Mode: 0o644, Size: 1}, Data: []byte("x")})
		case 3:
			target := names[rng.Intn(len(names))]
			ents = append(ents, Entry{Path: p, Stat: vfs.Stat{Type: vfs.TypeSymlink, Mode: 0o777}, Target: target})
		case 4:
			ents = append(ents, whiteoutFor(p))
		case 5:
			ents = append(ents, Entry{Path: path.Join(path.Dir(p), WhiteoutOpaque), Stat: vfs.Stat{Type: vfs.TypeRegular}})
		}
	}
	data, err := Pack(ents)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// treeDirsAlong is the oracle: every component of p, looked up in the
// unpacked tree without following a final symlink, is a directory.
func treeDirsAlong(fs *vfs.FS, p string) bool {
	rc := vfs.RootContext()
	for ; p != "/"; p = path.Dir(p) {
		st, e := fs.Stat(rc, p, false)
		if e != errno.OK || st.Type != vfs.TypeDir {
			return false
		}
	}
	return true
}

// Property: over seeded random layer stacks, IsDirAfter never answers
// "directory" where Unpack plus Stat find none. It may answer "unknown"
// where the tree has a directory; the test only requires that it is sure
// often enough to be worth asking.
func TestIsDirAfterAgreesWithUnpack(t *testing.T) {
	names := resolveNames()
	rng := rand.New(rand.NewSource(26))
	sure, dirs := 0, 0
	for iter := 0; iter < 3000; iter++ {
		fs := vfs.New()
		if err := Unpack(fs, randomLayer(t, rng, names)); err != nil {
			continue
		}
		base, err := Snapshot(fs)
		if err != nil {
			t.Fatal(err)
		}
		var layers [][]byte
		ok := true
		for n := rng.Intn(4); n > 0 && ok; n-- {
			l := randomLayer(t, rng, names)
			layers = append(layers, l)
			ok = Unpack(fs, l) == nil
		}
		if !ok {
			continue
		}
		for _, p := range append(names, "/") {
			got, want := IsDirAfter(base, layers, p), treeDirsAlong(fs, p)
			if got && !want {
				t.Fatalf("iteration %d: IsDirAfter(%s) = true, but the unpacked tree has no directory chain there", iter, p)
			}
			if want {
				dirs++
				if got {
					sure++
				}
			}
		}
	}
	if dirs == 0 || sure*2 < dirs {
		t.Fatalf("resolver sure of %d of %d directories; want at least half", sure, dirs)
	}
	t.Logf("resolver sure of %d of %d directories", sure, dirs)
}

// The cases IsDirAfter must leave unknown even though a directory may be
// there: paths that are not clean, a symlinked component, a directory
// only an implicit parent made, and a layer holding a hard link.
func TestIsDirAfterUnknowns(t *testing.T) {
	fs := vfs.New()
	rc := vfs.RootContext()
	fs.MkdirAll(rc, "/real/sub", 0o755, 0, 0)
	fs.Symlink(rc, "/real", "/link", 0, 0)
	base, err := Snapshot(fs)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []string{"/real/sub", "/real", "/"} {
		if !IsDirAfter(base, nil, p) {
			t.Errorf("IsDirAfter(%s) over the base alone = false, want true", p)
		}
	}
	for _, p := range []string{"/link", "/link/sub", "/real/./sub", "/real/../real", "/real/", "real", "/missing"} {
		if IsDirAfter(base, nil, p) {
			t.Errorf("IsDirAfter(%s) = true, want unknown", p)
		}
	}

	implicit, err := Pack([]Entry{{Path: "/new/deep", Stat: vfs.Stat{Type: vfs.TypeDir, Mode: 0o755}}})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []string{"/new", "/new/deep"} {
		if IsDirAfter(base, [][]byte{implicit}, p) {
			t.Errorf("IsDirAfter(%s) through an implicit parent = true, want unknown", p)
		}
	}
	if !IsDirAfter(base, [][]byte{implicit}, "/real/sub") {
		t.Error("an implicit parent elsewhere made /real/sub unknown")
	}

	var buf bytes.Buffer
	tw := tar.NewWriter(&buf)
	tw.WriteHeader(&tar.Header{Name: "real/sub/", Typeflag: tar.TypeDir, Mode: 0o755})
	tw.WriteHeader(&tar.Header{Name: "real/hard", Typeflag: tar.TypeLink, Linkname: "real/sub"})
	tw.Close()
	if IsDirAfter(base, [][]byte{buf.Bytes()}, "/real/sub") {
		t.Error("a layer with a hard link left the answer known")
	}

	// Members reached through a symlink land in its target, which the
	// resolver does not follow: a file or a whiteout under /link replaces
	// or removes /real/sub.
	viaFile, _ := Pack([]Entry{{Path: "/link/sub", Stat: vfs.Stat{Type: vfs.TypeRegular, Mode: 0o644}}})
	viaWhiteout, _ := Pack([]Entry{whiteoutFor("/link/sub")})
	for _, l := range [][]byte{viaFile, viaWhiteout} {
		if IsDirAfter(base, [][]byte{l}, "/real/sub") {
			t.Error("a member under a symlink left /real/sub a directory")
		}
	}

	// A whiteout of a directory removes it and everything under it; a
	// later layer that recreates the directory does not bring back its
	// lower contents.
	gone, _ := Pack([]Entry{whiteoutFor("/real")})
	again, _ := Pack([]Entry{{Path: "/real", Stat: vfs.Stat{Type: vfs.TypeDir, Mode: 0o755}}})
	if IsDirAfter(base, [][]byte{gone}, "/real") || IsDirAfter(base, [][]byte{gone, again}, "/real/sub") {
		t.Error("a whited-out directory still resolves")
	}
	if !IsDirAfter(base, [][]byte{gone, again}, "/real") {
		t.Error("a recreated directory does not resolve")
	}
}
