package tarutil

import (
	"archive/tar"
	"fmt"
	"math/rand"
	"path"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/errno"
	"repro/internal/vfs"
)

// unpackFiveWalk is the reference Unpack: every member pays a Stat, a
// MkdirAll of its parent, the create, and for directories and regular
// files a Chown and a Chmod, each its own path walk. Unpack must leave
// exactly the tree this leaves.
func unpackFiveWalk(fs *vfs.FS, layer []byte) error {
	rc := vfs.RootContext()
	r := reader{b: layer}
	for {
		var hdr header
		ok, err := r.next(&hdr)
		if err != nil {
			return fmt.Errorf("tarutil: %w", err)
		}
		if !ok {
			return nil
		}
		name := "/" + strings.Trim(hdr.name, "/")
		base := path.Base(name)
		dir := path.Dir(name)
		if base == WhiteoutOpaque {
			if ents, e := fs.ReadDir(rc, dir); e == errno.OK {
				for _, de := range ents {
					removeAll(fs, path.Join(dir, de.Name))
				}
			}
			continue
		}
		if strings.HasPrefix(base, WhiteoutPrefix) {
			removeAll(fs, path.Join(dir, strings.TrimPrefix(base, WhiteoutPrefix)))
			continue
		}
		if st, e := fs.Stat(rc, name, false); e == errno.OK {
			if !(st.Type == vfs.TypeDir && hdr.typeflag == tar.TypeDir) {
				removeAll(fs, name)
			}
		}
		fs.MkdirAll(rc, dir, 0o755, 0, 0)
		mode := uint32(hdr.mode) & 0o7777
		switch hdr.typeflag {
		case tar.TypeDir:
			if e := fs.Mkdir(rc, name, mode, hdr.uid, hdr.gid); e != errno.OK && e != errno.EEXIST {
				return fmt.Errorf("tarutil: mkdir %s: %v", name, e)
			}
			if e := fs.Chown(rc, name, hdr.uid, hdr.gid, false); e != errno.OK {
				return fmt.Errorf("tarutil: chown %s: %v", name, e)
			}
			fs.Chmod(rc, name, mode, false)
		case tar.TypeReg:
			if e := fs.WriteFile(rc, name, hdr.body, mode, hdr.uid, hdr.gid); e != errno.OK {
				return fmt.Errorf("tarutil: write %s: %v", name, e)
			}
			fs.Chown(rc, name, hdr.uid, hdr.gid, false)
			fs.Chmod(rc, name, mode, false)
		case tar.TypeSymlink:
			if e := fs.Symlink(rc, hdr.linkname, name, hdr.uid, hdr.gid); e != errno.OK {
				return fmt.Errorf("tarutil: symlink %s: %v", name, e)
			}
		case tar.TypeLink:
			if e := fs.Link(rc, "/"+strings.Trim(hdr.linkname, "/"), name); e != errno.OK {
				return fmt.Errorf("tarutil: link %s: %v", name, e)
			}
		}
		for k, v := range hdr.xattrs {
			fs.SetXattr(rc, name, k, []byte(v), false)
		}
	}
}

// unpackedState applies layers in order with unpack and returns the
// resulting tree without mtimes and inode numbers, which neither unpack
// takes from the archive, plus the first error.
func unpackedState(t *testing.T, unpack func(*vfs.FS, []byte) error, layers [][]Entry) ([]Entry, error) {
	t.Helper()
	fs := vfs.New()
	for _, ents := range layers {
		data, err := Pack(ents)
		if err != nil {
			t.Fatal(err)
		}
		if err := unpack(fs, data); err != nil {
			return nil, err
		}
	}
	snap, err := Snapshot(fs)
	if err != nil {
		t.Fatal(err)
	}
	for i := range snap {
		snap[i].Stat.Mtime, snap[i].Stat.Ino = time.Time{}, 0
	}
	return snap, nil
}

// Entry constructors for the tables below.
func dirEnt(p string, mode uint32, uid, gid int) Entry {
	return Entry{Path: p, Stat: vfs.Stat{Type: vfs.TypeDir, Mode: mode, UID: uid, GID: gid}}
}

func fileEnt(p string, mode uint32, uid, gid int) Entry {
	return Entry{Path: p, Stat: vfs.Stat{Type: vfs.TypeRegular, Mode: mode, UID: uid, GID: gid, Size: 1}, Data: []byte("x")}
}

func linkEnt(p, target string) Entry {
	return Entry{Path: p, Stat: vfs.Stat{Type: vfs.TypeSymlink, Mode: 0o777}, Target: target}
}

// Unpack creates a new member in one call and keeps Chown, Chmod and
// MkdirAll only where they are needed. Each row applies its layers, in
// archive order, with Unpack and with the five-walk reference, and the
// trees must be equal. Each row guards one condition of the one-create
// path: without it, the row's tree or error differs.
func TestUnpackMatchesFiveWalkReference(t *testing.T) {
	for _, row := range []struct {
		name   string
		layers [][]Entry
	}{
		{
			// Guards: a setgid parent keeps Chown and Chmod, since a
			// child created there inherits the parent's group and, for a
			// directory, the setgid bit.
			"member under a setgid directory",
			[][]Entry{{dirEnt("/shared", 0o2775, 0, 50)}, {
				fileEnt("/shared/f", 0o640, 7, 9),
				dirEnt("/shared/sub", 0o750, 0, 8),
				fileEnt("/shared/sub/g", 0o600, 1, 2),
			}},
		},
		{
			// Guards: a whiteout forgets the remembered parent; /d is
			// gone, and /d/new needs it made again.
			"whiteout of a directory, then members under it",
			[][]Entry{{dirEnt("/d", 0o700, 0, 0), fileEnt("/d/old", 0o644, 0, 0)}, {
				dirEnt("/d", 0o700, 0, 0),
				whiteoutFor("/d"),
				fileEnt("/d/new", 0o644, 3, 3),
			}},
		},
		{
			// Guards: an opaque marker forgets the remembered parent too.
			"opaque whiteout, then members under a directory it removed",
			[][]Entry{{dirEnt("/d", 0o755, 0, 0), dirEnt("/d/sub", 0o755, 0, 0), fileEnt("/d/sub/f", 0o644, 0, 0)}, {
				dirEnt("/d/sub", 0o755, 0, 0),
				{Path: "/d/" + WhiteoutOpaque, Stat: vfs.Stat{Type: vfs.TypeRegular}},
				fileEnt("/d/sub/g", 0o644, 4, 4),
			}},
		},
		{
			// Guards: an existing non-directory is removed before the
			// directory replacing it is made.
			"file replaced by a directory",
			[][]Entry{{fileEnt("/x", 0o644, 0, 0)}, {
				dirEnt("/x", 0o711, 2, 2),
				fileEnt("/x/y", 0o644, 2, 2),
			}},
		},
		{
			// Guards: a directory that already existed is re-owned and
			// re-moded; its Mkdir is EEXIST and lands nothing.
			"existing directory re-owned and re-moded",
			[][]Entry{{dirEnt("/d", 0o755, 0, 0), fileEnt("/d/f", 0o644, 0, 0)}, {
				dirEnt("/d", 0o2700, 5, 6),
				fileEnt("/d/g", 0o644, 5, 6),
			}},
		},
		{
			// Guards: a missing parent is made with MkdirAll, and looked
			// up again after, since a setgid ancestor makes it setgid.
			"member whose parents are implicit",
			[][]Entry{{fileEnt("/a/b/c", 0o644, 1, 1)}, {
				dirEnt("/s", 0o2755, 0, 7),
			}, {
				fileEnt("/s/x/y", 0o600, 1, 1),
			}},
		},
	} {
		t.Run(row.name, func(t *testing.T) {
			want, werr := unpackedState(t, unpackFiveWalk, row.layers)
			got, err := unpackedState(t, Unpack, row.layers)
			if (err == nil) != (werr == nil) {
				t.Fatalf("Unpack error %v, reference error %v", err, werr)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("Unpack left\n%s\nthe reference left\n%s", describe(got), describe(want))
			}
		})
	}
}

// describe renders a tree state one entry a line, for failure messages.
func describe(ents []Entry) string {
	var b strings.Builder
	for _, e := range ents {
		fmt.Fprintf(&b, "  %s type=%v mode=%o %d:%d target=%q\n", e.Path, e.Stat.Type, e.Stat.Mode, e.Stat.UID, e.Stat.GID, e.Target)
	}
	return b.String()
}

// stackNames is the namespace the random layer stacks draw from: every
// path of up to three components over three names, so members collide,
// replace and shadow one another often.
func stackNames() []string {
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

// Property: over seeded random layer stacks with setgid directories,
// owners, symlinks, replacements, whiteouts and implicit parents, Unpack
// leaves the tree the five-walk reference leaves, or fails where it fails.
func TestUnpackMatchesFiveWalkOnRandomStacks(t *testing.T) {
	names := stackNames()
	rng := rand.New(rand.NewSource(27))
	dirModes := []uint32{0o755, 0o2775, 0o700}
	fileModes := []uint32{0o644, 0o2755, 0o4750}
	for iter := 0; iter < 2000; iter++ {
		var layers [][]Entry
		for n := 1 + rng.Intn(4); n > 0; n-- {
			var ents []Entry
			for m := 1 + rng.Intn(6); m > 0; m-- {
				p := names[rng.Intn(len(names))]
				uid, gid := rng.Intn(3)*5, rng.Intn(3)*5
				switch rng.Intn(7) {
				case 0, 1, 2:
					ents = append(ents, dirEnt(p, dirModes[rng.Intn(len(dirModes))], uid, gid))
				case 3:
					ents = append(ents, fileEnt(p, fileModes[rng.Intn(len(fileModes))], uid, gid))
				case 4:
					ents = append(ents, linkEnt(p, names[rng.Intn(len(names))]))
				case 5:
					ents = append(ents, whiteoutFor(p))
				case 6:
					ents = append(ents, Entry{Path: path.Join(path.Dir(p), WhiteoutOpaque), Stat: vfs.Stat{Type: vfs.TypeRegular}})
				}
			}
			layers = append(layers, ents)
		}
		want, werr := unpackedState(t, unpackFiveWalk, layers)
		got, err := unpackedState(t, Unpack, layers)
		if (err == nil) != (werr == nil) || !reflect.DeepEqual(got, want) {
			t.Fatalf("iteration %d: Unpack (err %v) left\n%s\nthe reference (err %v) left\n%s",
				iter, err, describe(got), werr, describe(want))
		}
	}
}
