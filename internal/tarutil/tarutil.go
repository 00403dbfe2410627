// Package tarutil packs simulated filesystems into tar layers and applies
// tar layers back onto filesystems, with OCI-style whiteout handling. It is
// the layer format of internal/image (FROM pulls, layer commits) and the
// payload format of apk/deb packages in internal/pkgmgr.
//
// Every tar the program writes or reads goes through this package's codec
// (codec.go): Pack encodes each member as one USTAR header block written
// directly, and Unpack and Read decode USTAR blocks in place. A member
// USTAR cannot represent — xattrs, long or non-ASCII names, numbers too
// large for their octal fields, PAX and GNU extension headers — falls
// back to archive/tar for that one member, so the bytes written and the
// members read are exactly archive/tar's and layer digests do not move.
//
// Unpacking is where root emulation earns its keep in real builders:
// extracting as the kernel (RootContext) preserves recorded ownership the
// way a privileged tar would, while extracting as a process (the package
// managers' path) goes through chown and fails or lies accordingly.
package tarutil

import (
	"archive/tar"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"path"
	"sort"
	"strings"

	"repro/internal/errno"
	"repro/internal/vfs"
)

// WhiteoutPrefix marks a deleted file in a layer (OCI image spec).
const WhiteoutPrefix = ".wh."

// WhiteoutOpaque marks a directory whose lower contents are hidden.
const WhiteoutOpaque = ".wh..wh..opq"

// Entry is one file captured from or destined for a filesystem.
type Entry struct {
	Path   string // absolute, clean
	Stat   vfs.Stat
	Data   []byte // regular files
	Target string // symlinks
	Xattrs map[string]string
	Digest string // hex sha256 of Data; "" when not computed
}

// entryFromNode renders a vfs walk node as an Entry. Node data is shared
// with the filesystem, so callers that retain the entry must pass
// copyData.
func entryFromNode(n *vfs.Node, copyData bool) Entry {
	ent := Entry{Path: n.Path, Stat: n.Stat, Data: n.Data, Target: n.Target, Digest: n.Digest}
	if copyData && n.Data != nil {
		ent.Data = append([]byte(nil), n.Data...)
	}
	if len(n.Xattrs) > 0 {
		ent.Xattrs = make(map[string]string, len(n.Xattrs))
		for k, v := range n.Xattrs {
			ent.Xattrs[k] = string(v)
		}
	}
	return ent
}

// pathLess is the canonical entry order: parents before children, siblings
// by name — the order a depth-first walk with sorted directory listings
// produces. It differs from plain string order only for names containing
// bytes below '/'.
func pathLess(a, b string) bool {
	for i := 0; i < len(a) && i < len(b); i++ {
		ca, cb := a[i], b[i]
		if ca == cb {
			continue
		}
		if ca == '/' {
			return true
		}
		if cb == '/' {
			return false
		}
		return ca < cb
	}
	return len(a) < len(b)
}

// Snapshot walks the filesystem and returns all entries in canonical order
// (see pathLess) — the full-walk reference serialisation used for layer
// digests and as the oracle the incremental Snapshotter is tested against.
// The walk emits entries already ordered, so no sort pass is needed.
//
//chlint:keyroot
func Snapshot(fs *vfs.FS) ([]Entry, error) {
	var out []Entry
	_, err := fs.WalkSince(0, func(n *vfs.Node) error {
		if n.Path == "/" {
			return nil // the root directory itself is never an entry
		}
		out = append(out, entryFromNode(n, true))
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("tarutil: %w", err)
	}
	return out, nil
}

// Pack serialises entries into a tar stream. The buffer is pre-sized from
// the entry sizes (512-byte header + 512-padded body each) so the encoder
// never re-grows it unless an entry needs archive/tar's PAX or GNU
// encoding. Sockets have no tar type and are skipped, as GNU tar does.
//
//chlint:keyroot
func Pack(entries []Entry) ([]byte, error) {
	size := 2 * blockSize // archive terminator
	for i := range entries {
		size += blockSize + len(entries[i].Data) + padding(len(entries[i].Data))
	}
	buf := make([]byte, 0, size)
	for i := range entries {
		ent := &entries[i]
		if ent.Stat.Type == vfs.TypeSocket {
			continue
		}
		h := header{
			name:   strings.TrimPrefix(ent.Path, "/"),
			mode:   int64(ent.Stat.Mode),
			uid:    ent.Stat.UID,
			gid:    ent.Stat.GID,
			mtime:  ent.Stat.Mtime,
			xattrs: ent.Xattrs,
		}
		// A type missing here keeps flag 0, which archive/tar writes as
		// a regular file.
		switch ent.Stat.Type {
		case vfs.TypeDir:
			h.typeflag = tar.TypeDir
			h.name += "/"
		case vfs.TypeRegular:
			h.typeflag = tar.TypeReg
			h.body = ent.Data
		case vfs.TypeSymlink:
			h.typeflag = tar.TypeSymlink
			h.linkname = ent.Target
		case vfs.TypeCharDev, vfs.TypeBlockDev:
			h.typeflag = tar.TypeChar
			if ent.Stat.Type == vfs.TypeBlockDev {
				h.typeflag = tar.TypeBlock
			}
			h.devmajor, h.devminor = int64(ent.Stat.Rdev.Major()), int64(ent.Stat.Rdev.Minor())
		case vfs.TypeFIFO:
			h.typeflag = tar.TypeFifo
		}
		var err error
		if buf, err = appendMember(buf, &h); err != nil {
			return nil, fmt.Errorf("tarutil: %s: %w", ent.Path, err)
		}
	}
	buf = append(buf, zeroBlock[:]...)
	return append(buf, zeroBlock[:]...), nil
}

// Unpack applies a tar layer onto fs as the kernel (privileged): ownership,
// modes, device nodes and xattrs land exactly as recorded, and whiteouts
// delete. This is the image-store path — equivalent to unpacking as root.
// File contents are copied into fs, never shared with layer.
func Unpack(fs *vfs.FS, layer []byte) error {
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
			// Remove everything under dir, keep dir itself.
			ents, e := fs.ReadDir(rc, dir)
			if e == errno.OK {
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

		// Replace any existing non-directory entry.
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
		case tar.TypeChar, tar.TypeBlock:
			typ := vfs.TypeCharDev
			if hdr.typeflag == tar.TypeBlock {
				typ = vfs.TypeBlockDev
			}
			dev := vfs.Makedev(uint32(hdr.devmajor), uint32(hdr.devminor))
			if e := fs.Mknod(rc, name, typ, mode, dev, hdr.uid, hdr.gid); e != errno.OK {
				return fmt.Errorf("tarutil: mknod %s: %v", name, e)
			}
		case tar.TypeFifo:
			if e := fs.Mknod(rc, name, vfs.TypeFIFO, mode, 0, hdr.uid, hdr.gid); e != errno.OK {
				return fmt.Errorf("tarutil: mkfifo %s: %v", name, e)
			}
		}
		for k, v := range hdr.xattrs {
			fs.SetXattr(rc, name, k, []byte(v), false)
		}
	}
}

// Read decodes a tar stream into entries, in archive order: the package
// payload path, which interprets members itself rather than applying them
// to a filesystem. Whiteouts are returned as the plain files they are
// stored as. A member an Entry cannot express — a hard link, or a type
// other than file, directory, symlink, device or FIFO — is an error.
// Entry.Data aliases archive; callers must not modify it.
func Read(archive []byte) ([]Entry, error) {
	var out []Entry
	r := reader{b: archive}
	for {
		var hdr header
		ok, err := r.next(&hdr)
		if err != nil {
			return nil, fmt.Errorf("tarutil: %w", err)
		}
		if !ok {
			return out, nil
		}
		ent := Entry{
			Path: "/" + strings.Trim(hdr.name, "/"),
			Stat: vfs.Stat{
				Mode:  uint32(hdr.mode) & 0o7777,
				UID:   hdr.uid,
				GID:   hdr.gid,
				Mtime: hdr.mtime,
			},
			Xattrs: hdr.xattrs,
		}
		switch hdr.typeflag {
		case tar.TypeReg:
			ent.Stat.Type = vfs.TypeRegular
			ent.Stat.Size = int64(len(hdr.body))
			ent.Data = hdr.body
		case tar.TypeDir:
			ent.Stat.Type = vfs.TypeDir
		case tar.TypeSymlink:
			ent.Stat.Type = vfs.TypeSymlink
			ent.Target = hdr.linkname
		case tar.TypeChar, tar.TypeBlock:
			ent.Stat.Type = vfs.TypeCharDev
			if hdr.typeflag == tar.TypeBlock {
				ent.Stat.Type = vfs.TypeBlockDev
			}
			ent.Stat.Rdev = vfs.Makedev(uint32(hdr.devmajor), uint32(hdr.devminor))
		case tar.TypeFifo:
			ent.Stat.Type = vfs.TypeFIFO
		default:
			return nil, fmt.Errorf("tarutil: %s: tar member type %q has no entry form", ent.Path, hdr.typeflag)
		}
		out = append(out, ent)
	}
}

func removeAll(fs *vfs.FS, p string) {
	rc := vfs.RootContext()
	st, e := fs.Stat(rc, p, false)
	if e != errno.OK {
		return
	}
	if st.Type == vfs.TypeDir {
		if ents, e := fs.ReadDir(rc, p); e == errno.OK {
			for _, de := range ents {
				removeAll(fs, path.Join(p, de.Name))
			}
		}
		fs.Rmdir(rc, p)
		return
	}
	fs.Unlink(rc, p)
}

// Diff computes the layer entries present in upper but not lower (changed
// or added), plus whiteout entries for paths deleted from lower — the
// commit step of a layered build. A deleted directory yields a single
// whiteout for the directory itself; its descendants are implied (Unpack
// removes recursively), matching how real layered builders keep delete
// layers small.
func Diff(lower, upper []Entry) []Entry {
	lowerByPath := make(map[string]*Entry, len(lower))
	for i := range lower {
		lowerByPath[lower[i].Path] = &lower[i]
	}
	upperPaths := make(map[string]bool, len(upper))
	var out []Entry
	for _, u := range upper {
		upperPaths[u.Path] = true
		l, ok := lowerByPath[u.Path]
		if !ok || !sameEntry(*l, u) {
			out = append(out, u)
		}
	}
	deleted := make(map[string]bool)
	for _, l := range lower {
		if !upperPaths[l.Path] {
			deleted[l.Path] = true
		}
	}
	for _, l := range lower {
		if deleted[l.Path] && !deleted[path.Dir(l.Path)] {
			out = append(out, whiteoutFor(l.Path))
		}
	}
	sort.Slice(out, func(i, j int) bool { return pathLess(out[i].Path, out[j].Path) })
	return out
}

// whiteoutFor builds the whiteout entry deleting p.
func whiteoutFor(p string) Entry {
	dir, base := path.Split(p)
	return Entry{
		Path: path.Join(dir, WhiteoutPrefix+base),
		Stat: vfs.Stat{Type: vfs.TypeRegular, Mode: 0},
	}
}

// sameEntry reports whether two entries serialise identically (modulo
// mtime, which layer diffs deliberately ignore). Content is compared by
// digest when both sides carry one — the cached-digest fast path that lets
// Diff skip re-reading unchanged file bytes.
func sameEntry(a, b Entry) bool {
	if a.Stat.Type != b.Stat.Type || a.Stat.Mode != b.Stat.Mode ||
		a.Stat.UID != b.Stat.UID || a.Stat.GID != b.Stat.GID ||
		a.Target != b.Target || a.Stat.Rdev != b.Stat.Rdev {
		return false
	}
	if !sameXattrs(a.Xattrs, b.Xattrs) {
		return false
	}
	if a.Stat.Type != vfs.TypeRegular {
		return true
	}
	if a.Digest == "" && b.Digest == "" {
		return bytes.Equal(a.Data, b.Data)
	}
	return dataDigest(a) == dataDigest(b)
}

func sameXattrs(a, b map[string]string) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		if bv, ok := b[k]; !ok || bv != v {
			return false
		}
	}
	return true
}

// dataDigest returns the entry's content digest, computing it from Data
// when the entry was built by hand rather than by a snapshot walk.
func dataDigest(e Entry) string {
	if e.Digest != "" {
		return e.Digest
	}
	sum := sha256.Sum256(e.Data)
	return hex.EncodeToString(sum[:])
}
