package tarutil

import (
	"path"
	"sort"
	"strings"

	"repro/internal/vfs"
)

// IsDirAfter reports whether every component of the absolute path p is a
// directory in the tree that Unpack would produce by applying layers, in
// order, onto the tree base describes. base is a canonical snapshot of
// that tree (Snapshot's order, as the image store's flattened entries
// are), so the question costs a read of the layers' headers, never an
// unpack.
//
// The answer is true only when it is certain; false means "not known to
// be": a component is missing, a symlink or another non-directory, a
// directory only a member's implicit parent made, or p is not clean; or a
// layer holds what the resolver does not model — a hard link, a member
// under a symlink or a file, a whiteout of "." or "..", or an archive Read
// rejects. It applies Unpack's rules: a whiteout removes its path and
// everything under it, an opaque marker hides a directory's lower
// contents, a non-directory that replaces a directory removes that
// directory's descendants too, and a member's missing parents are made.
func IsDirAfter(base []Entry, layers [][]byte, p string) bool {
	if !path.IsAbs(p) || path.Clean(p) != p {
		return false
	}
	t := overlay{base: base, kinds: map[string]kind{}, cleared: map[string]bool{}}
	for _, layer := range layers {
		ents, err := Read(layer)
		if err != nil {
			return false
		}
		for i := range ents {
			if !t.apply(&ents[i]) {
				return false
			}
		}
	}
	return t.dirsAlong(p)
}

// kind is what a path holds in the tree the resolver tracks.
type kind uint8

const (
	kindGone     kind = iota
	kindDir           // a directory a base entry or a layer member names
	kindImplicit      // a directory Unpack made as a member's missing parent
	kindOther         // anything else: file, symlink, device, FIFO
)

// overlay is base plus the layer members applied so far: kinds holds
// every path a member named or made (kindGone for a whiteout), and
// cleared the paths whose earlier contents are gone.
type overlay struct {
	base    []Entry
	kinds   map[string]kind
	cleared map[string]bool
}

// apply folds one layer member into the tree, reporting false when the
// member is outside what the resolver models.
func (t *overlay) apply(e *Entry) bool {
	q := e.Path
	if q == "/" || path.Clean(q) != q {
		return false
	}
	dir, name := path.Dir(q), path.Base(q)
	switch {
	case name == WhiteoutOpaque:
		// Unpack lists dir, following a symlink there too.
		exists, ok := t.reach(dir)
		if exists {
			t.clear(dir)
		}
		return ok
	case strings.HasPrefix(name, WhiteoutPrefix):
		target := strings.TrimPrefix(name, WhiteoutPrefix)
		if target == "" || target == "." || target == ".." {
			return false
		}
		exists, ok := t.reach(dir)
		if exists {
			x := path.Join(dir, target)
			t.clear(x)
			t.kinds[x] = kindGone
		}
		return ok
	}
	if !t.mkdirAll(dir) {
		return false
	}
	isDir := e.Stat.Type == vfs.TypeDir
	if cur := t.kind(q); cur != kindGone && !(cur != kindOther && isDir) {
		t.clear(q)
	}
	t.kinds[q] = kindOther
	if isDir {
		t.kinds[q] = kindDir
	}
	return true
}

// reach reports whether the directory p exists, walking from the root
// as a path lookup does. ok is false when a component is a symlink or a
// file, which the lookup would follow or fail on.
func (t *overlay) reach(p string) (exists, ok bool) {
	if p == "/" {
		return true, true
	}
	if exists, ok = t.reach(path.Dir(p)); !exists || !ok {
		return exists, ok
	}
	switch t.kind(p) {
	case kindDir, kindImplicit:
		return true, true
	case kindGone:
		return false, true
	}
	return false, false
}

// mkdirAll makes dir and its missing ancestors, as Unpack does before it
// creates a member; false when a component is a symlink or a file.
func (t *overlay) mkdirAll(dir string) bool {
	if dir == "/" {
		return true
	}
	if !t.mkdirAll(path.Dir(dir)) {
		return false
	}
	switch t.kind(dir) {
	case kindDir, kindImplicit:
		return true
	case kindGone:
		t.kinds[dir] = kindImplicit
		return true
	}
	return false
}

// clear forgets everything under p (not p itself).
func (t *overlay) clear(p string) {
	for q := range t.kinds {
		if strictlyUnder(q, p) {
			delete(t.kinds, q)
		}
	}
	t.cleared[p] = true
}

// kind reports what p holds now.
func (t *overlay) kind(p string) kind {
	if k, ok := t.kinds[p]; ok {
		return k
	}
	for a := p; a != "/"; {
		a = path.Dir(a)
		if t.cleared[a] {
			return kindGone
		}
	}
	i := sort.Search(len(t.base), func(i int) bool { return !PathLess(t.base[i].Path, p) })
	if i == len(t.base) || t.base[i].Path != p {
		return kindGone
	}
	if t.base[i].Stat.Type == vfs.TypeDir {
		return kindDir
	}
	return kindOther
}

// dirsAlong reports whether p and each of its ancestors is a directory
// some entry names.
func (t *overlay) dirsAlong(p string) bool {
	for ; p != "/"; p = path.Dir(p) {
		if t.kind(p) != kindDir {
			return false
		}
	}
	return true
}

// strictlyUnder reports whether q lies below directory p.
func strictlyUnder(q, p string) bool {
	if p == "/" {
		return q != "/"
	}
	return len(q) > len(p) && q[len(p)] == '/' && q[:len(p)] == p
}
