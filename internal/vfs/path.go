package vfs

import (
	"strings"

	"repro/internal/errno"
)

// maxSymlinkDepth mirrors the kernel's MAXSYMLINKS (40 since Linux 2.6).
const maxSymlinkDepth = 40

// maxNameLen mirrors NAME_MAX.
const maxNameLen = 255

// splitPath normalises an absolute path into components. "." components
// vanish; ".." is resolved lexically against the stack the walker builds,
// matching how the walker treats it (we resolve ".." during the walk, not
// lexically, to honour symlinked parents — see walk).
func splitPath(path string) []string {
	// One allocation, sized by the separators: every walk splits a path.
	out := make([]string, 0, strings.Count(path, "/")+1)
	for path != "" {
		var c string
		c, path, _ = strings.Cut(path, "/")
		if c != "" && c != "." {
			out = append(out, c)
		}
	}
	return out
}

// walkResult carries the terminal state of a path walk.
type walkResult struct {
	node   *inode // resolved inode, nil if the final component is missing
	parent *inode // directory containing (or that would contain) the final component
	base   string // final component name
}

// walk resolves path from the root, enforcing search permission on every
// traversed directory and following symlinks up to maxSymlinkDepth. When
// followFinal is false a trailing symlink is returned itself (lstat,
// unlink, lchown semantics). The final component may be absent, in which
// case node is nil and parent/base describe where it would be created; a
// missing *intermediate* component is ENOENT.
func (fs *FS) walk(ac *AccessContext, path string, followFinal bool) (walkResult, errno.Errno) {
	if !strings.HasPrefix(path, "/") {
		return walkResult{}, errno.EINVAL // simos always passes absolute paths
	}
	depth := 0
	return fs.walkFrom(ac, fs.root, splitPath(path), followFinal, &depth)
}

func (fs *FS) walkFrom(ac *AccessContext, dir *inode, comps []string, followFinal bool, depth *int) (walkResult, errno.Errno) {
	cur := dir
	// Track the parent chain for "..", on the stack for paths up to 8
	// directories deep.
	var stack [8]*inode
	parents := stack[:0]
	for i := 0; i < len(comps); i++ {
		name := comps[i]
		if len(name) > maxNameLen {
			return walkResult{}, errno.ENAMETOOLONG
		}
		if !cur.isDir() {
			return walkResult{}, errno.ENOTDIR
		}
		if e := checkExec(ac, cur); e != errno.OK {
			return walkResult{}, e
		}
		if name == ".." {
			if len(parents) > 0 {
				cur = parents[len(parents)-1]
				parents = parents[:len(parents)-1]
			}
			// ".." at root stays at root, as in a chroot.
			continue
		}
		child, ok := cur.children[name]
		last := i == len(comps)-1
		if !ok {
			if last {
				return walkResult{parent: cur, base: name}, errno.OK
			}
			return walkResult{}, errno.ENOENT
		}
		if child.typ == TypeSymlink && (!last || followFinal) {
			*depth++
			if *depth > maxSymlinkDepth {
				return walkResult{}, errno.ELOOP
			}
			target := child.target
			rest := comps[i+1:]
			var tcomps []string
			var tdir *inode
			if strings.HasPrefix(target, "/") {
				tdir = fs.root
				tcomps = splitPath(target)
			} else {
				tdir = cur
				tcomps = splitPath(target)
			}
			tcomps = append(append([]string{}, tcomps...), rest...)
			if len(tcomps) == 0 {
				// Symlink to "/" as the final component.
				return walkResult{node: fs.root, parent: fs.root, base: "/"}, errno.OK
			}
			if tdir == cur {
				// Relative target: resume the walk in place with the
				// current parent chain preserved.
				comps = append(tcomps, comps[len(comps):]...)
				i = -1
				// Re-rooting at cur: keep parents as-is.
				continue
			}
			return fs.walkFrom(ac, tdir, tcomps, followFinal, depth)
		}
		if last {
			return walkResult{node: child, parent: cur, base: name}, errno.OK
		}
		parents = append(parents, cur)
		cur = child
	}
	// Empty path after splitting: the root itself.
	return walkResult{node: cur, parent: cur, base: "/"}, errno.OK
}

// lookup resolves path to an existing inode.
func (fs *FS) lookup(ac *AccessContext, path string, followFinal bool) (*inode, errno.Errno) {
	r, e := fs.walk(ac, path, followFinal)
	if e != errno.OK {
		return nil, e
	}
	if r.node == nil {
		return nil, errno.ENOENT
	}
	return r.node, errno.OK
}

// lookupParent resolves the directory that does/would contain path's final
// component, for create-type operations.
func (fs *FS) lookupParent(ac *AccessContext, path string) (*inode, string, errno.Errno) {
	r, e := fs.walk(ac, path, false)
	if e != errno.OK {
		return nil, "", e
	}
	if r.base == "/" {
		return nil, "", errno.EEXIST // operating on the root itself
	}
	return r.parent, r.base, errno.OK
}

// joinComponents reassembles split path components.
func joinComponents(comps []string) string {
	out := ""
	for i, c := range comps {
		if i > 0 {
			out += "/"
		}
		out += c
	}
	return out
}
