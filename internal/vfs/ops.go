package vfs

import (
	"repro/internal/errno"
)

// ChownAll force-sets the ownership of every inode in the filesystem
// (kernel-level, no permission checks). It models what an *unprivileged*
// image unpack produces: archive ownership cannot be applied, so every
// file belongs to the unpacking user — the reason a Type III container
// sees its whole image as root:root under the single-ID mapping, and the
// reason previously-recorded owners like sshd:sshd cannot survive an
// unprivileged rebuild.
func (fs *FS) ChownAll(uid, gid int) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	var walk func(n *inode)
	walk = func(n *inode) {
		n.uid = uid
		n.gid = gid
		for _, c := range n.children {
			walk(c)
		}
	}
	walk(fs.root)
	stampSubtree(fs.root, fs.bumpGen())
}

// Stat returns metadata for path. follow selects stat vs lstat semantics.
func (fs *FS) Stat(ac *AccessContext, path string, follow bool) (Stat, errno.Errno) {
	fs.mu.RLock()
	defer fs.mu.RUnlock()
	n, e := fs.lookup(ac, path, follow)
	if e != errno.OK {
		return Stat{}, e
	}
	return statOf(n), errno.OK
}

func statOf(n *inode) Stat {
	return Stat{
		Ino: n.ino, Type: n.typ, Mode: n.mode, UID: n.uid, GID: n.gid,
		Nlink: n.nlink, Size: n.size, Rdev: n.dev, Mtime: n.mtime,
	}
}

// Exists reports whether path resolves, with no permission side effects
// beyond the walk itself.
func (fs *FS) Exists(ac *AccessContext, path string) bool {
	_, e := fs.Stat(ac, path, true)
	return e == errno.OK
}

// Access implements access(2)-style rwx probing (mask bits 4/2/1).
func (fs *FS) Access(ac *AccessContext, path string, mask uint32) errno.Errno {
	fs.mu.RLock()
	defer fs.mu.RUnlock()
	n, e := fs.lookup(ac, path, true)
	if e != errno.OK {
		return e
	}
	if mask&4 != 0 {
		if e := checkRead(ac, n); e != errno.OK {
			return e
		}
	}
	if mask&2 != 0 {
		if e := checkWrite(ac, n); e != errno.OK {
			return e
		}
	}
	if mask&1 != 0 {
		if e := checkExec(ac, n); e != errno.OK {
			return e
		}
	}
	return errno.OK
}

// prepareCreate validates and returns the parent for creating base under
// path; write+search on the parent is required.
func (fs *FS) prepareCreate(ac *AccessContext, path string) (*inode, string, errno.Errno) {
	if fs.readonly {
		return nil, "", errno.EROFS
	}
	parent, base, e := fs.lookupParent(ac, path)
	if e != errno.OK {
		return nil, "", e
	}
	if _, exists := parent.children[base]; exists {
		return nil, "", errno.EEXIST
	}
	if e := checkWrite(ac, parent); e != errno.OK {
		return nil, "", e
	}
	return parent, base, errno.OK
}

// attach inserts a fresh inode, applying setgid-directory group
// inheritance. The parent's mtime becomes the new inode's, which its
// creator has just read from the clock: one clock read per create.
func (fs *FS) attach(parent *inode, base string, n *inode, gid int) {
	if parent.mode&SISGID != 0 {
		n.gid = parent.gid
		if n.isDir() {
			n.mode |= SISGID
		}
	} else {
		n.gid = gid
	}
	parent.children[base] = n
	n.parents = append(n.parents, parent)
	if n.isDir() {
		parent.nlink++
	}
	parent.mtime = n.mtime
	fs.touch(n)
}

// Mkdir creates a directory owned by uid/gid.
func (fs *FS) Mkdir(ac *AccessContext, path string, mode uint32, uid, gid int) errno.Errno {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	parent, base, e := fs.prepareCreate(ac, path)
	if e != errno.OK {
		return e
	}
	n := &inode{
		ino: fs.takeIno(), typ: TypeDir, mode: mode & 0o7777, uid: uid,
		nlink: 2, children: map[string]*inode{}, mtime: fs.clock(),
	}
	fs.attach(parent, base, n, gid)
	return errno.OK
}

// MkdirAll creates path and any missing ancestors, ignoring EEXIST, the
// unpacker's convenience.
func (fs *FS) MkdirAll(ac *AccessContext, path string, mode uint32, uid, gid int) errno.Errno {
	comps := splitPath(path)
	cur := ""
	for _, c := range comps {
		cur += "/" + c
		if e := fs.Mkdir(ac, cur, mode, uid, gid); e != errno.OK && e != errno.EEXIST {
			return e
		}
	}
	return errno.OK
}

// Mknod creates a filesystem node. Device nodes additionally require
// CapMknod — the §5 class-3 rule the filter's argument inspection exists
// for. FIFOs, sockets and regular files are unprivileged.
func (fs *FS) Mknod(ac *AccessContext, path string, typ FileType, mode uint32, dev Dev, uid, gid int) errno.Errno {
	if typ == TypeCharDev || typ == TypeBlockDev {
		if !ac.CapMknod {
			return errno.EPERM
		}
	}
	if typ == TypeDir || typ == TypeSymlink {
		return errno.EINVAL
	}
	fs.mu.Lock()
	defer fs.mu.Unlock()
	parent, base, e := fs.prepareCreate(ac, path)
	if e != errno.OK {
		return e
	}
	n := &inode{
		ino: fs.takeIno(), typ: typ, mode: mode & 0o7777, uid: uid,
		nlink: 1, dev: dev, mtime: fs.clock(),
	}
	fs.attach(parent, base, n, gid)
	return errno.OK
}

// Symlink creates a symbolic link. Mode is always 0777; ownership matters
// for sticky-directory deletion rules.
func (fs *FS) Symlink(ac *AccessContext, target, path string, uid, gid int) errno.Errno {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	parent, base, e := fs.prepareCreate(ac, path)
	if e != errno.OK {
		return e
	}
	n := &inode{
		ino: fs.takeIno(), typ: TypeSymlink, mode: 0o777, uid: uid,
		nlink: 1, target: target, size: int64(len(target)), mtime: fs.clock(),
	}
	fs.attach(parent, base, n, gid)
	return errno.OK
}

// Readlink returns a symlink's target.
func (fs *FS) Readlink(ac *AccessContext, path string) (string, errno.Errno) {
	fs.mu.RLock()
	defer fs.mu.RUnlock()
	n, e := fs.lookup(ac, path, false)
	if e != errno.OK {
		return "", e
	}
	if n.typ != TypeSymlink {
		return "", errno.EINVAL
	}
	return n.target, errno.OK
}

// Link creates a hard link to an existing non-directory.
func (fs *FS) Link(ac *AccessContext, oldpath, newpath string) errno.Errno {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	old, e := fs.lookup(ac, oldpath, false)
	if e != errno.OK {
		return e
	}
	if old.isDir() {
		return errno.EPERM
	}
	parent, base, e := fs.prepareCreate(ac, newpath)
	if e != errno.OK {
		return e
	}
	old.nlink++
	parent.children[base] = old
	old.parents = append(old.parents, parent)
	parent.mtime = fs.clock()
	fs.touch(old)
	return errno.OK
}

// stickyDelete enforces the sticky-bit deletion rule.
func stickyDelete(ac *AccessContext, dir, victim *inode) errno.Errno {
	if dir.mode&SISVTX == 0 {
		return errno.OK
	}
	if ac.UID == victim.uid || ac.UID == dir.uid || ac.CapFowner {
		return errno.OK
	}
	return errno.EPERM
}

// Unlink removes a non-directory entry.
func (fs *FS) Unlink(ac *AccessContext, path string) errno.Errno {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if fs.readonly {
		return errno.EROFS
	}
	r, e := fs.walk(ac, path, false)
	if e != errno.OK {
		return e
	}
	if r.node == nil {
		return errno.ENOENT
	}
	if r.node.isDir() {
		return errno.EISDIR
	}
	if e := checkWrite(ac, r.parent); e != errno.OK {
		return e
	}
	if e := stickyDelete(ac, r.parent, r.node); e != errno.OK {
		return e
	}
	r.node.nlink--
	delete(r.parent.children, r.base)
	r.node.dropParent(r.parent)
	r.parent.mtime = fs.clock()
	fs.touch(r.parent)
	return errno.OK
}

// Rmdir removes an empty directory.
func (fs *FS) Rmdir(ac *AccessContext, path string) errno.Errno {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if fs.readonly {
		return errno.EROFS
	}
	r, e := fs.walk(ac, path, false)
	if e != errno.OK {
		return e
	}
	if r.node == nil {
		return errno.ENOENT
	}
	if !r.node.isDir() {
		return errno.ENOTDIR
	}
	if len(r.node.children) > 0 {
		return errno.ENOTEMPTY
	}
	if r.node == fs.root {
		return errno.EBUSY
	}
	if e := checkWrite(ac, r.parent); e != errno.OK {
		return e
	}
	if e := stickyDelete(ac, r.parent, r.node); e != errno.OK {
		return e
	}
	delete(r.parent.children, r.base)
	r.node.dropParent(r.parent)
	r.parent.nlink--
	r.parent.mtime = fs.clock()
	fs.touch(r.parent)
	return errno.OK
}

// Rename moves oldpath to newpath, replacing a compatible existing target.
// Moving a directory into its own subtree is EINVAL, as rename(2) specifies
// ("an attempt was made to make a directory a subdirectory of itself").
func (fs *FS) Rename(ac *AccessContext, oldpath, newpath string) errno.Errno {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if fs.readonly {
		return errno.EROFS
	}
	oldClean := "/" + joinComponents(splitPath(oldpath))
	newClean := "/" + joinComponents(splitPath(newpath))
	if newClean == oldClean {
		return errno.OK
	}
	if len(newClean) > len(oldClean) && newClean[:len(oldClean)] == oldClean &&
		(oldClean == "/" || newClean[len(oldClean)] == '/') {
		return errno.EINVAL
	}
	or, e := fs.walk(ac, oldpath, false)
	if e != errno.OK {
		return e
	}
	if or.node == nil {
		return errno.ENOENT
	}
	nr, e := fs.walk(ac, newpath, false)
	if e != errno.OK {
		return e
	}
	if e := checkWrite(ac, or.parent); e != errno.OK {
		return e
	}
	if e := checkWrite(ac, nr.parent); e != errno.OK {
		return e
	}
	if e := stickyDelete(ac, or.parent, or.node); e != errno.OK {
		return e
	}
	if nr.node != nil {
		if nr.node == or.node {
			return errno.OK
		}
		if nr.node.isDir() {
			if !or.node.isDir() {
				return errno.EISDIR
			}
			if len(nr.node.children) > 0 {
				return errno.ENOTEMPTY
			}
		} else if or.node.isDir() {
			return errno.ENOTDIR
		}
		if e := stickyDelete(ac, nr.parent, nr.node); e != errno.OK {
			return e
		}
		delete(nr.parent.children, nr.base)
		nr.node.dropParent(nr.parent)
	}
	delete(or.parent.children, or.base)
	or.node.dropParent(or.parent)
	nr.parent.children[nr.base] = or.node
	or.node.parents = append(or.node.parents, nr.parent)
	if or.node.isDir() && or.parent != nr.parent {
		or.parent.nlink--
		nr.parent.nlink++
	}
	or.parent.mtime = fs.clock()
	nr.parent.mtime = fs.clock()
	// Every path under the moved node changed: stamp the whole subtree,
	// then propagate from both affected directories.
	g := fs.bumpGen()
	stampSubtree(or.node, g)
	markDirty(or.parent, g)
	markDirty(nr.parent, g)
	return errno.OK
}

// Chmod changes permission bits: owner or CAP_FOWNER. A non-member without
// CAP_FSETID setting group-exec keeps losing setgid, per inode_init_owner.
func (fs *FS) Chmod(ac *AccessContext, path string, mode uint32, follow bool) errno.Errno {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if fs.readonly {
		return errno.EROFS
	}
	n, e := fs.lookup(ac, path, follow)
	if e != errno.OK {
		return e
	}
	return fs.chmodInode(ac, n, mode)
}

func (fs *FS) chmodInode(ac *AccessContext, n *inode, mode uint32) errno.Errno {
	if ac.UID != n.uid && !ac.CapFowner {
		return errno.EPERM
	}
	mode &= 0o7777
	if !n.isDir() && mode&SISGID != 0 && !ac.inGroup(n.gid) && !ac.CapFsetid {
		mode &^= SISGID
	}
	n.mode = mode
	n.mtime = fs.clock()
	fs.touch(n)
	return errno.OK
}

// Chown changes ownership, with the Linux rules: changing the owner needs
// CAP_CHOWN; the owner may change the group to one they belong to, anyone
// else needs CAP_CHOWN; -1 leaves a dimension unchanged; on success the
// setuid/setgid bits are stripped from non-directories unless the caller
// has CAP_FSETID.
//
// uid/gid here are *global* — the caller (simos) has already translated
// namespace-local IDs and turned unmapped ones into EINVAL, which is the
// precise failure Figure 1b shows.
func (fs *FS) Chown(ac *AccessContext, path string, uid, gid int, follow bool) errno.Errno {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if fs.readonly {
		return errno.EROFS
	}
	n, e := fs.lookup(ac, path, follow)
	if e != errno.OK {
		return e
	}
	return fs.chownInode(ac, n, uid, gid)
}

func (fs *FS) chownInode(ac *AccessContext, n *inode, uid, gid int) errno.Errno {
	changingUID := uid != -1 && uid != n.uid
	changingGID := gid != -1 && gid != n.gid
	if changingUID && !ac.CapChown {
		return errno.EPERM
	}
	if changingGID && !ac.CapChown {
		if ac.UID != n.uid || !ac.inGroup(gid) {
			return errno.EPERM
		}
	}
	// Even a no-op chown requires ownership or the capability.
	if !ac.CapChown && ac.UID != n.uid {
		return errno.EPERM
	}
	if uid != -1 {
		n.uid = uid
	}
	if gid != -1 {
		n.gid = gid
	}
	if (changingUID || changingGID) && !n.isDir() && !ac.CapFsetid {
		n.mode &^= SISUID | SISGID
	}
	n.mtime = fs.clock()
	fs.touch(n)
	return errno.OK
}

// Utimens sets the modification time: owner, CAP_FOWNER, or write access.
func (fs *FS) Utimens(ac *AccessContext, path string, mtime int64, follow bool) errno.Errno {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if fs.readonly {
		return errno.EROFS
	}
	n, e := fs.lookup(ac, path, follow)
	if e != errno.OK {
		return e
	}
	if ac.UID != n.uid && !ac.CapFowner {
		if e := checkWrite(ac, n); e != errno.OK {
			return errno.EPERM
		}
	}
	n.mtime = fs.clock()
	fs.touch(n)
	_ = mtime // logical clock governs; argument kept for ABI fidelity
	return errno.OK
}

// ReadDir lists a directory.
func (fs *FS) ReadDir(ac *AccessContext, path string) ([]DirEntry, errno.Errno) {
	fs.mu.RLock()
	defer fs.mu.RUnlock()
	n, e := fs.lookup(ac, path, true)
	if e != errno.OK {
		return nil, e
	}
	if !n.isDir() {
		return nil, errno.ENOTDIR
	}
	if e := checkRead(ac, n); e != errno.OK {
		return nil, e
	}
	return sortedEntries(n), errno.OK
}

// ReadFile returns a regular file's full contents.
func (fs *FS) ReadFile(ac *AccessContext, path string) ([]byte, errno.Errno) {
	fs.mu.RLock()
	defer fs.mu.RUnlock()
	n, e := fs.lookup(ac, path, true)
	if e != errno.OK {
		return nil, e
	}
	if n.isDir() {
		return nil, errno.EISDIR
	}
	if n.typ != TypeRegular {
		return nil, errno.EINVAL
	}
	if e := checkRead(ac, n); e != errno.OK {
		return nil, e
	}
	out := make([]byte, len(n.data))
	copy(out, n.data)
	return out, errno.OK
}

// WriteFile creates (mode, uid, gid) or truncates-and-writes a regular
// file.
func (fs *FS) WriteFile(ac *AccessContext, path string, data []byte, mode uint32, uid, gid int) errno.Errno {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if fs.readonly {
		return errno.EROFS
	}
	r, e := fs.walk(ac, path, true)
	if e != errno.OK {
		return e
	}
	var n *inode
	if r.node == nil {
		if e := checkWrite(ac, r.parent); e != errno.OK {
			return e
		}
		n = &inode{
			ino: fs.takeIno(), typ: TypeRegular, mode: mode & 0o7777,
			uid: uid, nlink: 1, mtime: fs.clock(),
		}
		fs.attach(r.parent, r.base, n, gid)
	} else {
		n = r.node
		if n.isDir() {
			return errno.EISDIR
		}
		if n.typ != TypeRegular {
			return errno.EINVAL
		}
		if e := checkWrite(ac, n); e != errno.OK {
			return e
		}
	}
	n.data = make([]byte, len(data))
	copy(n.data, data)
	n.size = int64(len(data))
	n.mtime = fs.clock()
	fs.touchData(n)
	return errno.OK
}

// AppendFile appends to an existing regular file (creating it if needed).
func (fs *FS) AppendFile(ac *AccessContext, path string, data []byte, mode uint32, uid, gid int) errno.Errno {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if fs.readonly {
		return errno.EROFS
	}
	r, e := fs.walk(ac, path, true)
	if e != errno.OK {
		return e
	}
	if r.node == nil {
		fs.mu.Unlock()
		e := fs.WriteFile(ac, path, data, mode, uid, gid)
		fs.mu.Lock()
		return e
	}
	n := r.node
	if n.typ != TypeRegular {
		return errno.EINVAL
	}
	if e := checkWrite(ac, n); e != errno.OK {
		return e
	}
	n.data = append(n.data, data...)
	n.size = int64(len(n.data))
	n.mtime = fs.clock()
	fs.touchData(n)
	return errno.OK
}
