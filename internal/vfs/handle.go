package vfs

import (
	"repro/internal/errno"
)

// Handle is an open-file reference, the analog of a struct file: permission
// is checked at open time, not per I/O, and the handle keeps working after
// the path is unlinked.
type Handle struct {
	fs       *FS
	n        *inode
	writable bool
}

// OpenFlags for Open.
type OpenFlags struct {
	Write    bool // request write access
	Create   bool // create if absent (regular file)
	Excl     bool // with Create: fail if present
	Truncate bool // truncate to zero at open
	Mode     uint32
	UID, GID int // ownership if created
}

// Open opens path.
func (fs *FS) Open(ac *AccessContext, path string, flags OpenFlags) (*Handle, errno.Errno) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	r, e := fs.walk(ac, path, true)
	if e != errno.OK {
		return nil, e
	}
	var n *inode
	if r.node == nil {
		if !flags.Create {
			return nil, errno.ENOENT
		}
		if fs.readonly {
			return nil, errno.EROFS
		}
		if e := checkWrite(ac, r.parent); e != errno.OK {
			return nil, e
		}
		n = &inode{
			ino: fs.takeIno(), typ: TypeRegular, mode: flags.Mode & 0o7777,
			uid: flags.UID, nlink: 1, mtime: fs.clock(),
		}
		fs.attach(r.parent, r.base, n, flags.GID)
	} else {
		n = r.node
		if flags.Create && flags.Excl {
			return nil, errno.EEXIST
		}
		if n.isDir() && flags.Write {
			return nil, errno.EISDIR
		}
		if flags.Write {
			if fs.readonly {
				return nil, errno.EROFS
			}
			if e := checkWrite(ac, n); e != errno.OK {
				return nil, e
			}
		} else {
			if e := checkRead(ac, n); e != errno.OK {
				return nil, e
			}
		}
		if flags.Truncate && n.typ == TypeRegular && flags.Write {
			n.data = nil
			n.size = 0
			n.mtime = fs.clock()
			fs.touchData(n)
		}
	}
	return &Handle{fs: fs, n: n, writable: flags.Write}, errno.OK
}

// ReadAt copies file bytes at off into p, returning the count; 0 at EOF.
func (h *Handle) ReadAt(p []byte, off int64) (int, errno.Errno) {
	h.fs.mu.RLock()
	defer h.fs.mu.RUnlock()
	if h.n.isDir() {
		return 0, errno.EISDIR
	}
	if off >= h.n.size {
		return 0, errno.OK
	}
	return copy(p, h.n.data[off:]), errno.OK
}

// WriteAt writes p at off, growing the file as needed.
func (h *Handle) WriteAt(p []byte, off int64) (int, errno.Errno) {
	h.fs.mu.Lock()
	defer h.fs.mu.Unlock()
	if !h.writable {
		return 0, errno.EBADF
	}
	end := off + int64(len(p))
	if end > int64(len(h.n.data)) {
		grown := make([]byte, end)
		copy(grown, h.n.data)
		h.n.data = grown
	}
	copy(h.n.data[off:], p)
	if end > h.n.size {
		h.n.size = end
	}
	h.n.mtime = h.fs.clock()
	h.fs.touchData(h.n)
	return len(p), errno.OK
}

// Truncate resizes the file.
func (h *Handle) Truncate(size int64) errno.Errno {
	h.fs.mu.Lock()
	defer h.fs.mu.Unlock()
	if !h.writable {
		return errno.EBADF
	}
	if size <= int64(len(h.n.data)) {
		h.n.data = h.n.data[:size]
	} else {
		grown := make([]byte, size)
		copy(grown, h.n.data)
		h.n.data = grown
	}
	h.n.size = size
	h.n.mtime = h.fs.clock()
	h.fs.touchData(h.n)
	return errno.OK
}

// Stat snapshots the open file's metadata (fstat).
func (h *Handle) Stat() Stat {
	h.fs.mu.RLock()
	defer h.fs.mu.RUnlock()
	return statOf(h.n)
}

// Size returns the current size.
func (h *Handle) Size() int64 {
	h.fs.mu.RLock()
	defer h.fs.mu.RUnlock()
	return h.n.size
}

// Chown is fchown(2) against the open file.
func (h *Handle) Chown(ac *AccessContext, uid, gid int) errno.Errno {
	h.fs.mu.Lock()
	defer h.fs.mu.Unlock()
	if h.fs.readonly {
		return errno.EROFS
	}
	return h.fs.chownInode(ac, h.n, uid, gid)
}
