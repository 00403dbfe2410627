package simos

import (
	"repro/internal/errno"
	"repro/internal/vfs"
)

// File-system syscalls. Each wrapper picks the syscall name the
// architecture's libc would actually issue — on i386/arm the *32 identity
// variants, on arm64 the *at forms (§5 fn. 7: "arm64 lacks chown(2),
// relying on user-space code to translate its calls to fchownat(2)") — so
// seccomp filters observe realistic per-arch numbers.

// AT_FDCWD sentinel for *at syscalls.
const AtFDCWD = -100

// OFlags selects open(2) behaviour.
type OFlags struct {
	Write    bool
	Create   bool
	Excl     bool
	Truncate bool
	Append   bool
	Mode     uint32
}

// Open opens path and returns a file descriptor.
func (p *Proc) Open(path string, flags OFlags) (int, errno.Errno) {
	full := p.abs(path)
	name := "open"
	args := []uint64{pathArg(full), 0, uint64(flags.Mode)}
	if !p.arch.Has("open") {
		name = "openat"
		args = []uint64{u64(AtFDCWD), pathArg(full), 0, uint64(flags.Mode)}
	}
	if ok, e := p.enter(name, args...); !ok {
		return -1, e
	}
	ac := p.accessCtx()
	st, se := p.mount.FS.Stat(ac, full, true)
	if se == errno.OK && st.Type == vfs.TypeDir && !flags.Write {
		// Opening a directory for read: readdir handle.
		ents, e := p.mount.FS.ReadDir(ac, full)
		if e != errno.OK {
			return -1, p.trace(name, full, e, "")
		}
		n := p.nextFD
		p.nextFD++
		p.fds[n] = &fd{path: full, isDir: true, dir: ents}
		p.trace(name, full, errno.OK, "")
		return n, errno.OK
	}
	h, e := p.mount.FS.Open(ac, full, vfs.OpenFlags{
		Write: flags.Write, Create: flags.Create, Excl: flags.Excl,
		Truncate: flags.Truncate, Mode: flags.Mode &^ p.umask,
		UID: p.cred.FSUID, GID: p.cred.FSGID,
	})
	if e != errno.OK {
		return -1, p.trace(name, full, e, "")
	}
	n := p.nextFD
	p.nextFD++
	f := &fd{h: h, path: full}
	if flags.Append {
		f.off = h.Size()
	}
	p.fds[n] = f
	p.trace(name, full, errno.OK, "")
	return n, errno.OK
}

// Close closes a descriptor.
func (p *Proc) Close(fdn int) errno.Errno {
	if ok, e := p.enter("close", u64(fdn)); !ok {
		return e
	}
	if _, ok := p.fds[fdn]; !ok {
		return p.trace("close", "", errno.EBADF, "")
	}
	delete(p.fds, fdn)
	return p.trace("close", "", errno.OK, "")
}

func (p *Proc) fdGet(fdn int) (*fd, errno.Errno) {
	f, ok := p.fds[fdn]
	if !ok {
		return nil, errno.EBADF
	}
	return f, errno.OK
}

// Read reads up to len(buf) bytes at the descriptor offset.
func (p *Proc) Read(fdn int, buf []byte) (int, errno.Errno) {
	if ok, e := p.enter("read", u64(fdn), 0, uint64(len(buf))); !ok {
		return 0, e
	}
	f, e := p.fdGet(fdn)
	if e != errno.OK {
		return 0, p.trace("read", "", e, "")
	}
	if f.isDir {
		return 0, p.trace("read", f.path, errno.EISDIR, "")
	}
	n, e := f.h.ReadAt(buf, f.off)
	if e != errno.OK {
		return 0, p.trace("read", f.path, e, "")
	}
	f.off += int64(n)
	p.trace("read", f.path, errno.OK, "")
	return n, errno.OK
}

// Write writes buf at the descriptor offset.
func (p *Proc) Write(fdn int, buf []byte) (int, errno.Errno) {
	if ok, e := p.enter("write", u64(fdn), 0, uint64(len(buf))); !ok {
		return 0, e
	}
	f, e := p.fdGet(fdn)
	if e != errno.OK {
		return 0, p.trace("write", "", e, "")
	}
	if f.h == nil {
		return 0, p.trace("write", f.path, errno.EBADF, "")
	}
	n, e := f.h.WriteAt(buf, f.off)
	if e != errno.OK {
		return 0, p.trace("write", f.path, e, "")
	}
	f.off += int64(n)
	p.trace("write", f.path, errno.OK, "")
	return n, errno.OK
}

// Fstat stats an open descriptor, namespace-translated.
func (p *Proc) Fstat(fdn int) (vfs.Stat, errno.Errno) {
	if ok, e := p.enter("fstat", u64(fdn)); !ok {
		return vfs.Stat{}, e
	}
	f, e := p.fdGet(fdn)
	if e != errno.OK {
		return vfs.Stat{}, p.trace("fstat", "", e, "")
	}
	if f.h == nil {
		st, e2 := p.mount.FS.Stat(p.accessCtx(), f.path, true)
		return p.viewStat(st), p.trace("fstat", f.path, e2, "")
	}
	p.trace("fstat", f.path, errno.OK, "")
	return p.viewStat(f.h.Stat()), errno.OK
}

// statName picks stat vs newfstatat per ABI.
func (p *Proc) statName() string {
	if p.arch.Has("stat") {
		return "stat"
	}
	return "newfstatat"
}

// Stat follows symlinks (stat(2)); the ptrace exit hook may rewrite the
// result, which is how PRoot presents its recorded ownership.
func (p *Proc) Stat(path string) (vfs.Stat, errno.Errno) {
	return p.statCommon(path, true)
}

// Lstat does not follow a trailing symlink.
func (p *Proc) Lstat(path string) (vfs.Stat, errno.Errno) {
	return p.statCommon(path, false)
}

func (p *Proc) statCommon(path string, follow bool) (vfs.Stat, errno.Errno) {
	full := p.abs(path)
	name := p.statName()
	if !follow && p.arch.Has("lstat") {
		name = "lstat"
	}
	if ok, e := p.enter(name, pathArg(full)); !ok {
		return vfs.Stat{}, e
	}
	st, e := p.mount.FS.Stat(p.accessCtx(), full, follow)
	st = p.viewStat(st)
	if p.ptrace != nil && p.ptrace.StatExit != nil {
		st, e = p.ptrace.StatExit(p, full, follow, st, e)
	}
	return st, p.trace(name, full, e, "")
}

// Mkdir creates a directory (umask applied).
func (p *Proc) Mkdir(path string, mode uint32) errno.Errno {
	full := p.abs(path)
	name := "mkdir"
	args := []uint64{pathArg(full), uint64(mode)}
	if !p.arch.Has("mkdir") {
		name = "mkdirat"
		args = []uint64{u64(AtFDCWD), pathArg(full), uint64(mode)}
	}
	if ok, e := p.enter(name, args...); !ok {
		return e
	}
	e := p.mount.FS.Mkdir(p.accessCtx(), full, mode&^p.umask, p.cred.FSUID, p.cred.FSGID)
	return p.trace(name, full, e, "")
}

// Rmdir removes an empty directory.
func (p *Proc) Rmdir(path string) errno.Errno {
	full := p.abs(path)
	name := "rmdir"
	args := []uint64{pathArg(full)}
	if !p.arch.Has("rmdir") {
		name = "unlinkat" // AT_REMOVEDIR
		args = []uint64{u64(AtFDCWD), pathArg(full), 0x200}
	}
	if ok, e := p.enter(name, args...); !ok {
		return e
	}
	e := p.mount.FS.Rmdir(p.accessCtx(), full)
	return p.trace(name, full, e, "")
}

// Unlink removes a file.
func (p *Proc) Unlink(path string) errno.Errno {
	full := p.abs(path)
	name := "unlink"
	args := []uint64{pathArg(full)}
	if !p.arch.Has("unlink") {
		name = "unlinkat"
		args = []uint64{u64(AtFDCWD), pathArg(full), 0}
	}
	if ok, e := p.enter(name, args...); !ok {
		return e
	}
	e := p.mount.FS.Unlink(p.accessCtx(), full)
	return p.trace(name, full, e, "")
}

// Rename moves a file.
func (p *Proc) Rename(oldpath, newpath string) errno.Errno {
	o, n := p.abs(oldpath), p.abs(newpath)
	name := "rename"
	args := []uint64{pathArg(o), pathArg(n)}
	if !p.arch.Has("rename") {
		name = "renameat"
		args = []uint64{u64(AtFDCWD), pathArg(o), u64(AtFDCWD), pathArg(n)}
	}
	if ok, e := p.enter(name, args...); !ok {
		return e
	}
	e := p.mount.FS.Rename(p.accessCtx(), o, n)
	return p.trace(name, o+" -> "+n, e, "")
}

// Link creates a hard link.
func (p *Proc) Link(oldpath, newpath string) errno.Errno {
	o, n := p.abs(oldpath), p.abs(newpath)
	name := "link"
	args := []uint64{pathArg(o), pathArg(n)}
	if !p.arch.Has("link") {
		name = "linkat"
		args = []uint64{u64(AtFDCWD), pathArg(o), u64(AtFDCWD), pathArg(n), 0}
	}
	if ok, e := p.enter(name, args...); !ok {
		return e
	}
	e := p.mount.FS.Link(p.accessCtx(), o, n)
	return p.trace(name, o+" -> "+n, e, "")
}

// Symlink creates a symbolic link at newpath pointing to target.
func (p *Proc) Symlink(target, newpath string) errno.Errno {
	n := p.abs(newpath)
	name := "symlink"
	args := []uint64{pathArg(target), pathArg(n)}
	if !p.arch.Has("symlink") {
		name = "symlinkat"
		args = []uint64{pathArg(target), u64(AtFDCWD), pathArg(n)}
	}
	if ok, e := p.enter(name, args...); !ok {
		return e
	}
	e := p.mount.FS.Symlink(p.accessCtx(), target, n, p.cred.FSUID, p.cred.FSGID)
	return p.trace(name, target+" <- "+n, e, "")
}

// Readlink reads a symlink target.
func (p *Proc) Readlink(path string) (string, errno.Errno) {
	full := p.abs(path)
	name := "readlink"
	args := []uint64{pathArg(full)}
	if !p.arch.Has("readlink") {
		name = "readlinkat"
		args = []uint64{u64(AtFDCWD), pathArg(full)}
	}
	if ok, e := p.enter(name, args...); !ok {
		return "", e
	}
	t, e := p.mount.FS.Readlink(p.accessCtx(), full)
	return t, p.trace(name, full, e, "")
}

// Chmod changes permissions.
func (p *Proc) Chmod(path string, mode uint32) errno.Errno {
	full := p.abs(path)
	name := "chmod"
	args := []uint64{pathArg(full), uint64(mode)}
	if !p.arch.Has("chmod") {
		name = "fchmodat"
		args = []uint64{u64(AtFDCWD), pathArg(full), uint64(mode)}
	}
	if ok, e := p.enter(name, args...); !ok {
		return e
	}
	e := p.mount.FS.Chmod(p.accessCtx(), full, mode, true)
	return p.trace(name, full, e, "")
}

// Access probes permissions (mask: 4 read, 2 write, 1 exec).
func (p *Proc) Access(path string, mask uint32) errno.Errno {
	full := p.abs(path)
	name := "access"
	args := []uint64{pathArg(full), uint64(mask)}
	if !p.arch.Has("access") {
		name = "faccessat"
		args = []uint64{u64(AtFDCWD), pathArg(full), uint64(mask)}
	}
	if ok, e := p.enter(name, args...); !ok {
		return e
	}
	e := p.mount.FS.Access(p.accessCtx(), full, mask)
	return p.trace(name, full, e, "")
}

// Chdir changes the working directory.
func (p *Proc) Chdir(path string) errno.Errno {
	full := p.abs(path)
	if ok, e := p.enter("chdir", pathArg(full)); !ok {
		return e
	}
	st, e := p.mount.FS.Stat(p.accessCtx(), full, true)
	if e != errno.OK {
		return p.trace("chdir", full, e, "")
	}
	if st.Type != vfs.TypeDir {
		return p.trace("chdir", full, errno.ENOTDIR, "")
	}
	p.cwd = full
	return p.trace("chdir", full, errno.OK, "")
}

// Getcwd returns the working directory.
func (p *Proc) Getcwd() (string, errno.Errno) {
	if ok, e := p.enter("getcwd", 0, 0); !ok {
		return "", e
	}
	return p.cwd, p.trace("getcwd", p.cwd, errno.OK, "")
}

// Umask sets the file-creation mask, returning the previous one.
func (p *Proc) Umask(mask uint32) uint32 {
	old := p.umask
	if ok, _ := p.enter("umask", uint64(mask)); !ok {
		return old
	}
	p.umask = mask & 0o777
	p.trace("umask", "", errno.OK, "")
	return old
}

// ReadDir lists a directory (the getdents analog; the fd-based variant is
// Open+Getdents).
func (p *Proc) ReadDir(path string) ([]vfs.DirEntry, errno.Errno) {
	fdn, e := p.Open(path, OFlags{})
	if e != errno.OK {
		return nil, e
	}
	defer p.Close(fdn)
	return p.Getdents(fdn)
}

// Getdents returns the remaining entries of an open directory.
func (p *Proc) Getdents(fdn int) ([]vfs.DirEntry, errno.Errno) {
	f, e := p.fdGet(fdn)
	if e != errno.OK {
		return nil, e
	}
	if !f.isDir {
		return nil, errno.ENOTDIR
	}
	out := f.dir[f.dirPos:]
	f.dirPos = len(f.dir)
	return out, errno.OK
}

// Utimens updates timestamps.
func (p *Proc) Utimens(path string) errno.Errno {
	full := p.abs(path)
	if ok, e := p.enter("utimensat", u64(AtFDCWD), pathArg(full)); !ok {
		return e
	}
	e := p.mount.FS.Utimens(p.accessCtx(), full, 0, true)
	return p.trace("utimensat", full, e, "")
}

// --- ownership and nodes: the filtered classes ---------------------------

// Chown follows symlinks, routed as libc would: chown32 on legacy 32-bit
// ABIs, fchownat where chown does not exist.
func (p *Proc) Chown(path string, uid, gid int) errno.Errno { return p.chown(path, uid, gid, true) }

// Lchown does not follow a trailing symlink; it routes like Chown, to
// lchown32, lchown or fchownat with AT_SYMLINK_NOFOLLOW.
func (p *Proc) Lchown(path string, uid, gid int) errno.Errno { return p.chown(path, uid, gid, false) }

func (p *Proc) chown(path string, uid, gid int, follow bool) errno.Errno {
	full := p.abs(path)
	name, name32, flags := "chown", "chown32", uint64(0)
	if !follow {
		name, name32, flags = "lchown", "lchown32", 0x100 // AT_SYMLINK_NOFOLLOW
	}
	if p.arch.Has(name32) {
		name = name32
	}
	var args []uint64
	if p.arch.Has(name) {
		args = []uint64{pathArg(full), u64(uid), u64(gid)}
	} else {
		name, args = "fchownat", []uint64{u64(AtFDCWD), pathArg(full), u64(uid), u64(gid), flags}
	}
	return p.chownGate(name, args, full, uid, gid, follow)
}

// Fchownat is the modern entry point, used directly by rpm's cpio layer.
func (p *Proc) Fchownat(dirfd int, path string, uid, gid int, flags uint32) errno.Errno {
	full := p.abs(path) // dirfd handling beyond AT_FDCWD is not needed by the workloads
	args := []uint64{u64(dirfd), pathArg(full), u64(uid), u64(gid), uint64(flags)}
	return p.chownGate("fchownat", args, full, uid, gid, flags&0x100 == 0)
}

// Fchown operates on an open descriptor.
func (p *Proc) Fchown(fdn int, uid, gid int) errno.Errno {
	name := "fchown"
	if p.arch.Has("fchown32") {
		name = "fchown32"
	}
	if ok, e := p.enter(name, u64(fdn), u64(uid), u64(gid)); !ok {
		return e
	}
	f, e := p.fdGet(fdn)
	if e != errno.OK {
		return p.trace(name, "", e, "")
	}
	kuid, kgid, e := p.translateChownIDs(uid, gid)
	if e != errno.OK {
		return p.trace(name, f.path, e, "")
	}
	if f.h == nil {
		return p.trace(name, f.path, errno.EBADF, "")
	}
	e = f.h.Chown(p.accessCtx(), kuid, kgid)
	return p.trace(name, f.path, e, "")
}

func (p *Proc) chownGate(name string, args []uint64, full string, uid, gid int, follow bool) errno.Errno {
	if p.ptrace != nil && p.ptrace.Chown != nil {
		if e, handled := p.ptrace.Chown(p, full, uid, gid, follow); handled {
			return p.ptraceClaimed(name, full, e)
		}
	}
	if ok, e := p.enter(name, args...); !ok {
		return e
	}
	kuid, kgid, e := p.translateChownIDs(uid, gid)
	if e != errno.OK {
		return p.trace(name, full, e, "")
	}
	e = p.mount.FS.Chown(p.accessCtx(), full, kuid, kgid, follow)
	return p.trace(name, full, e, "")
}

// translateChownIDs maps namespace-local chown targets to global IDs;
// unmapped IDs are EINVAL — the make_kuid failure of Figure 1b.
func (p *Proc) translateChownIDs(uid, gid int) (int, int, errno.Errno) {
	kuid, uok := uidKind.argToGlobal(p.cred.NS, uid)
	kgid, gok := gidKind.argToGlobal(p.cred.NS, gid)
	if !uok || !gok {
		return 0, 0, errno.EINVAL
	}
	return kuid, kgid, errno.OK
}

// Mknod creates a node; mode carries S_IF* type bits. The mode travels in
// args[1] (mknod) or args[2] (mknodat) — the argument the paper's filter
// inspects.
func (p *Proc) Mknod(path string, mode uint32, dev vfs.Dev) errno.Errno {
	full := p.abs(path)
	var name string
	var args []uint64
	if p.arch.Has("mknod") {
		name, args = "mknod", []uint64{pathArg(full), uint64(mode), uint64(dev)}
	} else {
		name, args = "mknodat", []uint64{u64(AtFDCWD), pathArg(full), uint64(mode), uint64(dev)}
	}
	if p.ptrace != nil && p.ptrace.Mknod != nil {
		if e, handled := p.ptrace.Mknod(p, full, mode, dev); handled {
			return p.ptraceClaimed(name, full, e)
		}
	}
	if ok, e := p.enter(name, args...); !ok {
		return e
	}
	typ, ok := vfs.TypeFromMode(mode)
	if !ok || typ == vfs.TypeDir || typ == vfs.TypeSymlink {
		return p.trace(name, full, errno.EINVAL, "")
	}
	e := p.mount.FS.Mknod(p.accessCtx(), full, typ, mode&^p.umask, dev, p.cred.FSUID, p.cred.FSGID)
	return p.trace(name, full, e, "")
}

// --- xattrs ---------------------------------------------------------------

// Setxattr sets an extended attribute (following symlinks).
func (p *Proc) Setxattr(path, attr string, value []byte) errno.Errno {
	full := p.abs(path)
	if ok, e := p.enter("setxattr", pathArg(full), pathArg(attr), 0, uint64(len(value))); !ok {
		return e
	}
	e := p.mount.FS.SetXattr(p.accessCtx(), full, attr, value, true)
	return p.trace("setxattr", full+" "+attr, e, "")
}

// Lsetxattr sets an attribute without following a trailing symlink.
func (p *Proc) Lsetxattr(path, attr string, value []byte) errno.Errno {
	full := p.abs(path)
	if ok, e := p.enter("lsetxattr", pathArg(full), pathArg(attr), 0, uint64(len(value))); !ok {
		return e
	}
	e := p.mount.FS.SetXattr(p.accessCtx(), full, attr, value, false)
	return p.trace("lsetxattr", full+" "+attr, e, "")
}

// Getxattr reads an attribute.
func (p *Proc) Getxattr(path, attr string) ([]byte, errno.Errno) {
	full := p.abs(path)
	if ok, e := p.enter("getxattr", pathArg(full), pathArg(attr)); !ok {
		return nil, e
	}
	v, e := p.mount.FS.GetXattr(p.accessCtx(), full, attr, true)
	return v, p.trace("getxattr", full+" "+attr, e, "")
}

// Listxattr lists attribute names.
func (p *Proc) Listxattr(path string) ([]string, errno.Errno) {
	full := p.abs(path)
	if ok, e := p.enter("listxattr", pathArg(full)); !ok {
		return nil, e
	}
	v, e := p.mount.FS.ListXattr(p.accessCtx(), full, true)
	return v, p.trace("listxattr", full, e, "")
}

// Removexattr deletes an attribute.
func (p *Proc) Removexattr(path, attr string) errno.Errno {
	full := p.abs(path)
	if ok, e := p.enter("removexattr", pathArg(full), pathArg(attr)); !ok {
		return e
	}
	e := p.mount.FS.RemoveXattr(p.accessCtx(), full, attr, true)
	return p.trace("removexattr", full+" "+attr, e, "")
}

// --- convenience (libc-level, still syscall-accurate) ---------------------

// ReadFileAll opens, reads fully, closes — three-plus syscalls like a real
// cat.
func (p *Proc) ReadFileAll(path string) ([]byte, errno.Errno) {
	fdn, e := p.Open(path, OFlags{})
	if e != errno.OK {
		return nil, e
	}
	defer p.Close(fdn)
	var out []byte
	buf := make([]byte, 64*1024)
	for {
		n, e := p.Read(fdn, buf)
		if e != errno.OK {
			return nil, e
		}
		if n == 0 {
			return out, errno.OK
		}
		out = append(out, buf[:n]...)
	}
}

// WriteFileAll creates/truncates and writes data.
func (p *Proc) WriteFileAll(path string, data []byte, mode uint32) errno.Errno {
	fdn, e := p.Open(path, OFlags{Write: true, Create: true, Truncate: true, Mode: mode})
	if e != errno.OK {
		return e
	}
	defer p.Close(fdn)
	for len(data) > 0 {
		n, e := p.Write(fdn, data)
		if e != errno.OK {
			return e
		}
		data = data[n:]
	}
	return errno.OK
}

// Lseek whence values.
const (
	SeekSet = 0
	SeekCur = 1
	SeekEnd = 2
)

// Lseek repositions a descriptor offset.
func (p *Proc) Lseek(fdn int, off int64, whence int) (int64, errno.Errno) {
	if ok, e := p.enter("lseek", u64(fdn), uint64(off), u64(whence)); !ok {
		return -1, e
	}
	f, e := p.fdGet(fdn)
	if e != errno.OK {
		return -1, p.trace("lseek", "", e, "")
	}
	if f.isDir {
		return -1, p.trace("lseek", f.path, errno.EISDIR, "")
	}
	var base int64
	switch whence {
	case SeekSet:
		base = 0
	case SeekCur:
		base = f.off
	case SeekEnd:
		base = f.h.Size()
	default:
		return -1, p.trace("lseek", f.path, errno.EINVAL, "")
	}
	pos := base + off
	if pos < 0 {
		return -1, p.trace("lseek", f.path, errno.EINVAL, "")
	}
	f.off = pos
	p.trace("lseek", f.path, errno.OK, "")
	return pos, errno.OK
}
