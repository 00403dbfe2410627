package simos

import (
	"repro/internal/errno"
	"repro/internal/vfs"
)

// Hook types for the three emulation mechanisms the paper compares (§3, §6):
//
//   - Notifier: the SECCOMP_RET_USER_NOTIF supervisor, used by the
//     ID-consistency extension (future work 2). One round trip per
//     intercepted syscall.
//
//   - PtraceHook: the ptrace(2) analog (PRoot, ptrace-based fakeroot).
//     Attaching a tracer costs two stop events on *every* syscall; hooked
//     calls are emulated entirely in "user space" (the supervisor), which
//     is where consistent emulators keep their ownership database.
//
//   - CHook: the LD_PRELOAD analog (fakeroot, fakechroot). Interception
//     happens in libc wrappers, so it is invisible to statically linked
//     binaries — the compatibility gap §6(3) calls out.

// Notifier answers USER_NOTIF dispositions. The returned errno is
// delivered to the caller (OK = fake success).
type Notifier interface {
	Notify(p *Proc, syscall string, args []uint64) errno.Errno
}

// NotifierFunc adapts a function to Notifier.
type NotifierFunc func(p *Proc, syscall string, args []uint64) errno.Errno

// Notify implements Notifier.
func (f NotifierFunc) Notify(p *Proc, syscall string, args []uint64) errno.Errno {
	return f(p, syscall, args)
}

// PtraceHook is a ptrace supervisor. Nil fields fall through to the
// kernel; non-nil fields may claim the call (handled=true) and supply the
// result. Observer, if set, sees every syscall (the per-call stop cost is
// charged regardless).
type PtraceHook struct {
	Name string

	// Observer is called at each syscall entry (after the stop cost is
	// charged). For PRoot this is where unhooked calls get waved through.
	Observer func(p *Proc, name string, args []uint64)

	// Chown intercepts the chown family (path resolved, follow decoded).
	Chown func(p *Proc, path string, uid, gid int, follow bool) (errno.Errno, bool)

	// Mknod intercepts mknod/mknodat.
	Mknod func(p *Proc, path string, mode uint32, dev vfs.Dev) (errno.Errno, bool)

	// StatExit rewrites stat results at syscall exit — how a consistent
	// emulator shows its recorded ownership back to the process.
	StatExit func(p *Proc, path string, follow bool, st vfs.Stat, e errno.Errno) (vfs.Stat, errno.Errno)

	// GetID intercepts get[e]uid/get[e]gid and the getres* triples,
	// returning the fake real/effective/saved identity; the kernel picks
	// the field the call reports.
	GetID func(p *Proc, name string) ([3]int, bool)

	// SetID intercepts the set*id family. args carries the syscall's id
	// arguments verbatim ([uid], [r,e] or [r,e,s]; -1 means keep), the
	// same shape CHook.SetID receives.
	SetID func(p *Proc, name string, args []int) (errno.Errno, bool)
}

// CHook is an LD_PRELOAD-style libc interposer: optional overrides for the
// wrapper functions the consistent emulators hook. A nil field passes
// through. Hooks receive the CLib so they can chain to the real syscall.
type CHook struct {
	Name string

	Chown  func(c *CLib, path string, uid, gid int, follow bool) (errno.Errno, bool)
	Fchown func(c *CLib, fdn int, uid, gid int) (errno.Errno, bool)
	Stat   func(c *CLib, path string, follow bool) (vfs.Stat, errno.Errno, bool)
	Mknod  func(c *CLib, path string, mode uint32, dev vfs.Dev) (errno.Errno, bool)
	GetID  func(c *CLib, name string) (int, bool)
	SetID  func(c *CLib, name string, args []int) (errno.Errno, bool)
	Chmod  func(c *CLib, path string, mode uint32) (errno.Errno, bool)
}

// CLib is the "libc" a binary was linked against: a thin wrapper over the
// process's syscalls that consults the preload chain first — unless the
// binary is static, in which case Exec builds a CLib with no hooks and the
// preload emulator silently loses (fakeroot's documented failure mode).
type CLib struct {
	P     *Proc
	Hooks []*CHook // nil for static binaries
}

func (c *CLib) hit() {
	c.P.k.counters.PreloadHits.Add(1)
	c.P.k.vclock.charge(c.P.k.cost.PreloadIPC)
}

// intercept offers a call to the preload chain in order and reports
// whether a hook claimed it; claim asks one hook and records its answer.
// A claimed call costs one preload hit.
func (c *CLib) intercept(claim func(h *CHook) bool) bool {
	for _, h := range c.Hooks {
		if claim(h) {
			c.hit()
			return true
		}
	}
	return false
}

// Chown follows symlinks.
func (c *CLib) Chown(path string, uid, gid int) errno.Errno { return c.chown(path, uid, gid, true) }

// Lchown does not follow.
func (c *CLib) Lchown(path string, uid, gid int) errno.Errno { return c.chown(path, uid, gid, false) }

func (c *CLib) chown(path string, uid, gid int, follow bool) (e errno.Errno) {
	if c.intercept(func(h *CHook) (ok bool) {
		if h.Chown != nil {
			e, ok = h.Chown(c, c.P.abs(path), uid, gid, follow)
		}
		return ok
	}) {
		return e
	}
	return c.P.chown(path, uid, gid, follow)
}

// Fchown operates on a descriptor.
func (c *CLib) Fchown(fdn int, uid, gid int) (e errno.Errno) {
	if c.intercept(func(h *CHook) (ok bool) {
		if h.Fchown != nil {
			e, ok = h.Fchown(c, fdn, uid, gid)
		}
		return ok
	}) {
		return e
	}
	return c.P.Fchown(fdn, uid, gid)
}

// Stat follows symlinks.
func (c *CLib) Stat(path string) (vfs.Stat, errno.Errno) { return c.stat(path, true) }

// Lstat does not follow.
func (c *CLib) Lstat(path string) (vfs.Stat, errno.Errno) { return c.stat(path, false) }

func (c *CLib) stat(path string, follow bool) (st vfs.Stat, e errno.Errno) {
	if c.intercept(func(h *CHook) (ok bool) {
		if h.Stat != nil {
			st, e, ok = h.Stat(c, c.P.abs(path), follow)
		}
		return ok
	}) {
		return st, e
	}
	return c.P.statCommon(path, follow)
}

// Mknod creates nodes.
func (c *CLib) Mknod(path string, mode uint32, dev vfs.Dev) (e errno.Errno) {
	if c.intercept(func(h *CHook) (ok bool) {
		if h.Mknod != nil {
			e, ok = h.Mknod(c, c.P.abs(path), mode, dev)
		}
		return ok
	}) {
		return e
	}
	return c.P.Mknod(path, mode, dev)
}

// Chmod changes permissions.
func (c *CLib) Chmod(path string, mode uint32) (e errno.Errno) {
	if c.intercept(func(h *CHook) (ok bool) {
		if h.Chmod != nil {
			e, ok = h.Chmod(c, c.P.abs(path), mode)
		}
		return ok
	}) {
		return e
	}
	return c.P.Chmod(path, mode)
}

// Getuid consults identity hooks (fakeroot reports uid 0).
func (c *CLib) Getuid() int { return c.getID("getuid", c.P.Getuid) }

// Geteuid consults identity hooks.
func (c *CLib) Geteuid() int { return c.getID("geteuid", c.P.Geteuid) }

func (c *CLib) getID(name string, sys func() int) (v int) {
	if c.intercept(func(h *CHook) (ok bool) {
		if h.GetID != nil {
			v, ok = h.GetID(c, name)
		}
		return ok
	}) {
		return v
	}
	return sys()
}

// Setuid consults identity hooks.
func (c *CLib) Setuid(uid int) errno.Errno {
	return c.setID("setuid", [3]int{uid}, 1, func() errno.Errno { return c.P.Setuid(uid) })
}

// Setresuid consults identity hooks.
func (c *CLib) Setresuid(r, e, s int) errno.Errno {
	return c.setID("setresuid", [3]int{r, e, s}, 3, func() errno.Errno { return c.P.Setresuid(r, e, s) })
}

// setID offers a set*id call to the identity hooks, which see its first
// n ids, before sys makes it.
func (c *CLib) setID(name string, ids [3]int, n int, sys func() errno.Errno) (e errno.Errno) {
	if c.intercept(func(h *CHook) (ok bool) {
		if h.SetID != nil {
			args := ids
			e, ok = h.SetID(c, name, args[:n])
		}
		return ok
	}) {
		return e
	}
	return sys()
}
