package simos

import (
	"fmt"
	"hash/fnv"

	"repro/internal/errno"
	"repro/internal/seccomp"
	"repro/internal/sysarch"
	"repro/internal/vfs"
)

// defaultArch is the ABI new kernels boot with; tests override per process.
var defaultArch = sysarch.X8664

// fd is one open-file-descriptor slot.
type fd struct {
	h      *vfs.Handle
	off    int64
	path   string
	isDir  bool
	dir    []vfs.DirEntry
	dirPos int
}

// Proc is a simulated process. Methods named after syscalls are the
// syscall surface: every one passes through the seccomp/ptrace gate before
// (maybe) executing. Proc is not safe for concurrent use; a process is a
// single thread of control, as in the build workloads.
type Proc struct {
	k    *Kernel
	pid  int
	ppid int
	comm string

	cred  *Cred
	arch  *sysarch.Arch
	mount Mount
	cwd   string
	umask uint32

	seccomp  *seccomp.Chain
	notifier Notifier
	ptrace   *PtraceHook
	preload  []*CHook

	registry *BinaryRegistry

	fds    map[int]*fd
	nextFD int

	exited   bool
	exitCode int
}

// KilledBySeccomp is the panic payload raised when a filter returns a
// KILL_* or unhandled TRAP disposition; Exec recovers it into an exit
// status of 128+SIGSYS, the shell-visible encoding of a seccomp kill.
type KilledBySeccomp struct {
	PID     int
	Syscall string
}

func (k KilledBySeccomp) String() string {
	return fmt.Sprintf("pid %d killed by SIGSYS on %s", k.PID, k.Syscall)
}

// PID returns the process ID.
func (p *Proc) PID() int { return p.pid }

// Cred exposes the credential block, for tests and the container layer.
func (p *Proc) Cred() *Cred { return p.cred }

// SetArch switches the process ABI (tests exercising the six tables).
func (p *Proc) SetArch(a *sysarch.Arch) { p.arch = a }

// Kernel returns the owning kernel.
func (p *Proc) Kernel() *Kernel { return p.k }

// MountInfo returns the current root mount.
func (p *Proc) MountInfo() Mount { return p.mount }

// SetMount re-roots the process (the pivot_root analog used by the
// container layer; the real syscall surface is in internal/container).
func (p *Proc) SetMount(m Mount) {
	m.FS.SetClock(p.k.Now)
	p.mount = m
	p.cwd = "/"
}

// SetNotifier attaches the USER_NOTIF supervisor (ID-consistency mode).
func (p *Proc) SetNotifier(n Notifier) { p.notifier = n }

// SetPtrace attaches a ptrace supervisor (PRoot baseline). As with real
// ptrace, the supervisor sees every syscall from then on.
func (p *Proc) SetPtrace(h *PtraceHook) { p.ptrace = h }

// AddPreload appends an LD_PRELOAD-analog hook inherited by children and
// consulted by dynamically-linked binaries' libc layer (see CLib).
func (p *Proc) AddPreload(h *CHook) { p.preload = append(p.preload, h) }

// Preloads returns the preload hook chain.
func (p *Proc) Preloads() []*CHook { return p.preload }

// SeccompChain exposes the process's filter chain (tests, stats).
func (p *Proc) SeccompChain() *seccomp.Chain { return p.seccomp }

// SetRegistry attaches the binary registry execve resolves against.
func (p *Proc) SetRegistry(r *BinaryRegistry) { p.registry = r }

// --- syscall gate ---------------------------------------------------------

// enter runs the syscall through ptrace and seccomp. It returns proceed =
// false when a hook or filter disposed of the call, with the errno to
// deliver (errno.OK means "faked success"). A KILL disposition panics with
// KilledBySeccomp; Exec converts that to an exit status.
func (p *Proc) enter(name string, args ...uint64) (bool, errno.Errno) {
	p.k.counters.Syscalls.Add(1)
	p.k.vclock.charge(p.k.cost.SyscallTrap)
	if p.ptrace != nil {
		// A ptrace tracer costs two stops (entry+exit) on *every*
		// syscall, intercepted or not — the structural overhead §6(1)
		// attributes to ptrace-based emulators.
		p.k.counters.PtraceStops.Add(2)
		p.k.vclock.charge(2 * p.k.cost.PtraceStop)
		if p.ptrace.Observer != nil {
			p.ptrace.Observer(p, name, args)
		}
	}
	nr, ok := p.arch.Number(name)
	if !ok {
		p.trace(name, "", errno.ENOSYS, "")
		return false, errno.ENOSYS
	}
	if !p.seccomp.Empty() {
		p.k.counters.Filtered.Add(1)
		d := seccomp.Data{NR: int32(nr), Arch: p.arch.AuditArch}
		copy(d.Args[:], args)
		ret, steps := p.seccomp.EvaluateSteps(&d)
		p.k.vclock.charge(int64(steps) * p.k.cost.FilterPerInsn)
		switch seccomp.Action(ret) {
		case seccomp.RetAllow, seccomp.RetLog:
			// proceed
		case seccomp.RetErrnoBase:
			e := errno.Errno(seccomp.ActionData(ret))
			if e == errno.OK {
				p.k.counters.Faked.Add(1)
			}
			p.trace(name, "", e, "seccomp")
			return false, e
		case seccomp.RetUserNotif:
			p.k.counters.NotifEvents.Add(1)
			p.k.vclock.charge(p.k.cost.NotifRound)
			if p.notifier == nil {
				p.trace(name, "", errno.ENOSYS, "notif")
				return false, errno.ENOSYS
			}
			e := p.notifier.Notify(p, name, args)
			p.trace(name, "", e, "notif")
			return false, e
		default:
			p.trace(name, "", errno.EPERM, "seccomp-kill")
			panic(KilledBySeccomp{PID: p.pid, Syscall: name})
		}
	}
	return true, errno.OK
}

// ptraceClaimed charges a call a ptrace supervisor claimed and emulated
// in user space: the syscall entry and its two stops, which the kernel
// never saw through enter, and the trace event.
func (p *Proc) ptraceClaimed(name, detail string, e errno.Errno) errno.Errno {
	p.k.counters.Syscalls.Add(1)
	p.k.counters.PtraceStops.Add(2)
	p.k.vclock.charge(p.k.cost.SyscallTrap + 2*p.k.cost.PtraceStop)
	return p.trace(name, detail, e, "ptrace")
}

func (p *Proc) trace(name, detail string, e errno.Errno, handled string) errno.Errno {
	if t := p.k.Tracer; t != nil {
		t(TraceEvent{
			PID: p.pid, Comm: p.comm, Name: name, Detail: detail,
			Errno: int(e), Faked: handled == "seccomp" && e == errno.OK,
			Handled: handled,
		})
	}
	return e
}

// pathArg renders a path as a pseudo-pointer for seccomp_data: filters
// cannot dereference pointers (§4), so any stable value works; a hash keeps
// traces deterministic.
func pathArg(path string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(path))
	return h.Sum64() | 1<<63 // set a high bit so it looks like an address
}

func u64(v int) uint64 { return uint64(int64(v)) }

// abs resolves a (possibly relative) path against the cwd.
func (p *Proc) abs(path string) string {
	if path == "" {
		return p.cwd
	}
	if path[0] == '/' {
		return path
	}
	if p.cwd == "/" {
		return "/" + path
	}
	return p.cwd + "/" + path
}

// accessCtx resolves the credential into a vfs access context against the
// namespace owning the root mount's superblock. This is where "container
// root" quietly loses its powers: capabilities held in the container
// namespace do not apply to an init-namespace-owned filesystem.
func (p *Proc) accessCtx() *vfs.AccessContext {
	owner := p.mount.Owner
	c := p.cred
	return &vfs.AccessContext{
		UID: c.FSUID, GID: c.FSGID, Groups: c.Groups,
		CapDACOverride:   c.CapableIn(CapDacOverride, owner),
		CapDACReadSearch: c.CapableIn(CapDacReadSearch, owner),
		CapFowner:        c.CapableIn(CapFowner, owner),
		CapChown:         c.CapableIn(CapChown, owner),
		CapMknod:         c.CapableIn(CapMknod, owner),
		CapFsetid:        c.CapableIn(CapFsetid, owner),
		CapSetfcap:       c.CapableIn(CapSetfcap, owner),
	}
}

// viewStat translates global IDs in a stat result into the caller's
// namespace view (unmapped IDs render as OverflowUID).
func (p *Proc) viewStat(st vfs.Stat) vfs.Stat {
	st.UID = p.cred.NS.ViewUID(st.UID)
	st.GID = p.cred.NS.ViewGID(st.GID)
	return st
}
