package simos

import (
	"repro/internal/errno"
	"repro/internal/seccomp"
)

// Miscellaneous syscalls: namespaces, prctl, seccomp installation, and the
// self-test vehicle kexec_load.

// prctl option numbers used.
const (
	PrSetNoNewPrivs = 38
	PrGetNoNewPrivs = 39
)

// Prctl implements the two no_new_privs options, the prerequisite for
// unprivileged filter installation.
func (p *Proc) Prctl(option int, arg uint64) (int, errno.Errno) {
	if ok, e := p.enter("prctl", u64(option), arg); !ok {
		return -1, e
	}
	switch option {
	case PrSetNoNewPrivs:
		if arg != 1 {
			return -1, p.trace("prctl", "NO_NEW_PRIVS", errno.EINVAL, "")
		}
		p.cred.NoNewPrivs = true
		return 0, p.trace("prctl", "NO_NEW_PRIVS=1", errno.OK, "")
	case PrGetNoNewPrivs:
		p.trace("prctl", "GET_NO_NEW_PRIVS", errno.OK, "")
		if p.cred.NoNewPrivs {
			return 1, errno.OK
		}
		return 0, errno.OK
	}
	return -1, p.trace("prctl", "", errno.EINVAL, "")
}

// SeccompInstall loads a filter onto the process, enforcing the kernel's
// precondition: no_new_privs set, or CAP_SYS_ADMIN in the *current* user
// namespace. Once installed the filter also applies to this very syscall's
// successors and to all children (§4: it "binds program children whether
// they like it or not").
func (p *Proc) SeccompInstall(f *seccomp.Filter) errno.Errno {
	if ok, e := p.enter("seccomp", 1 /* SECCOMP_SET_MODE_FILTER */, 0, 0); !ok {
		return e
	}
	if !p.cred.NoNewPrivs && !p.cred.Capable(CapSysAdmin) {
		return p.trace("seccomp", f.Name(), errno.EACCES, "")
	}
	p.seccomp.Install(f)
	return p.trace("seccomp", f.Name(), errno.OK, "")
}

// KexecLoad implements kexec_load(2) as far as the build world cares:
// CAP_SYS_BOOT in the *init* namespace or EPERM. No container process ever
// has that, which is exactly why the paper picked it for the filter
// self-test — a faked success is unambiguous (§5 class 4).
func (p *Proc) KexecLoad() errno.Errno {
	if ok, e := p.enter("kexec_load", 0, 0, 0, 0); !ok {
		return e
	}
	if !p.cred.CapableIn(CapSysBoot, p.k.initNS) {
		return p.trace("kexec_load", "", errno.EPERM, "")
	}
	// A real success would reboot the machine; the simulation stops short.
	return p.trace("kexec_load", "", errno.OK, "")
}

// UnshareUser implements unshare(CLONE_NEWUSER): a new namespace owned by
// the caller's global EUID, full capabilities inside it, maps initially
// unwritten. Requires no privilege — the foundation of Type III containers.
func (p *Proc) UnshareUser() errno.Errno {
	const cloneNewuser = 0x10000000
	if ok, e := p.enter("unshare", cloneNewuser); !ok {
		return e
	}
	ns := &UserNS{
		name:     p.k.newNSName(),
		parent:   p.cred.NS,
		level:    p.cred.NS.level + 1,
		ownerUID: p.cred.EUID,
	}
	if ns.level > 32 { // kernel limit
		return p.trace("unshare", "CLONE_NEWUSER", errno.EPERM, "")
	}
	p.cred.NS = ns
	p.cred.CapEffective = CapFull
	p.cred.CapPermitted = CapFull
	p.cred.CapBounding = CapFull
	return p.trace("unshare", "CLONE_NEWUSER", errno.OK, "")
}

// WriteUIDMap models writing /proc/self/uid_map. The privileged path (for
// Type II setups via newuidmap) requires CAP_SETUID in the parent
// namespace, which the helper — not the user — holds.
func (p *Proc) WriteUIDMap(entries []MapRange) errno.Errno {
	return p.writeMap(uidKind, "/proc/self/uid_map", entries)
}

// WriteGIDMap models writing /proc/self/gid_map.
func (p *Proc) WriteGIDMap(entries []MapRange) errno.Errno {
	return p.writeMap(gidKind, "/proc/self/gid_map", entries)
}

func (p *Proc) writeMap(k idKind, file string, entries []MapRange) errno.Errno {
	ns := p.cred.NS
	if ns.parent == nil {
		return errno.EPERM // cannot rewrite the init map
	}
	_, writer, _, _ := k.quartet(p.cred)
	e := ns.writeMap(k, entries, *writer, p.cred.CapableIn(k.capability(), ns.parent))
	p.trace("write", file, e, "")
	return e
}

// DenySetgroups models writing "deny" to /proc/self/setgroups, required
// before an unprivileged gid_map write.
func (p *Proc) DenySetgroups() errno.Errno {
	ns := p.cred.NS
	if ns.parent == nil {
		return errno.EPERM
	}
	e := ns.denySetgroups()
	p.trace("write", "/proc/self/setgroups", e, "")
	return e
}

// HelperWriteMaps installs multi-range ID maps on p's namespace the way
// the setuid-root helpers newuidmap(1)/newgidmap(1) do: with
// CAP_SETUID/CAP_SETGID in the parent namespace, regardless of the
// caller's own credentials. This is the privileged step that makes Type II
// containers "rootless" in name only (§2).
func HelperWriteMaps(p *Proc, uidMaps, gidMaps []MapRange) error {
	ns := p.cred.NS
	if ns.parent == nil {
		return errno.EPERM
	}
	if e := ns.writeMap(uidKind, uidMaps, p.cred.EUID, true); e != errno.OK {
		return e
	}
	if e := ns.writeMap(gidKind, gidMaps, p.cred.EGID, true); e != errno.OK {
		return e
	}
	return nil
}

// Getpid returns the process ID.
func (p *Proc) Getpid() int {
	if ok, _ := p.enter("getpid"); !ok {
		return -1
	}
	p.trace("getpid", "", errno.OK, "")
	return p.pid
}

// Getppid returns the parent's PID.
func (p *Proc) Getppid() int {
	if ok, _ := p.enter("getppid"); !ok {
		return -1
	}
	p.trace("getppid", "", errno.OK, "")
	return p.ppid
}

// Uname reports a fixed utsname for the simulated machine.
func (p *Proc) Uname() (sysname, release, machine string, e errno.Errno) {
	if ok, e2 := p.enter("uname", 0); !ok {
		return "", "", "", e2
	}
	p.trace("uname", "", errno.OK, "")
	return "Linux", "6.1.0-sim", p.arch.Name, errno.OK
}

// Exit records the exit status; the binary function should return
// immediately after.
func (p *Proc) Exit(code int) {
	if ok, _ := p.enter("exit_group", u64(code)); !ok {
		return
	}
	p.exited = true
	p.exitCode = code
	p.trace("exit_group", "", errno.OK, "")
}

// Exited reports whether Exit was called, and the status.
func (p *Proc) Exited() (bool, int) { return p.exited, p.exitCode }
