package simos

import (
	"repro/internal/errno"
)

// Identity syscalls — the paper's class 2 (19 syscalls). All take and
// return namespace-local IDs, translating at the boundary; unmapped inputs
// are EINVAL, exactly the failure apt's privilege drop hits in a
// single-mapping Type III container.

// idSysname picks the *32 variant where the ABI has one (what glibc does
// on i386/arm).
func (p *Proc) idSysname(generic string) string {
	if p.arch.Has(generic + "32") {
		return generic + "32"
	}
	return generic
}

// idKind is what separates a uid call from its gid twin: the capability
// a change needs, the namespace map and view it translates through
// (UserNS.idMap), the real/effective/saved/fs quartet it reads and
// writes, and whether a change re-derives capabilities. Each credential
// rule below is written once, over a kind.
type idKind int

const (
	uidKind idKind = iota
	gidKind
)

// capability is what lets a change bypass the rule's allowed-ID checks.
func (k idKind) capability() Capability {
	if k == gidKind {
		return CapSetgid
	}
	return CapSetuid
}

// argToGlobal translates an ID argument where -1 means "keep"; !ok
// means the ID is unmapped.
func (k idKind) argToGlobal(ns *UserNS, id int) (int, bool) {
	if id == -1 {
		return -1, true
	}
	return ns.toGlobal(k, id)
}

// quartet returns c's real, effective, saved and fs IDs of kind k.
func (k idKind) quartet(c *Cred) (r, e, s, fs *int) {
	if k == gidKind {
		return &c.RGID, &c.EGID, &c.SGID, &c.FSGID
	}
	return &c.RUID, &c.EUID, &c.SUID, &c.FSUID
}

// dropsCaps reports whether a change re-derives capabilities: only uid
// changes do (cap_emulate_setxuid).
func (k idKind) dropsCaps() bool { return k == uidKind }

// Getuid returns the real UID in the caller's namespace view.
func (p *Proc) Getuid() int { return p.getID("getuid", uidKind, false) }

// Geteuid returns the effective UID view.
func (p *Proc) Geteuid() int { return p.getID("geteuid", uidKind, true) }

// Getgid returns the real GID view.
func (p *Proc) Getgid() int { return p.getID("getgid", gidKind, false) }

// Getegid returns the effective GID view.
func (p *Proc) Getegid() int { return p.getID("getegid", gidKind, true) }

// getID returns the real (or effective) ID of kind k.
func (p *Proc) getID(name string, k idKind, effective bool) int {
	if ids, handled := p.consultGetID(name); handled {
		if effective {
			return ids[1]
		}
		return ids[0]
	}
	if ok, _ := p.enter(p.idSysname(name)); !ok {
		return OverflowUID
	}
	p.trace(name, "", errno.OK, "")
	r, e, _, _ := k.quartet(p.cred)
	if effective {
		r = e
	}
	return p.cred.NS.view(k, *r)
}

// consultGetID lets a ptrace supervisor (PRoot with fake-id mode) claim
// get*id calls and substitute its own real/effective/saved triple
// (typically all 0: "you are root").
func (p *Proc) consultGetID(name string) ([3]int, bool) {
	if p.ptrace != nil && p.ptrace.GetID != nil {
		if ids, handled := p.ptrace.GetID(p, name); handled {
			p.ptraceClaimed(name, "", errno.OK)
			return ids, true
		}
	}
	return [3]int{}, false
}

// Getresuid returns the real/effective/saved UID views — apt's
// verification call. A ptrace supervisor with fake-id mode (PRoot) may
// claim it and report the triple its earlier faked set*id calls left.
func (p *Proc) Getresuid() (r, e, s int, err errno.Errno) { return p.getresID("getresuid", uidKind) }

// Getresgid returns the GID triple views.
func (p *Proc) Getresgid() (r, e, s int, err errno.Errno) { return p.getresID("getresgid", gidKind) }

func (p *Proc) getresID(name string, k idKind) (r, e, s int, err errno.Errno) {
	if ids, ok := p.consultGetID(name); ok {
		return ids[0], ids[1], ids[2], errno.OK
	}
	if ok, e2 := p.enter(name, 0, 0, 0); !ok {
		return 0, 0, 0, e2
	}
	p.trace(name, "", errno.OK, "")
	ns := p.cred.NS
	kr, ke, ks, _ := k.quartet(p.cred)
	return ns.view(k, *kr), ns.view(k, *ke), ns.view(k, *ks), errno.OK
}

// Getgroups returns supplementary groups as namespace views.
func (p *Proc) Getgroups() ([]int, errno.Errno) {
	if ok, e := p.enter("getgroups", uint64(len(p.cred.Groups))); !ok {
		return nil, e
	}
	p.trace("getgroups", "", errno.OK, "")
	out := make([]int, len(p.cred.Groups))
	for i, g := range p.cred.Groups {
		out[i] = p.cred.NS.ViewGID(g)
	}
	return out, errno.OK
}

// Setuid implements setuid(2): with CAP_SETUID all four UIDs change;
// otherwise uid must equal the real or saved UID and only the effective
// (and fs) UID changes.
func (p *Proc) Setuid(uid int) errno.Errno { return p.setID("setuid", uidKind, uid) }

// Setgid implements setgid(2) with the analogous rules.
func (p *Proc) Setgid(gid int) errno.Errno { return p.setID("setgid", gidKind, gid) }

func (p *Proc) setID(generic string, k idKind, id int) errno.Errno {
	name := p.idSysname(generic)
	if e, handled := p.consultSetID(name, []int{id}); handled {
		return e
	}
	if ok, e := p.enter(name, u64(id)); !ok {
		return e
	}
	kid, ok := p.cred.NS.toGlobal(k, id)
	if !ok {
		return p.trace(name, "", errno.EINVAL, "")
	}
	r, e, s, fs := k.quartet(p.cred)
	if p.cred.Capable(k.capability()) {
		*r, *e, *s, *fs = kid, kid, kid, kid
		if k.dropsCaps() {
			p.maybeDropCaps()
		}
	} else if kid == *r || kid == *s {
		*e, *fs = kid, kid
	} else {
		return p.trace(name, "", errno.EPERM, "")
	}
	return p.trace(name, "", errno.OK, "")
}

// Setresuid implements setresuid(2); -1 keeps a field. This is the exact
// call apt's sandbox uses to become _apt. A ptrace supervisor (PRoot)
// may claim it and fake the drop in user space.
func (p *Proc) Setresuid(ruid, euid, suid int) errno.Errno {
	return p.setresID("setresuid", uidKind, ruid, euid, suid)
}

// Setresgid implements setresgid(2).
func (p *Proc) Setresgid(rgid, egid, sgid int) errno.Errno {
	return p.setresID("setresgid", gidKind, rgid, egid, sgid)
}

// Setreuid implements setreuid(2).
func (p *Proc) Setreuid(ruid, euid int) errno.Errno {
	return p.setresID("setreuid", uidKind, ruid, euid)
}

// Setregid implements setregid(2).
func (p *Proc) Setregid(rgid, egid int) errno.Errno {
	return p.setresID("setregid", gidKind, rgid, egid)
}

// setresID implements setres[ug]id(2) over ids (real, effective, saved);
// -1 keeps a field. setre[ug]id(2) passes two ids and so follows the
// setres rules with the saved ID unchanged, close enough to the kernel's
// (which also updates it in some transitions).
func (p *Proc) setresID(generic string, k idKind, ids ...int) errno.Errno {
	name := p.idSysname(generic)
	if e, handled := p.consultSetID(name, ids); handled {
		return e
	}
	var args [3]uint64
	for i, v := range ids {
		args[i] = u64(v)
	}
	if ok, e := p.enter(name, args[:len(ids)]...); !ok {
		return e
	}
	kids := [3]int{-1, -1, -1}
	for i, v := range ids {
		kv, ok := k.argToGlobal(p.cred.NS, v)
		if !ok {
			return p.trace(name, "", errno.EINVAL, "")
		}
		kids[i] = kv
	}
	r, e, s, fs := k.quartet(p.cred)
	if !p.cred.Capable(k.capability()) {
		for _, v := range kids {
			if v != -1 && v != *r && v != *e && v != *s {
				return p.trace(name, "", errno.EPERM, "")
			}
		}
	}
	if kids[0] != -1 {
		*r = kids[0]
	}
	if kids[1] != -1 {
		*e, *fs = kids[1], kids[1]
	}
	if kids[2] != -1 {
		*s = kids[2]
	}
	if k.dropsCaps() {
		p.maybeDropCaps()
	}
	return p.trace(name, "", errno.OK, "")
}

// Setfsuid implements setfsuid(2)'s odd contract: returns the previous
// fsuid and never fails; invalid requests simply change nothing.
func (p *Proc) Setfsuid(uid int) int { return p.setfsID("setfsuid", uidKind, uid) }

// Setfsgid implements setfsgid(2).
func (p *Proc) Setfsgid(gid int) int { return p.setfsID("setfsgid", gidKind, gid) }

func (p *Proc) setfsID(generic string, k idKind, id int) int {
	name := p.idSysname(generic)
	r, e, s, fs := k.quartet(p.cred)
	old := p.cred.NS.view(k, *fs)
	if ok, _ := p.enter(name, u64(id)); !ok {
		// Under the zero-consistency filter this path returns the faked
		// success value 0 — which callers interpret as "previous fsuid
		// was root". Harmless for build tools.
		return 0
	}
	kid, ok := p.cred.NS.toGlobal(k, id)
	if !ok {
		p.trace(name, "", errno.OK, "")
		return old
	}
	if p.cred.Capable(k.capability()) || kid == *r || kid == *e || kid == *s || kid == *fs {
		*fs = kid
	}
	p.trace(name, "", errno.OK, "")
	return old
}

// Setgroups implements setgroups(2): CAP_SETGID required, and — the Type
// III catch — refused outright in a namespace where setgroups was denied
// to permit the unprivileged gid_map write.
func (p *Proc) Setgroups(gids []int) errno.Errno {
	name := p.idSysname("setgroups")
	if ok, e := p.enter(name, uint64(len(gids))); !ok {
		return e
	}
	if p.cred.NS.SetgroupsDenied() {
		return p.trace(name, "", errno.EPERM, "")
	}
	if !p.cred.Capable(CapSetgid) {
		return p.trace(name, "", errno.EPERM, "")
	}
	global := make([]int, len(gids))
	for i, g := range gids {
		kg, ok := p.cred.NS.GIDToGlobal(g)
		if !ok {
			return p.trace(name, "", errno.EINVAL, "")
		}
		global[i] = kg
	}
	p.cred.Groups = global
	return p.trace(name, "", errno.OK, "")
}

// consultSetID lets a ptrace supervisor claim set*id calls (PRoot fakes
// them in user space).
func (p *Proc) consultSetID(name string, args []int) (errno.Errno, bool) {
	if p.ptrace != nil && p.ptrace.SetID != nil {
		if e, handled := p.ptrace.SetID(p, name, args); handled {
			return p.ptraceClaimed(name, "", e), true
		}
	}
	return errno.OK, false
}

// maybeDropCaps clears effective/permitted capabilities when all three
// UIDs become nonzero *in the namespace view*, the kernel's
// cap_emulate_setxuid rule. Without this, "su nobody" would retain root's
// powers.
func (p *Proc) maybeDropCaps() {
	c := p.cred
	ns := c.NS
	if ns.ViewUID(c.RUID) != 0 && ns.ViewUID(c.EUID) != 0 && ns.ViewUID(c.SUID) != 0 {
		c.CapEffective = 0
		c.CapPermitted = 0
	}
}

// Capget returns the capability sets.
func (p *Proc) Capget() (effective, permitted CapSet, e errno.Errno) {
	if ok, e2 := p.enter("capget", 0, 0); !ok {
		return 0, 0, e2
	}
	p.trace("capget", "", errno.OK, "")
	return p.cred.CapEffective, p.cred.CapPermitted, errno.OK
}

// Capset replaces the capability sets: effective must be a subset of the
// new permitted, and permitted cannot grow beyond the old permitted
// (without CAP_SETPCAP games, which the workloads don't play).
func (p *Proc) Capset(effective, permitted CapSet) errno.Errno {
	if ok, e := p.enter("capset", 0, 0); !ok {
		return e
	}
	c := p.cred
	if permitted&^c.CapPermitted != 0 {
		return p.trace("capset", "", errno.EPERM, "")
	}
	if effective&^permitted != 0 {
		return p.trace("capset", "", errno.EPERM, "")
	}
	c.CapPermitted = permitted
	c.CapEffective = effective
	return p.trace("capset", "", errno.OK, "")
}
