// Package simos is a simulated Linux kernel subset: processes with full
// POSIX credentials, user namespaces with uid_map semantics, a syscall
// surface large enough to run simulated package managers, and — the point
// of the exercise — a seccomp hook that runs real BPF filter programs
// (internal/bpf) on every simulated system call, plus ptrace- and
// LD_PRELOAD-analog hooks for the consistent-emulation baselines.
//
// The simulation reproduces the specific kernel behaviours the paper's
// argument rests on:
//
//   - In a fully unprivileged (Type III) container the process has EUID 0
//     and full capabilities *in its user namespace*, but syscalls touching
//     resources owned by the init namespace — chown on a host-backed image
//     directory, device-node mknod, setuid to an unmapped ID — fail with
//     EPERM or EINVAL (§1: "this greater privilege is an illusion").
//
//   - A seccomp filter installed with no_new_privs intercepts syscalls
//     before they execute and can fake success (§4, §5).
package simos

import (
	"fmt"
	"sync"

	"repro/internal/errno"
)

// OverflowUID is the view of an unmapped ID (kernel overflowuid), what
// stat(2) reports for files owned by IDs outside the namespace's map.
const OverflowUID = 65534

// MapRange is one uid_map/gid_map line: count IDs starting at Inside map to
// count IDs starting at Global. Global values are init-namespace (kernel)
// IDs — maps are pre-composed through the namespace chain at write time, so
// translation is single-step.
type MapRange struct {
	Inside int
	Global int
	Count  int
}

// UserNS is a user namespace. The zero value is not usable; namespaces are
// created by the Kernel (init) or by unshare.
type UserNS struct {
	mu     sync.RWMutex
	name   string
	parent *UserNS
	level  int

	// ownerUID is the global EUID of the creator; capability checks in
	// child namespaces resolve against it.
	ownerUID int

	uidMap []MapRange
	gidMap []MapRange

	// setgroupsAllowed mirrors /proc/pid/setgroups: an unprivileged
	// process must write "deny" before it may write gid_map, and from then
	// on setgroups(2) fails in the namespace. This is why Type III
	// containers cannot use supplementary groups (§2: Type II's benefit is
	// "greater flexibility of users and groups").
	setgroupsState setgroupsState
}

type setgroupsState int

const (
	setgroupsAllowed setgroupsState = iota
	setgroupsDenied
)

func newInitNS() *UserNS {
	// Identity mapping over the full ID space; setgroups allowed.
	full := []MapRange{{Inside: 0, Global: 0, Count: 1 << 31}}
	return &UserNS{
		name: "init_user_ns", ownerUID: 0,
		uidMap: full, gidMap: full,
	}
}

// Name returns the diagnostic name.
func (ns *UserNS) Name() string { return ns.name }

// Level returns the nesting depth (0 = init).
func (ns *UserNS) Level() int { return ns.level }

func translate(m []MapRange, inside int) (int, bool) {
	for _, r := range m {
		if inside >= r.Inside && inside < r.Inside+r.Count {
			return r.Global + (inside - r.Inside), true
		}
	}
	return 0, false
}

func reverse(m []MapRange, global int) (int, bool) {
	for _, r := range m {
		if global >= r.Global && global < r.Global+r.Count {
			return r.Inside + (global - r.Global), true
		}
	}
	return 0, false
}

// idMap returns the uid_map or gid_map, by kind.
func (ns *UserNS) idMap(k idKind) *[]MapRange {
	if k == gidKind {
		return &ns.gidMap
	}
	return &ns.uidMap
}

func (ns *UserNS) toGlobal(k idKind, inside int) (int, bool) {
	ns.mu.RLock()
	defer ns.mu.RUnlock()
	return translate(*ns.idMap(k), inside)
}

func (ns *UserNS) fromGlobal(k idKind, global int) (int, bool) {
	ns.mu.RLock()
	defer ns.mu.RUnlock()
	return reverse(*ns.idMap(k), global)
}

// view renders a global ID as this namespace sees it, substituting
// OverflowUID for unmapped IDs (what ls -l shows as 65534/nobody).
func (ns *UserNS) view(k idKind, global int) int {
	if v, ok := ns.fromGlobal(k, global); ok {
		return v
	}
	return OverflowUID
}

// UIDToGlobal translates a namespace-local UID to a global one; !ok means
// the ID is unmapped — the make_kuid failure that surfaces as EINVAL from
// chown and setuid, the exact failure in Figure 1b.
func (ns *UserNS) UIDToGlobal(inside int) (int, bool) { return ns.toGlobal(uidKind, inside) }

// UIDFromGlobal translates a global UID into this namespace's view; !ok
// callers render OverflowUID.
func (ns *UserNS) UIDFromGlobal(global int) (int, bool) { return ns.fromGlobal(uidKind, global) }

// GIDToGlobal is UIDToGlobal for groups.
func (ns *UserNS) GIDToGlobal(inside int) (int, bool) { return ns.toGlobal(gidKind, inside) }

// GIDFromGlobal is UIDFromGlobal for groups.
func (ns *UserNS) GIDFromGlobal(global int) (int, bool) { return ns.fromGlobal(gidKind, global) }

// ViewUID renders a global UID as this namespace sees it.
func (ns *UserNS) ViewUID(global int) int { return ns.view(uidKind, global) }

// ViewGID is ViewUID for groups.
func (ns *UserNS) ViewGID(global int) int { return ns.view(gidKind, global) }

// SetgroupsDenied reports whether setgroups(2) has been disabled.
func (ns *UserNS) SetgroupsDenied() bool {
	ns.mu.RLock()
	defer ns.mu.RUnlock()
	return ns.setgroupsState == setgroupsDenied
}

func (ns *UserNS) String() string {
	return fmt.Sprintf("%s(level=%d,owner=%d)", ns.name, ns.level, ns.ownerUID)
}

// denySetgroups implements writing "deny" to /proc/self/setgroups: only
// valid before gid_map is written.
func (ns *UserNS) denySetgroups() errno.Errno {
	ns.mu.Lock()
	defer ns.mu.Unlock()
	if len(ns.gidMap) > 0 {
		return errno.EBUSY
	}
	ns.setgroupsState = setgroupsDenied
	return errno.OK
}

// writeMap installs the uid_map or gid_map. Kernel rules enforced:
// write-once; unprivileged writers (no CAP_SETUID or CAP_SETGID in the
// *parent* namespace) may install exactly one single-ID range mapping to
// their own effective ID, and a gid_map only after setgroups was denied.
func (ns *UserNS) writeMap(k idKind, entries []MapRange, writerGlobalID int, privileged bool) errno.Errno {
	ns.mu.Lock()
	defer ns.mu.Unlock()
	m := ns.idMap(k)
	if len(*m) > 0 {
		return errno.EPERM // write-once
	}
	if err := validateMap(entries); err != errno.OK {
		return err
	}
	if !privileged {
		if k == gidKind && ns.setgroupsState != setgroupsDenied {
			return errno.EPERM
		}
		if len(entries) != 1 || entries[0].Count != 1 || entries[0].Global != writerGlobalID {
			return errno.EPERM
		}
	}
	*m = append([]MapRange{}, entries...)
	return errno.OK
}

func validateMap(entries []MapRange) errno.Errno {
	if len(entries) == 0 || len(entries) > 340 { // kernel UID_GID_MAP_MAX
		return errno.EINVAL
	}
	for i, e := range entries {
		if e.Count <= 0 || e.Inside < 0 || e.Global < 0 {
			return errno.EINVAL
		}
		for _, f := range entries[:i] {
			if rangesOverlap(e.Inside, e.Count, f.Inside, f.Count) ||
				rangesOverlap(e.Global, e.Count, f.Global, f.Count) {
				return errno.EINVAL
			}
		}
	}
	return errno.OK
}

func rangesOverlap(a, an, b, bn int) bool {
	return a < b+bn && b < a+an
}
