package simos

import (
	"fmt"
)

// Capability is a Linux capability number (include/uapi/linux/capability.h).
type Capability int

// The capabilities the simulation consults.
const (
	CapChown          Capability = 0
	CapDacOverride    Capability = 1
	CapDacReadSearch  Capability = 2
	CapFowner         Capability = 3
	CapFsetid         Capability = 4
	CapKill           Capability = 5
	CapSetgid         Capability = 6
	CapSetuid         Capability = 7
	CapSetpcap        Capability = 8
	CapNetBindService Capability = 10
	CapNetAdmin       Capability = 12
	CapSysChroot      Capability = 18
	CapSysAdmin       Capability = 21
	CapSysBoot        Capability = 22
	CapMknod          Capability = 27
	CapSetfcap        Capability = 31
	capMax            Capability = 40
)

var capNames = map[Capability]string{
	CapChown: "CAP_CHOWN", CapDacOverride: "CAP_DAC_OVERRIDE",
	CapDacReadSearch: "CAP_DAC_READ_SEARCH", CapFowner: "CAP_FOWNER",
	CapFsetid: "CAP_FSETID", CapKill: "CAP_KILL", CapSetgid: "CAP_SETGID",
	CapSetuid: "CAP_SETUID", CapSetpcap: "CAP_SETPCAP",
	CapNetBindService: "CAP_NET_BIND_SERVICE", CapNetAdmin: "CAP_NET_ADMIN",
	CapSysChroot: "CAP_SYS_CHROOT", CapSysAdmin: "CAP_SYS_ADMIN",
	CapSysBoot: "CAP_SYS_BOOT", CapMknod: "CAP_MKNOD",
	CapSetfcap: "CAP_SETFCAP",
}

func (c Capability) String() string {
	if n, ok := capNames[c]; ok {
		return n
	}
	return fmt.Sprintf("CAP_%d", int(c))
}

// CapSet is a capability bitmask.
type CapSet uint64

// CapFull is every capability — what root (or the creator of a new user
// namespace) holds.
const CapFull CapSet = 1<<uint(capMax) - 1

// Has reports membership.
func (s CapSet) Has(c Capability) bool { return s&(1<<uint(c)) != 0 }

// With returns s plus c.
func (s CapSet) With(c Capability) CapSet { return s | 1<<uint(c) }

// Cred is a process's credential block (struct cred): the full
// real/effective/saved/filesystem ID quartets, supplementary groups, and
// capability sets. All IDs are stored as *global* (init-namespace) values,
// as the kernel stores kuids; syscalls translate at the boundary.
type Cred struct {
	NS *UserNS

	RUID, EUID, SUID, FSUID int
	RGID, EGID, SGID, FSGID int
	Groups                  []int // global GIDs

	CapEffective CapSet
	CapPermitted CapSet
	CapBounding  CapSet

	NoNewPrivs bool
}

// clone deep-copies the cred for fork/exec.
func (c *Cred) clone() *Cred {
	d := *c
	d.Groups = append([]int{}, c.Groups...)
	return &d
}

// CapableIn implements ns_capable(): a process has a capability with
// respect to a target namespace if (a) the target is its own namespace and
// the capability is in its effective set, or (b) the process's namespace is
// an ancestor of the target and the process's global EUID owns the child
// namespace on the path down — the rule that makes the unprivileged user
// "root" over namespaces it creates, and *nothing else*.
func (c *Cred) CapableIn(cap Capability, target *UserNS) bool {
	for ns := target; ns != nil; ns = ns.parent {
		if c.NS == ns {
			return c.CapEffective.Has(cap)
		}
		if ns.parent == c.NS && c.EUID == ns.ownerUID {
			return true
		}
	}
	return false
}

// Capable is CapableIn against the process's own namespace.
func (c *Cred) Capable(cap Capability) bool {
	return c.CapableIn(cap, c.NS)
}

// String renders the namespace-local view, as id(1) would print inside the
// container.
func (c *Cred) String() string {
	return fmt.Sprintf("uid=%d euid=%d gid=%d egid=%d ns=%s",
		c.NS.ViewUID(c.RUID), c.NS.ViewUID(c.EUID),
		c.NS.ViewGID(c.RGID), c.NS.ViewGID(c.EGID), c.NS.name)
}
