package simos

import (
	"testing"
	"testing/quick"

	"repro/internal/core"
	"repro/internal/errno"
	"repro/internal/seccomp"
	"repro/internal/vfs"
)

// Property tests on the namespace and emulation invariants.

// TestQuickUIDMapRoundTrip: for any mapped inside ID, ToGlobal∘FromGlobal
// is the identity; unmapped IDs fail both ways.
func TestQuickUIDMapRoundTrip(t *testing.T) {
	f := func(globalBase uint16, count uint8, probe uint16) bool {
		if count == 0 {
			return true
		}
		ns := &UserNS{
			name: "q", parent: newInitNS(), level: 1, ownerUID: 1000,
		}
		if e := ns.writeMap(uidKind, []MapRange{
			{Inside: 0, Global: int(globalBase), Count: int(count)},
		}, 0, true); e != errno.OK {
			return true // invalid map rejected is fine
		}
		inside := int(probe)
		g, ok := ns.UIDToGlobal(inside)
		if inside < int(count) {
			if !ok || g != int(globalBase)+inside {
				return false
			}
			back, ok2 := ns.UIDFromGlobal(g)
			return ok2 && back == inside
		}
		return !ok
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestQuickOverlappingMapsRejected: any two ranges overlapping on either
// side are refused.
func TestQuickOverlappingMapsRejected(t *testing.T) {
	f := func(a, b uint8, n1, n2 uint8) bool {
		if n1 == 0 || n2 == 0 {
			return true
		}
		entries := []MapRange{
			{Inside: int(a), Global: 10000 + int(a), Count: int(n1)},
			{Inside: int(b), Global: 20000 + int(b), Count: int(n2)},
		}
		overlaps := rangesOverlap(int(a), int(n1), int(b), int(n2))
		err := validateMap(entries)
		if overlaps {
			return err != errno.OK
		}
		return err == errno.OK
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestQuickZeroConsistencyInvariant: THE paper's invariant. For any
// (uid, gid) chown target, under the filter the call reports success and
// the file's observable ownership never changes.
func TestQuickZeroConsistencyInvariant(t *testing.T) {
	k := NewKernel()
	fs := newTestFS()
	p := k.NewInitProc(Mount{FS: fs, Owner: k.InitNS()}, 1000, 1000)
	fs.ChownAll(1000, 1000)
	if e := p.UnshareUser(); e != errno.OK {
		t.Fatal(e)
	}
	p.WriteUIDMap([]MapRange{{Inside: 0, Global: 1000, Count: 1}})
	p.DenySetgroups()
	p.WriteGIDMap([]MapRange{{Inside: 0, Global: 1000, Count: 1}})
	p.WriteFileAll("/f", []byte("x"), 0o644)
	p.Prctl(PrSetNoNewPrivs, 1)
	p.SeccompInstall(core.MustNewFilter(core.Config{}))
	st0, _ := p.Stat("/f")

	f := func(uid, gid uint16) bool {
		if e := p.Chown("/f", int(uid), int(gid)); e != errno.OK {
			return false // the lie must always be told
		}
		st, e := p.Stat("/f")
		return e == errno.OK && st.UID == st0.UID && st.GID == st0.GID
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestQuickIdentityInvariantUnderFilter: for any setresuid triple, the
// faked call succeeds and getresuid is unchanged.
func TestQuickIdentityInvariantUnderFilter(t *testing.T) {
	k := NewKernel()
	fs := newTestFS()
	p := k.NewInitProc(Mount{FS: fs, Owner: k.InitNS()}, 1000, 1000)
	p.UnshareUser()
	p.WriteUIDMap([]MapRange{{Inside: 0, Global: 1000, Count: 1}})
	p.Prctl(PrSetNoNewPrivs, 1)
	p.SeccompInstall(core.MustNewFilter(core.Config{}))
	r0, e0, s0, _ := p.Getresuid()

	f := func(r, e, s uint16) bool {
		if er := p.Setresuid(int(r), int(e), int(s)); er != errno.OK {
			return false
		}
		r1, e1, s1, _ := p.Getresuid()
		return r1 == r0 && e1 == e0 && s1 == s0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestQuickFilterTotality: for every syscall number in a wide range, on
// every architecture, the filter returns either ALLOW or ERRNO(0) — never
// a kill, never an unexpected errno. (The paper's filter never breaks a
// build; at worst it lies.)
func TestQuickFilterTotality(t *testing.T) {
	fil := core.MustNewFilter(core.Config{})
	prog := fil.Program()
	if err := prog.ValidateSeccomp(); err != nil {
		t.Fatal(err)
	}
	f := func(nr uint16, archIdx uint8, a1, a2 uint64) bool {
		arches := []uint32{0xc000003e, 0x40000003, 0x40000028, 0xc00000b7, 0xc0000015, 0x80000016, 0xdeadbeef}
		arch := arches[int(archIdx)%len(arches)]
		d := dataFor(int32(nr), arch, a1, a2)
		ret := fil.EvaluateData(&d)
		action := ret & 0xffff0000
		return action == 0x7fff0000 /* ALLOW */ ||
			(action == 0x00050000 && ret&0xffff == 0 /* ERRNO(0) */)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func dataFor(nr int32, arch uint32, a1, a2 uint64) (d seccomp.Data) {
	d.NR = nr
	d.Arch = arch
	d.Args[1] = a1
	d.Args[2] = a2
	return
}

// newTestFS builds a world-writable root.
func newTestFS() *vfs.FS {
	fs := vfs.New()
	fs.Chmod(vfs.RootContext(), "/", 0o777, true)
	return fs
}
