package baseline

import (
	"testing"

	"repro/internal/errno"
	"repro/internal/simos"
	"repro/internal/vfs"
)

func hostProc(t *testing.T) (*simos.Kernel, *simos.Proc) {
	t.Helper()
	k := simos.NewKernel()
	fs := vfs.New()
	rc := vfs.RootContext()
	fs.Chmod(rc, "/", 0o777, true)
	p := k.NewInitProc(simos.Mount{FS: fs, Owner: k.InitNS()}, 1000, 1000)
	fs.ChownAll(1000, 1000)
	return k, p
}

// clibFor builds the dynamic-binary view of a process.
func clibFor(p *simos.Proc) *simos.CLib {
	return &simos.CLib{P: p, Hooks: p.Preloads()}
}

// --- E11: consistency matrix -------------------------------------------------

func TestFakerootChownStatConsistent(t *testing.T) {
	_, p := hostProc(t)
	fr := NewFakeroot()
	p.AddPreload(fr.Hook())
	c := clibFor(p)

	p.WriteFileAll("/f", []byte("x"), 0o644)
	if e := c.Chown("/f", 74, 74); e != errno.OK {
		t.Fatalf("fakeroot chown: %v", e)
	}
	st, e := c.Stat("/f")
	if e != errno.OK {
		t.Fatalf("stat: %v", e)
	}
	// THE consistency property: stat reflects the earlier chown.
	if st.UID != 74 || st.GID != 74 {
		t.Fatalf("fakeroot not consistent: %+v", st)
	}
	// But nothing really changed.
	real, _ := p.Stat("/f")
	if real.UID == 74 {
		t.Fatal("fakeroot actually chowned?!")
	}
	if fr.Records() != 1 {
		t.Fatalf("records: %d", fr.Records())
	}
}

func TestFakerootDefaultLieIsRoot(t *testing.T) {
	_, p := hostProc(t)
	fr := NewFakeroot()
	p.AddPreload(fr.Hook())
	c := clibFor(p)
	p.WriteFileAll("/f", []byte("x"), 0o644)
	st, _ := c.Stat("/f")
	if st.UID != 0 || st.GID != 0 {
		t.Fatalf("files must appear root-owned under fakeroot: %+v", st)
	}
	if c.Getuid() != 0 || c.Geteuid() != 0 {
		t.Fatal("identity must appear root under fakeroot")
	}
}

func TestFakerootMknodDevicePlaceholder(t *testing.T) {
	_, p := hostProc(t)
	fr := NewFakeroot()
	p.AddPreload(fr.Hook())
	c := clibFor(p)
	if e := c.Mknod("/null", vfs.SIFCHR|0o666, vfs.Makedev(1, 3)); e != errno.OK {
		t.Fatalf("mknod: %v", e)
	}
	// stat via the hook shows a device; the real file is regular.
	st, _ := c.Stat("/null")
	if st.Type != vfs.TypeCharDev || st.Rdev.Major() != 1 {
		t.Fatalf("hooked stat: %+v", st)
	}
	real, _ := p.Lstat("/null")
	if real.Type != vfs.TypeRegular {
		t.Fatalf("real file: %+v", real)
	}
	// FIFOs pass through to the kernel.
	if e := c.Mknod("/fifo", vfs.SIFIFO|0o644, 0); e != errno.OK {
		t.Fatalf("fifo: %v", e)
	}
	real, _ = p.Lstat("/fifo")
	if real.Type != vfs.TypeFIFO {
		t.Fatalf("fifo real type: %+v", real)
	}
}

func TestFakerootSetuidGetuidConsistent(t *testing.T) {
	_, p := hostProc(t)
	fr := NewFakeroot()
	p.AddPreload(fr.Hook())
	c := clibFor(p)
	if e := c.Setresuid(100, 100, 100); e != errno.OK {
		t.Fatalf("setresuid: %v", e)
	}
	if got := c.Getuid(); got != 100 {
		t.Fatalf("getuid after set: %d", got)
	}
}

func TestFakerootStatePersistence(t *testing.T) {
	_, p := hostProc(t)
	fr := NewFakeroot()
	p.AddPreload(fr.Hook())
	c := clibFor(p)
	p.WriteFileAll("/f", []byte("x"), 0o644)
	c.Chown("/f", 74, 74)
	state, err := fr.SaveState()
	if err != nil {
		t.Fatal(err)
	}
	// A new daemon (fakeroot -i) sees the same lies.
	fr2 := NewFakeroot()
	if err := fr2.LoadState(state); err != nil {
		t.Fatal(err)
	}
	_, p2 := hostProc(t)
	p2.WriteFileAll("/f", []byte("x"), 0o644)
	p2.AddPreload(fr2.Hook())
	c2 := clibFor(p2)
	st, _ := c2.Stat("/f")
	if st.UID != 74 {
		t.Fatalf("persisted state lost: %+v", st)
	}
}

func TestFakerootRoundTripsCounted(t *testing.T) {
	_, p := hostProc(t)
	fr := NewFakeroot()
	p.AddPreload(fr.Hook())
	c := clibFor(p)
	p.WriteFileAll("/f", []byte("x"), 0o644)
	before := fr.RoundTrips.Load()
	c.Chown("/f", 1, 1)
	c.Stat("/f")
	c.Getuid()
	if got := fr.RoundTrips.Load() - before; got != 3 {
		t.Fatalf("round trips: %d, want 3", got)
	}
}

func TestPRootChownStatConsistent(t *testing.T) {
	_, p := hostProc(t)
	pr := NewPRoot()
	pr.Attach(p)
	p.WriteFileAll("/f", []byte("x"), 0o644)
	if e := p.Chown("/f", 74, 74); e != errno.OK {
		t.Fatalf("proot chown: %v", e)
	}
	st, e := p.Stat("/f")
	if e != errno.OK || st.UID != 74 || st.GID != 74 {
		t.Fatalf("proot stat: %+v %v", st, e)
	}
	if pr.Records() != 1 {
		t.Fatalf("records: %d", pr.Records())
	}
}

func TestPRootWorksForStaticBinaries(t *testing.T) {
	// §6(3): ptrace-based emulation wraps static binaries; preload does
	// not. Run the same chown through a static binary under both.
	_, p := hostProc(t)
	fr := NewFakeroot()
	p.AddPreload(fr.Hook())
	pr := NewPRoot()
	pr.Attach(p)

	reg := simos.NewBinaryRegistry()
	reg.Register("/bin/static-chown", &simos.Binary{
		Name: "static-chown", Static: true,
		Main: func(ctx *simos.ExecCtx) int {
			if e := ctx.C.Chown("/f", 74, 74); e != errno.OK {
				return 1
			}
			return 0
		},
	})
	p.SetRegistry(reg)
	p.MountInfo().FS.MkdirAll(vfs.RootContext(), "/bin", 0o755, 1000, 1000)
	p.MountInfo().FS.WriteFile(vfs.RootContext(), "/bin/static-chown", []byte("ELF"), 0o755, 1000, 1000)
	p.WriteFileAll("/f", []byte("x"), 0o644)

	status, e := p.Exec([]string{"/bin/static-chown"}, nil, nil, nil, nil)
	if e != errno.OK || status != 0 {
		t.Fatalf("static chown under proot failed: %d %v", status, e)
	}
	// The preload daemon saw nothing; the ptrace supervisor did.
	if fr.Records() != 0 {
		t.Fatalf("fakeroot saw a static binary's chown: %d", fr.Records())
	}
	if pr.Records() != 1 {
		t.Fatalf("proot records: %d", pr.Records())
	}
}

func TestPRootChargesStopsOnEverySyscall(t *testing.T) {
	k, p := hostProc(t)
	pr := NewPRoot()
	pr.Attach(p)
	k.ResetCounters()
	p.Getpid()
	p.Getppid()
	if got := k.Snapshot().PtraceStops; got != 4 {
		t.Fatalf("stops: %d, want 4 (2 per syscall)", got)
	}
}

func TestFakechrootSubstitution(t *testing.T) {
	_, p := hostProc(t)
	reg := simos.NewBinaryRegistry()
	ran := false
	reg.Register("/usr/bin/ldconfig", &simos.Binary{
		Name: "ldconfig", Main: func(*simos.ExecCtx) int { ran = true; return 9 },
	})
	fc := &Fakechroot{Substitute: []string{"/usr/bin/ldconfig"}}
	sub := fc.Apply(reg)
	p.SetRegistry(sub)
	rc := vfs.RootContext()
	p.MountInfo().FS.MkdirAll(rc, "/usr/bin", 0o755, 1000, 1000)
	p.MountInfo().FS.WriteFile(rc, "/usr/bin/ldconfig", []byte("ELF"), 0o755, 1000, 1000)
	status, e := p.Exec([]string{"/usr/bin/ldconfig"}, nil, nil, nil, nil)
	if e != errno.OK || status != 0 || ran {
		t.Fatalf("substitution failed: status=%d ran=%v e=%v", status, ran, e)
	}
	// The original registry is untouched.
	if b, _ := reg.Lookup("/usr/bin/ldconfig"); b.Name != "ldconfig" {
		t.Fatal("original registry mutated")
	}
}

func TestFakechrootDoesNotHelpSyscalls(t *testing.T) {
	// §3.3: substitution of executables cannot fix syscall-level
	// failures — chown still fails.
	_, p := hostProc(t)
	fc := &Fakechroot{Substitute: []string{"/usr/bin/ldconfig"}}
	_ = fc
	p.WriteFileAll("/f", []byte("x"), 0o644)
	if e := p.Chown("/f", 74, 74); e == errno.OK {
		t.Fatal("chown must still fail under fakechroot")
	}
}

func TestPRootIDFamiliesIndependent(t *testing.T) {
	// The supervisor keeps separate uid and gid triples: faking a gid
	// drop must not disturb the faked uid view (and partial setres*
	// calls keep the -1 fields).
	_, p := hostProc(t)
	NewPRoot().Attach(p)
	if e := p.Setresuid(100, 100, 100); e != errno.OK {
		t.Fatalf("setresuid: %v", e)
	}
	if e := p.Setresgid(65534, 65534, 65534); e != errno.OK {
		t.Fatalf("setresgid: %v", e)
	}
	if r, eu, s, _ := p.Getresuid(); r != 100 || eu != 100 || s != 100 {
		t.Fatalf("uid triple clobbered by setresgid: %d/%d/%d", r, eu, s)
	}
	if r, _, _, _ := p.Getresgid(); r != 65534 {
		t.Fatalf("gid triple not faked: %d", r)
	}
	// setreuid(-1, 42) updates the effective field only.
	if e := p.Setreuid(-1, 42); e != errno.OK {
		t.Fatalf("setreuid: %v", e)
	}
	if got := p.Getuid(); got != 100 {
		t.Fatalf("real uid clobbered by partial setreuid: %d", got)
	}
	if got := p.Geteuid(); got != 42 {
		t.Fatalf("effective uid not updated: %d", got)
	}
}
