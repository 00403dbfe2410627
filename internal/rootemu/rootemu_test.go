package rootemu

import (
	"testing"

	"repro/internal/container"
	"repro/internal/core"
	"repro/internal/errno"
	"repro/internal/simos"
	"repro/internal/vfs"
)

func typeIIIProc(t *testing.T) *simos.Proc {
	t.Helper()
	k := simos.NewKernel()
	p := k.NewInitProc(simos.Mount{FS: vfs.New(), Owner: k.InitNS()}, 1000, 1000)
	img := vfs.New()
	rc := vfs.RootContext()
	img.MkdirAll(rc, "/tmp", 0o1777, 1000, 1000)
	img.ChownAll(1000, 1000)
	if err := container.Enter(p, container.Options{Type: container.TypeIII, RootFS: img}); err != nil {
		t.Fatal(err)
	}
	return p
}

func TestInstallSequence(t *testing.T) {
	p := typeIIIProc(t)
	f, err := Install(p, core.Config{})
	if err != nil {
		t.Fatalf("install: %v", err)
	}
	// The self-test already ran; its fake shows up in the stats.
	if f.Stats().Faked == 0 {
		t.Fatal("self-test did not run through the filter")
	}
	// And the emulation works.
	p.WriteFileAll("/tmp/f", []byte("x"), 0o644)
	if e := p.Chown("/tmp/f", 74, 74); e != errno.OK {
		t.Fatalf("chown: %v", e)
	}
}

func TestInstallEnrootSkipsSelfTest(t *testing.T) {
	p := typeIIIProc(t)
	f, err := Install(p, core.Config{Variant: core.VariantEnroot})
	if err != nil {
		t.Fatalf("enroot install: %v", err)
	}
	if f.Stats().Faked != 0 {
		t.Fatal("enroot variant has no self-test; nothing should be faked yet")
	}
}

func TestInstallDetectsBrokenFilter(t *testing.T) {
	// A filter whose fake errno is ENOENT: kexec_load must return ENOENT,
	// and Install's self-test accepts exactly that — proving it checks
	// the configured value rather than blind success.
	p := typeIIIProc(t)
	if _, err := Install(p, core.Config{FakeErrno: 2 /* ENOENT */}); err != nil {
		t.Fatalf("install with ENOENT fake: %v", err)
	}
	if e := p.KexecLoad(); e != errno.ENOENT {
		t.Fatalf("kexec under ENOENT filter: %v", e)
	}
}

func TestAttachBaselines(t *testing.T) {
	p := typeIIIProc(t)
	fr := AttachFakeroot(p)
	pr := AttachPRoot(p)
	p.WriteFileAll("/tmp/f", []byte("x"), 0o644)
	// ptrace path intercepts the raw syscall.
	if e := p.Chown("/tmp/f", 74, 74); e != errno.OK {
		t.Fatalf("proot chown: %v", e)
	}
	if pr.Records() != 1 {
		t.Fatalf("proot records: %d", pr.Records())
	}
	// preload path intercepts the libc call.
	c := &simos.CLib{P: p, Hooks: p.Preloads()}
	if e := c.Chown("/tmp/f", 75, 75); e != errno.OK {
		t.Fatalf("fakeroot chown: %v", e)
	}
	if fr.Records() != 1 {
		t.Fatalf("fakeroot records: %d", fr.Records())
	}
}

// Under PRoot, getres[ug]id reports the whole faked triple a setres[ug]id
// left, field by field, in agreement with get[e][ug]id.
func TestPRootGetresReportsFakedTriple(t *testing.T) {
	p := typeIIIProc(t)
	AttachPRoot(p)
	if e := p.Setresuid(1002, 1000, 1001); e != errno.OK {
		t.Fatalf("setresuid: %v", e)
	}
	if e := p.Setresgid(2002, 2000, 2001); e != errno.OK {
		t.Fatalf("setresgid: %v", e)
	}
	if r, eu, s, e := p.Getresuid(); e != errno.OK || r != 1002 || eu != 1000 || s != 1001 {
		t.Errorf("getresuid = %d/%d/%d (%v), want 1002/1000/1001", r, eu, s, e)
	}
	if r, eg, s, e := p.Getresgid(); e != errno.OK || r != 2002 || eg != 2000 || s != 2001 {
		t.Errorf("getresgid = %d/%d/%d (%v), want 2002/2000/2001", r, eg, s, e)
	}
	if u, eu, g, eg := p.Getuid(), p.Geteuid(), p.Getgid(), p.Getegid(); u != 1002 || eu != 1000 || g != 2002 || eg != 2000 {
		t.Errorf("getuid/geteuid/getgid/getegid = %d/%d/%d/%d, want 1002/1000/2002/2000", u, eu, g, eg)
	}
}
