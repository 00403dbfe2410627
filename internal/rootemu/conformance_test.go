package rootemu

import (
	"bytes"
	"fmt"
	"os"
	"strings"
	"testing"

	"repro/internal/container"
	"repro/internal/core"
	"repro/internal/errno"
	"repro/internal/simos"
	"repro/internal/sysarch"
	"repro/internal/vfs"
)

// The identity-and-ownership conformance matrix: every identity call
// (the get/set*id family and setgroups) and every ownership call (the
// chown family and mknod) the simulated kernel implements, issued directly
// and through the libc wrapper where one exists, on each architecture,
// under each emulation mode. Each row records what the call returned, the
// caller's credentials and the target's ownership afterwards, the kernel
// counter and virtual-clock deltas, and the trace events it emitted.
//
// The committed table (testdata/conformance.txt) is the oracle: a change
// to the kernel's credential rules, the per-ABI syscall routing, the
// seccomp, ptrace or preload plumbing, or the baselines shows up as a
// changed row. On a mismatch the test writes the table it computed to
// testdata/conformance.got; review the difference and copy it over the
// golden file when the change is intended.

const (
	conformanceGolden = "testdata/conformance.txt"
	conformanceGot    = "testdata/conformance.got"
)

// matrixMode is one emulation configuration.
type matrixMode struct {
	name   string
	attach func(t *testing.T, p *simos.Proc)
}

func seccompMode(name string, cfg core.Config) matrixMode {
	return matrixMode{name, func(t *testing.T, p *simos.Proc) {
		if cfg.IDConsistency {
			// A supervisor that accepts every identity change.
			p.SetNotifier(simos.NotifierFunc(func(*simos.Proc, string, []uint64) errno.Errno {
				return errno.OK
			}))
		}
		if _, err := Install(p, cfg); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}}
}

var matrixModes = []matrixMode{
	{"none", func(*testing.T, *simos.Proc) {}},
	seccompMode("seccomp", core.Config{}),
	seccompMode("seccomp-enroot", core.Config{Variant: core.VariantEnroot}),
	seccompMode("seccomp-extended", core.Config{Variant: core.VariantExtended}),
	seccompMode("seccomp-idcons", core.Config{IDConsistency: true}),
	{"fakeroot", func(_ *testing.T, p *simos.Proc) { AttachFakeroot(p) }},
	{"proot", func(_ *testing.T, p *simos.Proc) { AttachPRoot(p) }},
}

// matrixScenario builds a process and the filesystem it is rooted on.
// Every scenario's filesystem holds /f (a regular file owned by the
// process's filesystem IDs) and /l (a symlink to it) in a world-writable
// root.
type matrixScenario struct {
	name  string
	setup func(t *testing.T, arch *sysarch.Arch) (*simos.Proc, *vfs.FS)
}

// newMatrixFS is the scenario filesystem, owned by global uid:gid.
func newMatrixFS(uid, gid int) *vfs.FS {
	fs := vfs.New()
	rc := vfs.RootContext()
	fs.Chmod(rc, "/", 0o777, true)
	fs.WriteFile(rc, "/f", []byte("x"), 0o644, uid, gid)
	fs.Symlink(rc, "/f", "/l", uid, gid)
	fs.ChownAll(uid, gid)
	return fs
}

// initScenario is a process in the init namespace whose credential block
// is then adjusted by edit.
func initScenario(name string, uid, gid int, edit func(c *simos.Cred)) matrixScenario {
	return matrixScenario{name, func(t *testing.T, arch *sysarch.Arch) (*simos.Proc, *vfs.FS) {
		k := simos.NewKernel()
		fs := newMatrixFS(uid, gid)
		p := k.NewInitProc(simos.Mount{FS: fs, Owner: k.InitNS()}, uid, gid)
		p.SetArch(arch)
		edit(p.Cred())
		fs.ChownAll(p.Cred().FSUID, p.Cred().FSGID)
		return p, fs
	}}
}

// typeIII is the paper's setting: host uid 1000 / gid 2000 in a fully
// unprivileged container whose single-ID maps make it root, on an image
// directory the init namespace owns.
var typeIII = matrixScenario{"type3", func(t *testing.T, arch *sysarch.Arch) (*simos.Proc, *vfs.FS) {
	k := simos.NewKernel()
	p := k.NewInitProc(simos.Mount{FS: vfs.New(), Owner: k.InitNS()}, 1000, 2000)
	p.SetArch(arch)
	img := newMatrixFS(1000, 2000)
	if err := container.Enter(p, container.Options{Type: container.TypeIII, RootFS: img}); err != nil {
		t.Fatal(err)
	}
	return p, img
}}

// The init-namespace scenarios exercise the kernel's credential rules
// themselves: root, an unprivileged user whose real, effective and saved
// IDs all differ (and differ between uid and gid), and a root that has
// stashed saved IDs and dropped CAP_SETGID from its effective set.
var (
	rootScenario = initScenario("root", 0, 0, func(*simos.Cred) {})
	userScenario = initScenario("user", 1000, 2000, func(c *simos.Cred) {
		c.EUID, c.SUID, c.FSUID = 1001, 1002, 1001
		c.EGID, c.SGID, c.FSGID = 2001, 2002, 2001
		c.Groups = []int{3000}
	})
	savedScenario = initScenario("saved", 0, 0, func(c *simos.Cred) {
		c.SUID, c.SGID = 1002, 2002
		c.CapEffective &^= 1 << uint(simos.CapSetgid)
	})
)

// matrixCall is one call of the matrix. target, when set, is the path
// whose ownership the row reports (follow selects stat or lstat).
type matrixCall struct {
	name   string
	target string
	follow bool
	run    func(p *simos.Proc, c *simos.CLib, fd int) string
}

func errCall(name string, f func(p *simos.Proc) errno.Errno) matrixCall {
	return matrixCall{name: name, run: func(p *simos.Proc, _ *simos.CLib, _ int) string {
		return f(p).Name()
	}}
}

func intCall(name string, f func(p *simos.Proc) int) matrixCall {
	return matrixCall{name: name, run: func(p *simos.Proc, _ *simos.CLib, _ int) string {
		return fmt.Sprint(f(p))
	}}
}

func resCall(name string, f func(p *simos.Proc) (int, int, int, errno.Errno)) matrixCall {
	return matrixCall{name: name, run: func(p *simos.Proc, _ *simos.CLib, _ int) string {
		r, e, s, err := f(p)
		return fmt.Sprintf("%d/%d/%d %s", r, e, s, err.Name())
	}}
}

func ownCall(name, target string, follow bool, f func(p *simos.Proc, c *simos.CLib, fd int) errno.Errno) matrixCall {
	return matrixCall{name, target, follow, func(p *simos.Proc, c *simos.CLib, fd int) string {
		return f(p, c, fd).Name()
	}}
}

func statCall(name, target string, follow bool) matrixCall {
	return matrixCall{name, target, follow, func(_ *simos.Proc, c *simos.CLib, _ int) string {
		st, e := libcStat(c, target, follow)
		return fmt.Sprintf("%d:%d %s", st.UID, st.GID, e.Name())
	}}
}

func libcStat(c *simos.CLib, path string, follow bool) (vfs.Stat, errno.Errno) {
	if follow {
		return c.Stat(path)
	}
	return c.Lstat(path)
}

const (
	modeCharDev = vfs.SIFCHR | 0o666
	modeFIFO    = vfs.SIFIFO | 0o644
)

var devNull = vfs.Makedev(1, 3)

var matrixCalls = []matrixCall{
	intCall("getuid", (*simos.Proc).Getuid),
	intCall("geteuid", (*simos.Proc).Geteuid),
	intCall("getgid", (*simos.Proc).Getgid),
	intCall("getegid", (*simos.Proc).Getegid),
	resCall("getresuid", (*simos.Proc).Getresuid),
	resCall("getresgid", (*simos.Proc).Getresgid),
	{name: "getgroups", run: func(p *simos.Proc, _ *simos.CLib, _ int) string {
		g, e := p.Getgroups()
		return fmt.Sprintf("%v %s", g, e.Name())
	}},
	errCall("setuid(0)", func(p *simos.Proc) errno.Errno { return p.Setuid(0) }),
	errCall("setuid(1002)", func(p *simos.Proc) errno.Errno { return p.Setuid(1002) }),
	errCall("setgid(0)", func(p *simos.Proc) errno.Errno { return p.Setgid(0) }),
	errCall("setgid(2002)", func(p *simos.Proc) errno.Errno { return p.Setgid(2002) }),
	errCall("setreuid(-1,1002)", func(p *simos.Proc) errno.Errno { return p.Setreuid(-1, 1002) }),
	errCall("setreuid(1000,1001)", func(p *simos.Proc) errno.Errno { return p.Setreuid(1000, 1001) }),
	errCall("setregid(-1,2002)", func(p *simos.Proc) errno.Errno { return p.Setregid(-1, 2002) }),
	errCall("setregid(2000,2001)", func(p *simos.Proc) errno.Errno { return p.Setregid(2000, 2001) }),
	errCall("setresuid(1002,1000,1001)", func(p *simos.Proc) errno.Errno { return p.Setresuid(1002, 1000, 1001) }),
	errCall("setresuid(-1,0,-1)", func(p *simos.Proc) errno.Errno { return p.Setresuid(-1, 0, -1) }),
	errCall("setresgid(2002,2000,2001)", func(p *simos.Proc) errno.Errno { return p.Setresgid(2002, 2000, 2001) }),
	errCall("setresgid(-1,0,-1)", func(p *simos.Proc) errno.Errno { return p.Setresgid(-1, 0, -1) }),
	intCall("setfsuid(1002)", func(p *simos.Proc) int { return p.Setfsuid(1002) }),
	intCall("setfsuid(0)", func(p *simos.Proc) int { return p.Setfsuid(0) }),
	intCall("setfsgid(2002)", func(p *simos.Proc) int { return p.Setfsgid(2002) }),
	intCall("setfsgid(0)", func(p *simos.Proc) int { return p.Setfsgid(0) }),
	errCall("setgroups(3000)", func(p *simos.Proc) errno.Errno { return p.Setgroups([]int{3000}) }),

	ownCall("chown(/f,0,0)", "/f", true, func(p *simos.Proc, _ *simos.CLib, _ int) errno.Errno {
		return p.Chown("/f", 0, 0)
	}),
	ownCall("chown(/f,-1,3000)", "/f", true, func(p *simos.Proc, _ *simos.CLib, _ int) errno.Errno {
		return p.Chown("/f", -1, 3000)
	}),
	ownCall("lchown(/l,0,0)", "/l", false, func(p *simos.Proc, _ *simos.CLib, _ int) errno.Errno {
		return p.Lchown("/l", 0, 0)
	}),
	ownCall("fchownat(/l,0,0,0)", "/l", true, func(p *simos.Proc, _ *simos.CLib, _ int) errno.Errno {
		return p.Fchownat(simos.AtFDCWD, "/l", 0, 0, 0)
	}),
	ownCall("fchownat(/l,0,0,NOFOLLOW)", "/l", false, func(p *simos.Proc, _ *simos.CLib, _ int) errno.Errno {
		return p.Fchownat(simos.AtFDCWD, "/l", 0, 0, 0x100)
	}),
	ownCall("fchown(fd,0,0)", "/f", true, func(p *simos.Proc, _ *simos.CLib, fd int) errno.Errno {
		return p.Fchown(fd, 0, 0)
	}),
	ownCall("mknod(/c,chr)", "/c", false, func(p *simos.Proc, _ *simos.CLib, _ int) errno.Errno {
		return p.Mknod("/c", modeCharDev, devNull)
	}),
	ownCall("mknod(/p,fifo)", "/p", false, func(p *simos.Proc, _ *simos.CLib, _ int) errno.Errno {
		return p.Mknod("/p", modeFIFO, 0)
	}),

	ownCall("libc:chown(/f,0,0)", "/f", true, func(_ *simos.Proc, c *simos.CLib, _ int) errno.Errno {
		return c.Chown("/f", 0, 0)
	}),
	ownCall("libc:lchown(/l,0,0)", "/l", false, func(_ *simos.Proc, c *simos.CLib, _ int) errno.Errno {
		return c.Lchown("/l", 0, 0)
	}),
	ownCall("libc:fchown(fd,0,0)", "/f", true, func(_ *simos.Proc, c *simos.CLib, fd int) errno.Errno {
		return c.Fchown(fd, 0, 0)
	}),
	ownCall("libc:mknod(/c,chr)", "/c", false, func(_ *simos.Proc, c *simos.CLib, _ int) errno.Errno {
		return c.Mknod("/c", modeCharDev, devNull)
	}),
	ownCall("libc:mknod(/p,fifo)", "/p", false, func(_ *simos.Proc, c *simos.CLib, _ int) errno.Errno {
		return c.Mknod("/p", modeFIFO, 0)
	}),
	ownCall("libc:chmod(/f,04755)", "/f", true, func(_ *simos.Proc, c *simos.CLib, _ int) errno.Errno {
		return c.Chmod("/f", 0o4755)
	}),
	statCall("libc:stat(/l)", "/l", true),
	statCall("libc:lstat(/l)", "/l", false),
	{name: "libc:getuid", run: func(_ *simos.Proc, c *simos.CLib, _ int) string { return fmt.Sprint(c.Getuid()) }},
	{name: "libc:geteuid", run: func(_ *simos.Proc, c *simos.CLib, _ int) string { return fmt.Sprint(c.Geteuid()) }},
	{name: "libc:setuid(1002)", run: func(_ *simos.Proc, c *simos.CLib, _ int) string { return c.Setuid(1002).Name() }},
	{name: "libc:setresuid(1002,1000,1001)", run: func(_ *simos.Proc, c *simos.CLib, _ int) string {
		return c.Setresuid(1002, 1000, 1001).Name()
	}},
}

// conformanceRow runs one call in a fresh process and renders its row:
//
//	scenario mode call arch => result | cred | own | delta | trace
//
// cred is the caller's real/effective/saved/fs uid and gid quartets,
// supplementary groups and effective/permitted capabilities, all as its
// own namespace sees them; own is the target's true (global) owner, type
// and mode, then the owner the process sees through the same surface the
// call used (stat through libc for libc: rows); delta lists the kernel
// counters and virtual nanoseconds the call added; trace lists its events
// as name/errno[/handler].
func conformanceRow(t *testing.T, sc matrixScenario, m matrixMode, call matrixCall, arch *sysarch.Arch) string {
	p, fs := sc.setup(t, arch)
	fd, e := p.Open("/f", simos.OFlags{})
	if e != errno.OK {
		t.Fatalf("%s/%s: open /f: %v", sc.name, arch.Name, e)
	}
	m.attach(t, p)
	c := &simos.CLib{P: p, Hooks: p.Preloads()}
	k := p.Kernel()
	var trace []string
	k.Tracer = func(ev simos.TraceEvent) {
		s := ev.Name + "/" + errno.Errno(ev.Errno).Name()
		if ev.Handled != "" {
			s += "/" + ev.Handled
		}
		trace = append(trace, s)
	}
	before, vns := k.Snapshot(), k.VirtualNanos()
	result := call.run(p, c, fd)
	after := k.Snapshot()
	delta := []struct {
		name string
		d    uint64
	}{
		{"sys", after.Syscalls - before.Syscalls},
		{"filt", after.Filtered - before.Filtered},
		{"faked", after.Faked - before.Faked},
		{"stops", after.PtraceStops - before.PtraceStops},
		{"preload", after.PreloadHits - before.PreloadHits},
		{"notif", after.NotifEvents - before.NotifEvents},
		{"vns", uint64(k.VirtualNanos() - vns)},
	}
	k.Tracer = nil

	var b strings.Builder
	fmt.Fprintf(&b, "%s %s %s %s => %s | ", sc.name, m.name, call.name, arch.Name, result)
	cr := p.Cred()
	ns := cr.NS
	groups := make([]int, len(cr.Groups))
	for i, g := range cr.Groups {
		groups[i] = ns.ViewGID(g)
	}
	fmt.Fprintf(&b, "u=%d/%d/%d/%d g=%d/%d/%d/%d grp=%v cap=%s/%s | ",
		ns.ViewUID(cr.RUID), ns.ViewUID(cr.EUID), ns.ViewUID(cr.SUID), ns.ViewUID(cr.FSUID),
		ns.ViewGID(cr.RGID), ns.ViewGID(cr.EGID), ns.ViewGID(cr.SGID), ns.ViewGID(cr.FSGID),
		groups, capString(cr.CapEffective), capString(cr.CapPermitted))
	if call.target == "" {
		b.WriteString("-")
	} else {
		st, e := fs.Stat(vfs.RootContext(), call.target, call.follow)
		if e != errno.OK {
			b.WriteString(e.Name())
		} else {
			fmt.Fprintf(&b, "%d:%d %s %04o", st.UID, st.GID, st.Type, st.Mode)
		}
		var view vfs.Stat
		switch {
		case strings.HasPrefix(call.name, "libc:"):
			view, e = libcStat(c, call.target, call.follow)
		case call.follow:
			view, e = p.Stat(call.target)
		default:
			view, e = p.Lstat(call.target)
		}
		if e != errno.OK {
			fmt.Fprintf(&b, " view=%s", e.Name())
		} else {
			fmt.Fprintf(&b, " view=%d:%d", view.UID, view.GID)
		}
	}
	b.WriteString(" |")
	for _, d := range delta {
		if d.d != 0 {
			fmt.Fprintf(&b, " %s+%d", d.name, d.d)
		}
	}
	b.WriteString(" | " + strings.Join(trace, " "))
	return b.String()
}

func capString(s simos.CapSet) string {
	switch s {
	case simos.CapFull:
		return "full"
	case 0:
		return "0"
	}
	return fmt.Sprintf("%#x", uint64(s))
}

// conformanceTable renders the whole matrix: the Type III scenario under
// every mode on every architecture, then the init-namespace scenarios
// with no emulation, where the kernel's own credential rules decide.
func conformanceTable(t *testing.T) []byte {
	var b bytes.Buffer
	b.WriteString("# Identity-and-ownership conformance matrix; see conformance_test.go.\n")
	b.WriteString("# scenario mode call arch => result | cred | own | delta | trace\n")
	row := func(sc matrixScenario, m matrixMode, arch *sysarch.Arch, call matrixCall) {
		b.WriteString(conformanceRow(t, sc, m, call, arch))
		b.WriteByte('\n')
	}
	for _, m := range matrixModes {
		for _, call := range matrixCalls {
			for _, arch := range sysarch.All() {
				row(typeIII, m, arch, call)
			}
		}
	}
	for _, sc := range []matrixScenario{rootScenario, userScenario, savedScenario} {
		for _, call := range matrixCalls {
			row(sc, matrixModes[0], sysarch.X8664, call)
		}
	}
	return b.Bytes()
}

func TestConformanceMatrix(t *testing.T) {
	got := conformanceTable(t)
	want, err := os.ReadFile(conformanceGolden)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(got, want) {
		os.Remove(conformanceGot)
		return
	}
	if err := os.WriteFile(conformanceGot, got, 0o644); err != nil {
		t.Fatal(err)
	}
	wantRows := map[string]string{}
	for _, l := range strings.Split(string(want), "\n") {
		wantRows[rowKey(l)] = l
	}
	shown := 0
	for _, l := range strings.Split(string(got), "\n") {
		w := wantRows[rowKey(l)]
		delete(wantRows, rowKey(l))
		if w == l {
			continue
		}
		if shown++; shown <= 20 {
			t.Errorf("row changed:\n want %s\n  got %s", w, l)
		}
	}
	for _, w := range wantRows {
		if shown++; shown <= 20 {
			t.Errorf("row gone: %s", w)
		}
	}
	t.Errorf("%d rows differ from %s; the computed table is in %s",
		shown, conformanceGolden, conformanceGot)
}

// rowKey is a row's scenario, mode, call and arch.
func rowKey(line string) string {
	if i := strings.Index(line, " => "); i >= 0 {
		return line[:i]
	}
	return line
}
