package pkgmgr

import (
	"bytes"
	"context"
	"reflect"
	"strings"
	"sync"
	"testing"

	"repro/internal/cas"
	"repro/internal/container"
	"repro/internal/errno"
	"repro/internal/image"
	"repro/internal/simos"
	"repro/internal/tarutil"
	"repro/internal/vfs"
)

func TestAPKFormatRoundTrip(t *testing.T) {
	p := &Package{
		Name: "demo", Version: "1.0-r0", Size: 12,
		Depends:     []string{"libdemo", "base"},
		Trigger:     "demo.trigger",
		PostInstall: "echo post\ntrue",
		Files: []FileSpec{
			{Path: "/usr/bin/demo", Type: vfs.TypeRegular, Mode: 0o755, Data: []byte("ELF")},
			{Path: "/usr/lib/demo", Type: vfs.TypeDir, Mode: 0o755},
			{Path: "/usr/bin/demo-link", Type: vfs.TypeSymlink, Target: "demo"},
		},
	}
	blob, err := BuildAPK(p)
	if err != nil {
		t.Fatal(err)
	}
	q, err := ParseAPK(blob)
	if err != nil {
		t.Fatal(err)
	}
	if q.Name != "demo" || q.Version != "1.0-r0" || len(q.Depends) != 2 ||
		q.Trigger != "demo.trigger" || q.PostInstall != "echo post\ntrue" {
		t.Fatalf("meta: %+v", q)
	}
	if len(q.Files) != 3 || q.Files[0].Path != "/usr/bin/demo" ||
		string(q.Files[0].Data) != "ELF" || q.Files[2].Target != "demo" {
		t.Fatalf("files: %+v", q.Files)
	}
}

func TestRPMFormatRoundTrip(t *testing.T) {
	p := &Package{
		Name: "openssh", Version: "7.4p1-23.el7_9", Arch: "x86_64",
		Depends: []string{"fipscheck"},
		Files: []FileSpec{
			{Path: "/usr/sbin/sshd", Type: vfs.TypeRegular, Mode: 0o755, Data: []byte("ELF sshd")},
			{Path: "/usr/libexec/openssh/ssh-keysign", Type: vfs.TypeRegular,
				Mode: 0o2555, UID: 0, GID: 998, Data: []byte("ELF")},
			{Path: "/dev/demo", Type: vfs.TypeCharDev, Mode: 0o666, Major: 1, Minor: 3},
		},
	}
	blob, err := BuildRPM(p)
	if err != nil {
		t.Fatal(err)
	}
	q, err := ParseRPM(blob)
	if err != nil {
		t.Fatal(err)
	}
	if q.Name != "openssh" || len(q.Files) != 3 {
		t.Fatalf("meta: %+v", q)
	}
	if q.Files[1].GID != 998 || q.Files[1].Mode != 0o2555 {
		t.Fatalf("ownership lost: %+v", q.Files[1])
	}
	if q.Files[2].Type != vfs.TypeCharDev || q.Files[2].Major != 1 {
		t.Fatalf("device: %+v", q.Files[2])
	}
	if fullRPMName(q) != "openssh-7.4p1-23.el7_9.x86_64" {
		t.Fatalf("full name: %s", fullRPMName(q))
	}
}

func TestRPMBadMagic(t *testing.T) {
	if _, err := ParseRPM([]byte("not an rpm at all")); err == nil {
		t.Fatal("bad magic must fail")
	}
}

func TestDEBFormatRoundTrip(t *testing.T) {
	p := &Package{
		Name: "curl", Version: "7.88.1-10", Depends: []string{"libcurl4"},
		PostInstall: "true",
		Files: []FileSpec{
			{Path: "/usr/bin/curl", Type: vfs.TypeRegular, Mode: 0o755, Data: []byte("ELF")},
		},
	}
	blob, err := BuildDEB(p)
	if err != nil {
		t.Fatal(err)
	}
	q, err := ParseDEB(blob)
	if err != nil {
		t.Fatal(err)
	}
	if q.Name != "curl" || q.Depends[0] != "libcurl4" || q.PostInstall != "true" {
		t.Fatalf("meta: %+v", q)
	}
}

func TestRepoResolveTopological(t *testing.T) {
	r := NewRepo("http://example", "apk")
	r.MustAdd(&Package{Name: "a", Version: "1", Depends: []string{"b", "c"}})
	r.MustAdd(&Package{Name: "b", Version: "1", Depends: []string{"c"}})
	r.MustAdd(&Package{Name: "c", Version: "1"})
	order, err := r.Resolve([]string{"a"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, p := range order {
		names = append(names, p.Name)
	}
	if strings.Join(names, ",") != "c,b,a" {
		t.Fatalf("order: %v", names)
	}
}

func TestRepoResolveSkipsInstalled(t *testing.T) {
	r := NewRepo("http://example", "apk")
	r.MustAdd(&Package{Name: "a", Version: "1", Depends: []string{"b"}})
	r.MustAdd(&Package{Name: "b", Version: "1"})
	order, err := r.Resolve([]string{"a"}, map[string]bool{"b": true})
	if err != nil || len(order) != 1 || order[0].Name != "a" {
		t.Fatalf("order: %v err: %v", order, err)
	}
}

func TestRepoResolveMissing(t *testing.T) {
	r := NewRepo("http://example", "apk")
	if _, err := r.Resolve([]string{"ghost"}, nil); err == nil {
		t.Fatal("missing package must fail")
	}
}

func TestRepoResolveCycle(t *testing.T) {
	r := NewRepo("http://example", "apk")
	r.MustAdd(&Package{Name: "a", Version: "1", Depends: []string{"b"}})
	r.MustAdd(&Package{Name: "b", Version: "1", Depends: []string{"a"}})
	if _, err := r.Resolve([]string{"a"}, nil); err == nil {
		t.Fatal("cycle must fail")
	}
}

// containerWorld builds a Type III container on a distro base image with
// the distro's toolchain, mirroring what the builder does per RUN.
func containerWorld(t *testing.T, distro string) (*World, *simos.Proc) {
	t.Helper()
	w := NewWorld()
	img, err := w.BaseImage(distro, distro+":test")
	if err != nil {
		t.Fatal(err)
	}
	fs, err := img.Flatten()
	if err != nil {
		t.Fatal(err)
	}
	fs.ChownAll(1000, 1000)
	k := simos.NewKernel()
	p := k.NewInitProc(simos.Mount{FS: vfs.New(), Owner: k.InitNS()}, 1000, 1000)
	if err := container.Enter(p, container.Options{Type: container.TypeIII, RootFS: fs}); err != nil {
		t.Fatal(err)
	}
	reg, err := w.Toolchain(distro)
	if err != nil {
		t.Fatal(err)
	}
	p.SetRegistry(reg)
	return w, p
}

func runCmd(t *testing.T, p *simos.Proc, line string) (int, string) {
	t.Helper()
	var out strings.Builder
	status, e := p.Exec([]string{"/bin/sh", "-c", line},
		map[string]string{"PATH": "/usr/local/sbin:/usr/local/bin:/usr/sbin:/usr/bin:/sbin:/bin"},
		nil, &out, &out)
	if e != errno.OK {
		t.Fatalf("exec: %v", e)
	}
	return status, out.String()
}

func TestApkAddInContainerNoEmulation(t *testing.T) {
	// Fig. 1a at the package-manager level.
	_, p := containerWorld(t, DistroAlpine)
	status, out := runCmd(t, p, "apk add sl")
	if status != 0 {
		t.Fatalf("apk add failed (%d):\n%s", status, out)
	}
	if !strings.Contains(out, "(3/3) Installing sl") {
		t.Fatalf("out:\n%s", out)
	}
	// The binary landed and is runnable.
	if status, _ := runCmd(t, p, "sl"); status != 0 {
		t.Fatal("installed sl does not run")
	}
	// Idempotent: second add installs nothing new.
	_, out = runCmd(t, p, "apk add sl")
	if strings.Contains(out, "Installing sl") {
		t.Fatalf("reinstalled:\n%s", out)
	}
}

func TestYumInstallFailsInContainerNoEmulation(t *testing.T) {
	// Fig. 1b at the package-manager level.
	_, p := containerWorld(t, DistroCentOS7)
	status, out := runCmd(t, p, "yum install -y openssh")
	if status == 0 {
		t.Fatalf("yum must fail:\n%s", out)
	}
	if !strings.Contains(out, "cpio: chown failed - Invalid argument") {
		t.Fatalf("out:\n%s", out)
	}
}

func TestYumInstallAllRootPackageSucceeds(t *testing.T) {
	// The all-root "which" package has no foreign owners: rpm's chowns
	// are no-ops and the install works even without emulation.
	_, p := containerWorld(t, DistroCentOS7)
	status, out := runCmd(t, p, "yum install -y which")
	if status != 0 {
		t.Fatalf("which install failed:\n%s", out)
	}
	if !strings.Contains(out, "Complete!") {
		t.Fatalf("out:\n%s", out)
	}
}

func TestRPMLocalInstall(t *testing.T) {
	w, p := containerWorld(t, DistroCentOS7)
	blob, _ := w.CentOS7.Fetch("which")
	p.WriteFileAll("/tmp/which.rpm", blob, 0o644)
	status, out := runCmd(t, p, "rpm -i /tmp/which.rpm")
	if status != 0 {
		t.Fatalf("rpm -i failed:\n%s", out)
	}
}

func TestAptInstallFailsNoEmulation(t *testing.T) {
	_, p := containerWorld(t, DistroDebian)
	status, out := runCmd(t, p, "apt-get install -y curl")
	if status == 0 {
		t.Fatalf("apt must fail:\n%s", out)
	}
	if !strings.Contains(out, "setresuid 100 failed") {
		t.Fatalf("out:\n%s", out)
	}
}

func TestAptInstallSandboxDisabled(t *testing.T) {
	// Without emulation but with the sandbox off, dpkg's chown 0:0 is a
	// no-op and the install completes.
	_, p := containerWorld(t, DistroDebian)
	status, out := runCmd(t, p, "apt-get -o APT::Sandbox::User=root install -y curl")
	if status != 0 {
		t.Fatalf("apt with sandbox off failed:\n%s", out)
	}
	if !strings.Contains(out, "unsandboxed as root") {
		t.Fatalf("out:\n%s", out)
	}
}

func TestToolchainUnknownDistro(t *testing.T) {
	w := NewWorld()
	if _, err := w.Toolchain("slackware"); err == nil {
		t.Fatal("unknown distro must fail")
	}
	if _, err := w.BaseImage("slackware", "x"); err == nil {
		t.Fatal("unknown distro must fail")
	}
}

// repoFor returns the repository a distro's package managers draw from.
func repoFor(w *World, distro string) (*Repo, bool) {
	switch distro {
	case DistroAlpine:
		return w.Alpine, true
	case DistroCentOS7:
		return w.CentOS7, true
	case DistroDebian:
		return w.Debian, true
	}
	return nil, false
}

func TestWorldRepoFor(t *testing.T) {
	w := NewWorld()
	for _, d := range []string{DistroAlpine, DistroCentOS7, DistroDebian} {
		if r, ok := repoFor(w, d); !ok || r == nil {
			t.Errorf("no repo for %s", d)
		}
	}
	if _, ok := repoFor(w, "gentoo"); ok {
		t.Error("gentoo repo should not exist")
	}
}

func TestBaseImagesHaveDistroLabel(t *testing.T) {
	w := NewWorld()
	for _, d := range []string{DistroAlpine, DistroCentOS7, DistroDebian} {
		img, err := w.BaseImage(d, d+":x")
		if err != nil {
			t.Fatal(err)
		}
		if img.Config.Distro() != d {
			t.Errorf("%s: label %q", d, img.Config.Distro())
		}
	}
}

func TestPostInstallScriptRuns(t *testing.T) {
	w, p := containerWorld(t, DistroAlpine)
	w.Alpine.MustAdd(&Package{
		Name: "scripted", Version: "1.0", Size: 1,
		PostInstall: "echo post-ran > /tmp/marker",
		Files: []FileSpec{
			{Path: "/usr/share/scripted", Type: vfs.TypeRegular, Mode: 0o644, Data: []byte("x")},
		},
	})
	status, out := runCmd(t, p, "apk add scripted")
	if status != 0 {
		t.Fatalf("install failed:\n%s", out)
	}
	if _, e := p.Stat("/tmp/marker"); e != errno.OK {
		t.Fatal("post-install script did not run")
	}
}

func TestExtractPreservesModes(t *testing.T) {
	w, p := containerWorld(t, DistroAlpine)
	w.Alpine.MustAdd(&Package{
		Name: "modes", Version: "1", Size: 1,
		Files: []FileSpec{
			{Path: "/usr/bin/exec", Type: vfs.TypeRegular, Mode: 0o755, Data: []byte("x")},
			{Path: "/etc/secret", Type: vfs.TypeRegular, Mode: 0o600, Data: []byte("x")},
		},
	})
	if status, out := runCmd(t, p, "apk add modes"); status != 0 {
		t.Fatalf("install failed:\n%s", out)
	}
	st, _ := p.Stat("/usr/bin/exec")
	if st.Mode != 0o755 {
		t.Errorf("exec mode %o", st.Mode)
	}
	st, _ = p.Stat("/etc/secret")
	if st.Mode != 0o600 {
		t.Errorf("secret mode %o", st.Mode)
	}
}

func TestDnfAliasWorks(t *testing.T) {
	_, p := containerWorld(t, DistroCentOS7)
	// dnf is a symlink to yum fronting the same engine; with no emulation
	// the openssh install fails identically.
	status, out := runCmd(t, p, "dnf install -y which")
	if status != 0 || !strings.Contains(out, "Complete!") {
		t.Fatalf("dnf install: %d\n%s", status, out)
	}
}

// The stock bases are exactly alpine:3.19, centos:7 and debian:12, in
// that order, each resolving to its distro, whose BaseImage is named for
// it and labelled with that distro; no other name resolves.
func TestStockBases(t *testing.T) {
	want := []string{"alpine:3.19", "centos:7", "debian:12"}
	if got := StockBases(); !reflect.DeepEqual(got, want) {
		t.Fatalf("stock bases %v, want %v", got, want)
	}
	w := NewWorld()
	for i, distro := range []string{DistroAlpine, DistroCentOS7, DistroDebian} {
		got, ok := StockBase(want[i])
		if !ok || got != distro {
			t.Fatalf("StockBase(%q) = %q, %v; want %q", want[i], got, ok, distro)
		}
		img, err := w.BaseImage(got, want[i])
		if err != nil {
			t.Fatal(err)
		}
		if img.Name != want[i] || img.Config.Distro() != distro {
			t.Errorf("%s: image %q of distro %q", want[i], img.Name, img.Config.Distro())
		}
	}
	for _, ref := range []string{"alpine", "alpine:latest", "centos7", "nosuch:1", ""} {
		if d, ok := StockBase(ref); ok {
			t.Errorf("StockBase(%q) = %q, want no stock base", ref, d)
		}
	}
}

// Concurrent first Fetches of one package encode it once and serve the
// same bytes; a later Add of that name drops the cached blob, so Fetch
// serves the new package, not the old encoding.
func TestRepoFetchConcurrent(t *testing.T) {
	w := NewWorld()
	const n = 8
	var wg sync.WaitGroup
	blobs := make([][]byte, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			blobs[i], _ = w.Alpine.Fetch("sl")
		}(i)
	}
	wg.Wait()
	meta, _ := w.Alpine.Meta("sl")
	want, err := BuildAPK(meta)
	if err != nil {
		t.Fatal(err)
	}
	for i, b := range blobs {
		if !bytes.Equal(b, want) {
			t.Fatalf("goroutine %d fetched %d bytes, not the package's encoding", i, len(b))
		}
	}

	next := &Package{Name: "sl", Version: "5.03-r0", Size: 30,
		Files: []FileSpec{{Path: "/usr/bin/sl", Type: vfs.TypeRegular, Mode: 0o755, Data: []byte("ELF sl 5.03")}}}
	w.Alpine.MustAdd(next)
	got, ok := w.Alpine.Fetch("sl")
	wantNext, err := BuildAPK(next)
	if err != nil {
		t.Fatal(err)
	}
	if !ok || !bytes.Equal(got, wantNext) {
		t.Fatalf("Fetch after Add: ok=%v, served the cached blob: %v", ok, bytes.Equal(got, want))
	}
}

// Putting a stock base hands its entry table to the store: the chain serves
// without a fill, its entries equal a fresh unpack of the layer (type,
// mode, owner, xattrs, target, data; layer diffs ignore mtime), and so
// does the tree its first Flatten builds. Only the image FromEntries
// returned, with its layers untouched, carries entries.
func TestSeededBaseTreeMatchesUnpack(t *testing.T) {
	ctx := context.Background()
	root := t.TempDir()
	d, _, err := cas.Open(root)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	w := NewWorld()
	s := image.NewStore()
	s.SetBacking(d)
	for _, name := range StockBases() {
		distro, _ := StockBase(name)
		img, err := w.BaseImage(distro, name)
		if err != nil {
			t.Fatal(err)
		}
		s.Put(img)
	}
	same := func(name string, a, b []tarutil.Entry) {
		t.Helper()
		if len(a) != len(b) || len(tarutil.Diff(a, b)) != 0 || len(tarutil.Diff(b, a)) != 0 {
			t.Errorf("%s: %d entries differ from %d unpacked", name, len(a), len(b))
		}
	}
	for _, name := range []string{"alpine:3.19", "centos:7", "debian:12"} {
		img, ok := s.GetContext(ctx, name)
		if !ok || len(img.Layers) != 1 {
			t.Fatalf("%s: not put as one layer", name)
		}
		entries, err := s.FlattenedEntries(ctx, img)
		if err != nil {
			t.Fatal(err)
		}
		unpacked := vfs.New()
		if err := tarutil.Unpack(unpacked, img.Layers[0].Data); err != nil {
			t.Fatal(err)
		}
		want, err := tarutil.Snapshot(unpacked)
		if err != nil {
			t.Fatal(err)
		}
		same(name, entries, want)
		fs, err := s.Flatten(ctx, img)
		if err != nil {
			t.Fatal(err)
		}
		tree, err := tarutil.Snapshot(fs)
		if err != nil {
			t.Fatal(err)
		}
		same(name+" tree", tree, want)
		if packed, err := tarutil.Pack(entries); err != nil || !bytes.Equal(packed, img.Layers[0].Data) {
			t.Errorf("%s: packed entries differ from the layer bytes (err=%v)", name, err)
		}
	}
	if fills := s.FlattenFills(); fills != 0 {
		t.Fatalf("stock bases filled %d chains, want 0", fills)
	}

	// Each image below carries no usable tree, so its chain fills exactly
	// once however often it is flattened.
	replaced, err := w.BaseImage(DistroAlpine, "replaced:1")
	if err != nil {
		t.Fatal(err)
	}
	debian, _ := s.GetContext(ctx, "debian:12")
	replaced.Layers = debian.Layers
	clone, err := w.BaseImage(DistroCentOS7, "clone:1")
	if err != nil {
		t.Fatal(err)
	}
	loaded := image.NewStore()
	loaded.SetBacking(d)
	for _, c := range []struct {
		name  string
		store *image.Store
		img   func() *image.Image
	}{
		{"layers replaced after FromEntries", image.NewStore(), func() *image.Image { return replaced }},
		{"Clone", image.NewStore(), func() *image.Image { return clone.Clone("clone:1") }},
		{"GetContext-loaded tag", loaded, func() *image.Image {
			img, ok := loaded.GetContext(ctx, "alpine:3.19")
			if !ok {
				t.Fatal("stock base tag not persisted")
			}
			return img
		}},
	} {
		img := c.img()
		c.store.Put(img)
		for i := 0; i < 2; i++ {
			if _, err := c.store.Flatten(ctx, img); err != nil {
				t.Fatalf("%s: %v", c.name, err)
			}
		}
		if fills := c.store.FlattenFills(); fills != 1 {
			t.Errorf("%s: fills = %d, want 1", c.name, fills)
		}
	}
	// Nor is replaced's tree seeded under the alpine chain it was packed
	// into: flattening that chain in the same store fills as well.
	st := image.NewStore()
	st.Put(replaced)
	fs, err := st.Flatten(ctx, replaced)
	if err != nil {
		t.Fatal(err)
	}
	if !fs.Exists(vfs.RootContext(), "/etc/debian_version") {
		t.Error("an image with replaced layers flattened to its seeded tree")
	}
	alpine, _ := s.GetContext(ctx, "alpine:3.19")
	if _, err := st.Flatten(ctx, alpine.Clone("alpine:3.19")); err != nil {
		t.Fatal(err)
	}
	if fills := st.FlattenFills(); fills != 2 {
		t.Errorf("replaced layers: fills = %d, want 2 (no hand-off at all)", fills)
	}
}
