package pkgmgr

import (
	"archive/tar"
	"bytes"
	"strings"
	"testing"

	"repro/internal/vfs"
)

// Failure injection: corrupted archives, broken scripts, missing
// dependencies — the managers must fail loudly, never install partially
// silently.

func TestParseAPKCorruptArchive(t *testing.T) {
	if _, err := ParseAPK([]byte("this is not a tar archive at all, period")); err == nil {
		t.Fatal("corrupt apk must fail")
	}
}

func TestParseAPKMissingPkginfo(t *testing.T) {
	// A valid tar without .PKGINFO.
	blob, err := BuildDEB(&Package{Name: "x", Version: "1"}) // deb tar has "control", not ".PKGINFO"
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ParseAPK(blob); err == nil {
		t.Fatal("apk without .PKGINFO must fail")
	}
}

func TestParseRPMTruncatedPayload(t *testing.T) {
	full, err := BuildRPM(&Package{
		Name: "x", Version: "1",
		Files: []FileSpec{{Path: "/f", Type: vfs.TypeRegular, Mode: 0o644,
			Data: []byte("0123456789abcdef0123456789abcdef")}},
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, cut := range []int{4, 8, 20, len(full) / 2} {
		if _, err := ParseRPM(full[:cut]); err == nil {
			t.Errorf("truncated rpm at %d bytes parsed", cut)
		}
	}
}

func TestParseDEBMissingControl(t *testing.T) {
	blob, err := BuildAPK(&Package{Name: "x", Version: "1"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ParseDEB(blob); err == nil {
		t.Fatal("deb without control must fail")
	}
}

func TestYumMissingPackage(t *testing.T) {
	_, p := containerWorld(t, DistroCentOS7)
	status, out := runCmd(t, p, "yum install -y no-such-package")
	if status == 0 || !strings.Contains(out, "not found") {
		t.Fatalf("status=%d out=%q", status, out)
	}
}

func TestApkMissingDependency(t *testing.T) {
	w, p := containerWorld(t, DistroAlpine)
	w.Alpine.MustAdd(&Package{
		Name: "broken-dep", Version: "1", Depends: []string{"ghost-lib"},
		Files: []FileSpec{{Path: "/x", Type: vfs.TypeRegular, Mode: 0o644}},
	})
	status, out := runCmd(t, p, "apk add broken-dep")
	if status == 0 {
		t.Fatalf("missing dep must fail:\n%s", out)
	}
	// Nothing from the broken transaction landed.
	if _, e := p.Stat("/x"); e.Ok() {
		t.Fatal("partial install leaked files")
	}
}

func TestFailingPostInstallScriptFailsInstall(t *testing.T) {
	w, p := containerWorld(t, DistroAlpine)
	w.Alpine.MustAdd(&Package{
		Name: "bad-script", Version: "1", PostInstall: "false",
		Files: []FileSpec{{Path: "/usr/share/bad", Type: vfs.TypeRegular, Mode: 0o644}},
	})
	status, out := runCmd(t, p, "apk add bad-script")
	if status == 0 {
		t.Fatalf("failing post-install must fail the add:\n%s", out)
	}
	if !strings.Contains(out, "post-install script failed") {
		t.Fatalf("out:\n%s", out)
	}
}

func TestDpkgCorruptBlobInRepo(t *testing.T) {
	w, p := containerWorld(t, DistroDebian)
	// Sabotage the blob behind a published name.
	w.Debian.blobs["curl"] = []byte("garbage")
	status, out := runCmd(t, p, "apt-get -o APT::Sandbox::User=root install -y curl")
	if status == 0 {
		t.Fatalf("corrupt deb must fail:\n%s", out)
	}
}

// A package member FileSpec cannot express — a hard link, a type tar
// knows but the simulation does not — fails the parse instead of turning
// into a zero-type (regular file) spec.
func TestParsePayloadRejectsInexpressibleMember(t *testing.T) {
	formats := []struct {
		meta, text string
		parse      func([]byte) (*Package, error)
	}{
		{".PKGINFO", "pkgname = x\npkgver = 1\n", ParseAPK},
		{"control", "Package: x\nVersion: 1\n", ParseDEB},
	}
	members := []*tar.Header{
		{Name: "usr/bin/b", Linkname: "usr/bin/a", Typeflag: tar.TypeLink},
		{Name: "usr/bin/c", Typeflag: tar.TypeCont},
	}
	for _, f := range formats {
		for _, m := range members {
			var buf bytes.Buffer
			tw := tar.NewWriter(&buf)
			tw.WriteHeader(&tar.Header{Name: f.meta, Typeflag: tar.TypeReg, Mode: 0o644, Size: int64(len(f.text))})
			tw.Write([]byte(f.text))
			tw.WriteHeader(&tar.Header{Name: "usr/bin/a", Typeflag: tar.TypeReg, Mode: 0o755})
			if err := tw.WriteHeader(m); err != nil {
				t.Fatal(err)
			}
			if err := tw.Close(); err != nil {
				t.Fatal(err)
			}
			if p, err := f.parse(buf.Bytes()); err == nil {
				t.Errorf("%s with a type %q member parsed: %+v", f.meta, m.Typeflag, p.Files)
			}
		}
	}
}
