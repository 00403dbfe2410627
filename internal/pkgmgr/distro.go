package pkgmgr

import (
	"fmt"
	"time"

	"repro/internal/image"
	"repro/internal/shell"
	"repro/internal/simos"
	"repro/internal/vfs"
)

// Distro base images and their repositories — the synthetic stand-ins for
// alpine:3.19, centos:7 and debian:12. Each base image carries the files
// its package manager needs; the matching BinaryRegistry (Go functions
// cannot travel inside a tar layer) is derived from the image's distro
// label via Toolchain.

// DistroLabel is the image config label naming the distribution.
const DistroLabel = "org.repro.distro"

// Distros supported by the simulation.
const (
	DistroAlpine  = "alpine"
	DistroCentOS7 = "centos7"
	DistroDebian  = "debian"
)

// World bundles the repositories the simulated distributions draw from.
// The zero value is empty; NewWorld populates the stock packages.
type World struct {
	Alpine  *Repo
	CentOS7 *Repo
	Debian  *Repo
}

// NewWorld builds the standard repositories with the packages the paper's
// figures install (and a few more for wider tests).
func NewWorld() *World {
	w := &World{
		Alpine:  NewRepo("https://dl-cdn.alpinelinux.org/alpine/v3.19", "apk"),
		CentOS7: NewRepo("http://mirror.centos.org/centos/7", "rpm"),
		Debian:  NewRepo("http://deb.debian.org/debian", "deb"),
	}
	populateAlpine(w.Alpine)
	populateCentOS7(w.CentOS7)
	populateDebian(w.Debian)
	return w
}

// RepoFor returns the repository for a distro name.
func (w *World) RepoFor(distro string) (*Repo, bool) {
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

// Toolchain builds the binary registry for a distro: the shell and
// coreutils plus the distribution's package managers bound to their repo.
func (w *World) Toolchain(distro string) (*simos.BinaryRegistry, error) {
	reg := simos.NewBinaryRegistry()
	switch distro {
	case DistroAlpine:
		registerShellAndCoreutils(reg, true) // busybox: static
		reg.Register("/sbin/apk", APKBinary(w.Alpine))
	case DistroCentOS7:
		registerShellAndCoreutils(reg, false) // GNU coreutils: dynamic
		reg.Register("/usr/bin/yum", YumBinary(w.CentOS7))
		reg.Register("/usr/bin/dnf", YumBinary(w.CentOS7)) // dnf fronts the same engine
		reg.Register("/usr/bin/rpm", RPMBinary(w.CentOS7))
	case DistroDebian:
		registerShellAndCoreutils(reg, false)
		reg.Register("/usr/bin/apt-get", AptBinary(w.Debian))
		reg.Register("/usr/bin/apt", AptBinary(w.Debian))
		reg.Register("/usr/bin/dpkg", DpkgBinary(w.Debian))
		reg.Register("/usr/lib/apt/methods/http", AptMethodBinary())
	default:
		return nil, CheckDistro(distro)
	}
	return reg, nil
}

// CheckDistro reports the error Toolchain gives for a distro it does not
// know, without building a registry.
func CheckDistro(distro string) error {
	switch distro {
	case DistroAlpine, DistroCentOS7, DistroDebian:
		return nil
	}
	return fmt.Errorf("pkgmgr: unknown distro %q", distro)
}

func registerShellAndCoreutils(reg *simos.BinaryRegistry, static bool) {
	reg.Register("/bin/busybox", shell.Busybox(static))
	reg.Register("/bin/sh", shell.Binary())
	reg.Register("/bin/sh.real", shell.Binary())
}

// BaseImage builds the single-layer base image for a distro. The image
// filesystem is stamped with a fixed clock, not wall time: layer bytes —
// and therefore digests, the keys of the persistent build cache — must be
// identical across processes, or every invocation would start cold. The
// filesystem goes to image.FromFS and no reference stays here, so the
// store that takes the image owns its tree.
func (w *World) BaseImage(distro, name string) (*image.Image, error) {
	fs := vfs.New()
	epoch := time.Date(2024, 5, 9, 0, 0, 0, 0, time.UTC) // the simulated kernel's base time
	fs.SetClock(func() time.Time { return epoch })
	rc := vfs.RootContext()
	for _, d := range []string{"/bin", "/sbin", "/usr/bin", "/usr/sbin",
		"/usr/lib", "/etc", "/var", "/tmp", "/root", "/home", "/lib"} {
		fs.MkdirAll(rc, d, 0o755, 0, 0)
	}
	fs.Chmod(rc, "/tmp", 0o1777, true)

	// The multi-call coreutils binary plus applet symlinks.
	fs.WriteFile(rc, "/bin/busybox", []byte("ELF busybox"), 0o755, 0, 0)
	fs.WriteFile(rc, "/bin/sh.real", []byte("ELF sh"), 0o755, 0, 0)
	fs.Symlink(rc, "sh.real", "/bin/sh", 0, 0)
	for _, name := range []string{"echo", "true", "false", "cat", "id",
		"whoami", "ls", "touch", "mkdir", "rm", "chown", "chmod", "mknod",
		"stat", "ln", "readlink", "uname", "env", "sl", "sleep"} {
		fs.Symlink(rc, "busybox", "/bin/"+name, 0, 0)
	}

	passwd := "root:x:0:0:root:/root:/bin/sh\nnobody:x:65534:65534:nobody:/:/sbin/nologin\n"
	group := "root:x:0:\nnobody:x:65534:\n"
	switch distro {
	case DistroAlpine:
		fs.WriteFile(rc, "/etc/alpine-release", []byte("3.19.1\n"), 0o644, 0, 0)
		fs.WriteFile(rc, "/sbin/apk", []byte("ELF apk"), 0o755, 0, 0)
		// The 15 packages a stock alpine:3.19 ships with, so transcript
		// package counts line up with Figure 1a ("OK: 8 MiB in 18
		// packages" after installing 3 more).
		db := ""
		for _, p := range []string{"alpine-baselayout", "alpine-baselayout-data",
			"alpine-keys", "apk-tools", "busybox", "busybox-binsh", "ca-certificates-bundle",
			"libc-utils", "libcrypto3", "libssl3", "musl", "musl-utils", "scanelf",
			"ssl_client", "zlib"} {
			db += p + "\n"
		}
		fs.MkdirAll(rc, "/lib/apk/db", 0o755, 0, 0)
		fs.WriteFile(rc, "/lib/apk/db/installed", []byte(db), 0o644, 0, 0)
	case DistroCentOS7:
		fs.WriteFile(rc, "/etc/centos-release", []byte("CentOS Linux release 7.9.2009 (Core)\n"), 0o644, 0, 0)
		fs.WriteFile(rc, "/usr/bin/yum", []byte("ELF yum"), 0o755, 0, 0)
		fs.Symlink(rc, "yum", "/usr/bin/dnf", 0, 0)
		fs.WriteFile(rc, "/usr/bin/rpm", []byte("ELF rpm"), 0o755, 0, 0)
	case DistroDebian:
		fs.WriteFile(rc, "/etc/debian_version", []byte("12.5\n"), 0o644, 0, 0)
		fs.WriteFile(rc, "/usr/bin/apt-get", []byte("ELF apt-get"), 0o755, 0, 0)
		fs.Symlink(rc, "apt-get", "/usr/bin/apt", 0, 0)
		fs.WriteFile(rc, "/usr/bin/dpkg", []byte("ELF dpkg"), 0o755, 0, 0)
		fs.MkdirAll(rc, "/usr/lib/apt/methods", 0o755, 0, 0)
		fs.WriteFile(rc, "/usr/lib/apt/methods/http", []byte("ELF http"), 0o755, 0, 0)
		passwd += "_apt:x:100:65534::/nonexistent:/usr/sbin/nologin\n"
	default:
		return nil, fmt.Errorf("pkgmgr: unknown distro %q", distro)
	}
	fs.WriteFile(rc, "/etc/passwd", []byte(passwd), 0o644, 0, 0)
	fs.WriteFile(rc, "/etc/group", []byte(group), 0o644, 0, 0)

	return image.FromFS(name, fs, image.Config{
		Env:    []string{"PATH=/usr/local/sbin:/usr/local/bin:/usr/sbin:/usr/bin:/sbin:/bin"},
		Cmd:    []string{"/bin/sh"},
		Labels: map[string]string{DistroLabel: distro},
		Arch:   "x86_64",
	})
}

// SeedBases puts the stock base images — alpine:3.19, centos:7 and
// debian:12 — into s. A store with a backing persists them, so attach
// the backing first. It calls the context-free Store.Put because
// daemon.New, which seeds through it, has no context.
func (w *World) SeedBases(s *image.Store) error {
	for _, b := range []struct{ distro, name string }{
		{DistroAlpine, "alpine:3.19"},
		{DistroCentOS7, "centos:7"},
		{DistroDebian, "debian:12"},
	} {
		img, err := w.BaseImage(b.distro, b.name)
		if err != nil {
			return fmt.Errorf("pkgmgr: seed %s: %w", b.name, err)
		}
		s.Put(img)
	}
	return nil
}

// populateAlpine: the Fig. 1a workload. Every file is root:root, so apk
// needs no chown at all.
func populateAlpine(r *Repo) {
	r.MustAdd(&Package{
		Name: "ncurses-terminfo-base", Version: "6.4_p20231125-r0", Size: 96,
		Files: []FileSpec{
			{Path: "/etc/terminfo", Type: vfs.TypeDir, Mode: 0o755},
			{Path: "/etc/terminfo/x/xterm", Type: vfs.TypeRegular, Mode: 0o644,
				Data: []byte("xterm|xterm terminal emulator")},
		},
	})
	r.MustAdd(&Package{
		Name: "libncursesw", Version: "6.4_p20231125-r0", Size: 560,
		Depends: []string{"ncurses-terminfo-base"},
		Files: []FileSpec{
			{Path: "/usr/lib/libncursesw.so.6.4", Type: vfs.TypeRegular, Mode: 0o755,
				Data: []byte("ELF libncursesw")},
			{Path: "/usr/lib/libncursesw.so.6", Type: vfs.TypeSymlink, Target: "libncursesw.so.6.4"},
		},
	})
	r.MustAdd(&Package{
		Name: "sl", Version: "5.02-r1", Size: 28,
		Depends: []string{"libncursesw"},
		Trigger: "busybox-1.36.1-r15.trigger",
		Files: []FileSpec{
			{Path: "/usr/bin/sl", Type: vfs.TypeRegular, Mode: 0o755, Data: []byte("ELF sl")},
		},
	})
	// A package with a non-root owner, to show apk *can* hit chown.
	r.MustAdd(&Package{
		Name: "nonroot-demo", Version: "1.0-r0", Size: 4,
		Files: []FileSpec{
			{Path: "/var/lib/demo", Type: vfs.TypeDir, Mode: 0o750, UID: 405, GID: 405},
		},
	})
}

// populateCentOS7: the Fig. 1b workload. The openssh package carries a
// group-owned setgid helper; rpm's unconditional cpio chown on it is the
// failing call.
func populateCentOS7(r *Repo) {
	r.MustAdd(&Package{
		Name: "fipscheck-lib", Version: "1.4.1-6.el7", Arch: "x86_64", Size: 40,
		Files: []FileSpec{
			{Path: "/usr/lib64/libfipscheck.so.1", Type: vfs.TypeRegular, Mode: 0o755,
				Data: []byte("ELF libfipscheck")},
		},
	})
	r.MustAdd(&Package{
		Name: "fipscheck", Version: "1.4.1-6.el7", Arch: "x86_64", Size: 32,
		Depends: []string{"fipscheck-lib"},
		Files: []FileSpec{
			{Path: "/usr/bin/fipscheck", Type: vfs.TypeRegular, Mode: 0o755,
				Data: []byte("ELF fipscheck")},
		},
	})
	r.MustAdd(&Package{
		Name: "openssh", Version: "7.4p1-23.el7_9", Arch: "x86_64", Size: 1988,
		Depends:     []string{"fipscheck"},
		PostInstall: "true",
		Files: []FileSpec{
			{Path: "/etc/ssh", Type: vfs.TypeDir, Mode: 0o755},
			{Path: "/etc/ssh/moduli", Type: vfs.TypeRegular, Mode: 0o644, Data: []byte("# moduli")},
			{Path: "/usr/bin/ssh-keygen", Type: vfs.TypeRegular, Mode: 0o755, Data: []byte("ELF ssh-keygen")},
			{Path: "/var/empty/sshd", Type: vfs.TypeDir, Mode: 0o711},
			// The killer: group ssh_keys (gid 998), which no Type III
			// single mapping contains.
			{Path: "/usr/libexec/openssh/ssh-keysign", Type: vfs.TypeRegular,
				Mode: 0o2555, UID: 0, GID: 998, Data: []byte("ELF ssh-keysign")},
		},
	})
	// An all-root package that installs fine without emulation, for the
	// contrast experiment.
	r.MustAdd(&Package{
		Name: "which", Version: "2.20-7.el7", Arch: "x86_64", Size: 80,
		Files: []FileSpec{
			{Path: "/usr/bin/which", Type: vfs.TypeRegular, Mode: 0o755, Data: []byte("ELF which")},
		},
	})
}

// populateDebian: the apt workload (§5 exception).
func populateDebian(r *Repo) {
	r.MustAdd(&Package{
		Name: "libcurl4", Version: "7.88.1-10", Size: 760,
		Files: []FileSpec{
			{Path: "/usr/lib/x86_64-linux-gnu/libcurl.so.4", Type: vfs.TypeRegular,
				Mode: 0o644, Data: []byte("ELF libcurl")},
		},
	})
	r.MustAdd(&Package{
		Name: "curl", Version: "7.88.1-10", Size: 520,
		Depends: []string{"libcurl4"},
		Files: []FileSpec{
			{Path: "/usr/bin/curl", Type: vfs.TypeRegular, Mode: 0o755, Data: []byte("ELF curl")},
		},
	})
	// A package whose postinst setcaps a binary — the future-work case.
	r.MustAdd(&Package{
		Name: "iputils-ping", Version: "3:20221126-1", Size: 120,
		PostInstall: "true",
		Files: []FileSpec{
			{Path: "/usr/bin/ping", Type: vfs.TypeRegular, Mode: 0o755, Data: []byte("ELF ping")},
		},
	})
}
