package pkgmgr

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/image"
	"repro/internal/shell"
	"repro/internal/simos"
	"repro/internal/tarutil"
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

// BaseImage builds the single-layer base image for a distro from a table
// of its entries: directories, files and symlinks, all owned 0:0 and
// stamped with one fixed mtime, not wall time — layer bytes, and
// therefore digests, the keys of the persistent build cache, must be
// identical across processes, or every invocation would start cold. The
// entries go to image.FromEntries, which packs and digests them and keeps
// them as the image's seed; no tree is built until a build first needs
// one (see image.Store.Flatten).
func (w *World) BaseImage(distro, name string) (*image.Image, error) {
	epoch := time.Date(2024, 5, 9, 0, 0, 0, 0, time.UTC) // the simulated kernel's base time
	// The table is built once at its final size: 48 holds every stock base.
	ents := make([]tarutil.Entry, 0, 48)
	add := func(p string, typ vfs.FileType, mode uint32, data, target string) {
		// A file's size is its data's, a symlink's its target's.
		ent := tarutil.Entry{Path: p, Target: target, Stat: vfs.Stat{
			Type: typ, Mode: mode, Mtime: epoch, Size: int64(len(data) + len(target)),
		}}
		if typ == vfs.TypeRegular {
			ent.Data = []byte(data)
		}
		ents = append(ents, ent)
	}
	dir := func(p string) { add(p, vfs.TypeDir, 0o755, "", "") }
	file := func(p string, mode uint32, data string) { add(p, vfs.TypeRegular, mode, data, "") }
	link := func(p, target string) { add(p, vfs.TypeSymlink, 0o777, "", target) }

	for _, d := range []string{"/bin", "/sbin", "/usr", "/usr/bin", "/usr/sbin",
		"/usr/lib", "/etc", "/var", "/root", "/home", "/lib"} {
		dir(d)
	}
	add("/tmp", vfs.TypeDir, 0o1777, "", "")

	// The multi-call coreutils binary plus applet symlinks.
	file("/bin/busybox", 0o755, "ELF busybox")
	file("/bin/sh.real", 0o755, "ELF sh")
	link("/bin/sh", "sh.real")
	for _, name := range []string{"echo", "true", "false", "cat", "id",
		"whoami", "ls", "touch", "mkdir", "rm", "chown", "chmod", "mknod",
		"stat", "ln", "readlink", "uname", "env", "sl", "sleep"} {
		link("/bin/"+name, "busybox")
	}

	passwd := "root:x:0:0:root:/root:/bin/sh\nnobody:x:65534:65534:nobody:/:/sbin/nologin\n"
	switch distro {
	case DistroAlpine:
		file("/etc/alpine-release", 0o644, "3.19.1\n")
		file("/sbin/apk", 0o755, "ELF apk")
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
		dir("/lib/apk")
		dir("/lib/apk/db")
		file("/lib/apk/db/installed", 0o644, db)
	case DistroCentOS7:
		file("/etc/centos-release", 0o644, "CentOS Linux release 7.9.2009 (Core)\n")
		file("/usr/bin/yum", 0o755, "ELF yum")
		link("/usr/bin/dnf", "yum")
		file("/usr/bin/rpm", 0o755, "ELF rpm")
	case DistroDebian:
		file("/etc/debian_version", 0o644, "12.5\n")
		file("/usr/bin/apt-get", 0o755, "ELF apt-get")
		link("/usr/bin/apt", "apt-get")
		file("/usr/bin/dpkg", 0o755, "ELF dpkg")
		dir("/usr/lib/apt")
		dir("/usr/lib/apt/methods")
		file("/usr/lib/apt/methods/http", 0o755, "ELF http")
		passwd += "_apt:x:100:65534::/nonexistent:/usr/sbin/nologin\n"
	default:
		return nil, fmt.Errorf("pkgmgr: unknown distro %q", distro)
	}
	file("/etc/passwd", 0o644, passwd)
	file("/etc/group", 0o644, "root:x:0:\nnobody:x:65534:\n")
	// Sort an index, not the table: an Entry is too large to move through
	// sort's swaps. Paths are unique, so the order is total.
	order := make([]int, len(ents))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(i, j int) bool { return tarutil.PathLess(ents[order[i]].Path, ents[order[j]].Path) })
	sorted := make([]tarutil.Entry, len(ents))
	for i, k := range order {
		sorted[i] = ents[k]
	}

	return image.FromEntries(name, sorted, image.Config{
		Env:    []string{"PATH=/usr/local/sbin:/usr/local/bin:/usr/sbin:/usr/bin:/sbin:/bin"},
		Cmd:    []string{"/bin/sh"},
		Labels: map[string]string{DistroLabel: distro},
		Arch:   "x86_64",
	})
}

// stockBases maps each base image every World provides to its distro.
// Nothing puts them into a store in advance: a build resolves one from
// its World the first time a FROM or COPY --from names it.
var stockBases = map[string]string{
	"alpine:3.19": DistroAlpine,
	"centos:7":    DistroCentOS7,
	"debian:12":   DistroDebian,
}

// StockBase returns the distro of the stock base image ref; ok is false
// when ref names none.
func StockBase(ref string) (distro string, ok bool) {
	distro, ok = stockBases[ref]
	return distro, ok
}

// StockBases lists the names of the stock base images, sorted.
func StockBases() []string {
	names := make([]string, 0, len(stockBases))
	for name := range stockBases {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
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
