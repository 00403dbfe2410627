package pkgmgr

import (
	"fmt"
	"strings"

	"repro/internal/errno"
	"repro/internal/simos"
)

// DEB format: control metadata plus a data tar. The real thing is an ar(5)
// archive holding control.tar and data.tar; we fold both into one tar where
// the metadata travels as ./control and files as the remaining members —
// dpkg's extraction profile (chown everything) is what matters.

// BuildDEB encodes a package.
func BuildDEB(p *Package) ([]byte, error) {
	var ctl strings.Builder
	fmt.Fprintf(&ctl, "Package: %s\n", p.Name)
	fmt.Fprintf(&ctl, "Version: %s\n", p.Version)
	if len(p.Depends) > 0 {
		fmt.Fprintf(&ctl, "Depends: %s\n", strings.Join(p.Depends, ", "))
	}
	fmt.Fprintf(&ctl, "Installed-Size: %d\n", p.Size)
	if p.PostInstall != "" {
		fmt.Fprintf(&ctl, "Postinst: %s\n", encodeScript(p.PostInstall))
	}
	return packPayload("control", ctl.String(), p.Files)
}

// ParseDEB decodes a package.
func ParseDEB(blob []byte) (*Package, error) {
	p := &Package{}
	files, err := readPayload(blob, "control", func(text string) { parseControl(p, text) })
	if err != nil {
		return nil, fmt.Errorf("pkgmgr: deb: %w", err)
	}
	p.Files = files
	if p.Name == "" {
		return nil, fmt.Errorf("pkgmgr: deb: missing control")
	}
	return p, nil
}

func parseControl(p *Package, text string) {
	for _, line := range strings.Split(text, "\n") {
		k, v, ok := strings.Cut(line, ": ")
		if !ok {
			continue
		}
		switch k {
		case "Package":
			p.Name = v
		case "Version":
			p.Version = v
		case "Depends":
			for _, d := range strings.Split(v, ",") {
				p.Depends = append(p.Depends, strings.TrimSpace(d))
			}
		case "Installed-Size":
			fmt.Sscanf(v, "%d", &p.Size)
		case "Postinst":
			p.PostInstall = decodeScript(v)
		}
	}
}

// dpkg status database.
const dpkgStatusDB = "/var/lib/dpkg/status"

// aptUID is the _apt user Debian creates for sandboxed downloads.
const aptUID = 100

// DpkgBinary builds /usr/bin/dpkg bound to a repository (for --install of
// fetched blobs).
func DpkgBinary(repo *Repo) *simos.Binary {
	return &simos.Binary{
		Name:   "dpkg",
		Static: false,
		Main: func(ctx *simos.ExecCtx) int {
			args := filterFlags(ctx.Argv[1:])
			if len(args) == 0 {
				fmt.Fprintln(ctx.Stderr, "dpkg: usage: dpkg -i PKG")
				return 1
			}
			for _, name := range args {
				blob, ok := repo.Fetch(name)
				if !ok {
					fmt.Fprintf(ctx.Stderr, "dpkg: package %s not available\n", name)
					return 1
				}
				pkg, err := ParseDEB(blob)
				if err != nil {
					fmt.Fprintf(ctx.Stderr, "dpkg: %v\n", err)
					return 1
				}
				if status := dpkgUnpack(ctx, pkg); status != 0 {
					return status
				}
			}
			return 0
		},
	}
}

// dpkgUnpack extracts with dpkg's profile (chown everything) and runs
// postinst.
func dpkgUnpack(ctx *simos.ExecCtx, pkg *Package) int {
	fmt.Fprintf(ctx.Stdout, "Unpacking %s (%s) ...\n", pkg.Name, pkg.Version)
	if msg := extractFiles(ctx, pkg.Files, extractOptions{AlwaysChown: true, Tool: "dpkg-deb"}); msg != "" {
		fmt.Fprintf(ctx.Stderr, "dpkg: error processing package %s (--install):\n %s\n", pkg.Name, msg)
		return 1
	}
	fmt.Fprintf(ctx.Stdout, "Setting up %s (%s) ...\n", pkg.Name, pkg.Version)
	if status := runScript(ctx, pkg.PostInstall); status != 0 {
		fmt.Fprintf(ctx.Stderr, "dpkg: error: postinst of %s returned %d\n", pkg.Name, status)
		return 1
	}
	appendInstalledDB(ctx.Proc, dpkgStatusDB, pkg.Name)
	return 0
}

// AptBinary builds /usr/bin/apt-get (and /usr/bin/apt) bound to a
// repository. This is the §5 exception in executable form: before
// downloading, apt sandboxes itself by dropping to _apt with
// setgroups/setresgid/setresuid and then *verifies* the drop with
// getresuid. Under zero-consistency emulation the set* calls "succeed"
// while getresuid still reports root, and apt aborts — unless
// -o APT::Sandbox::User=root disables the sandbox.
func AptBinary(repo *Repo) *simos.Binary {
	return &simos.Binary{
		Name:   "apt-get",
		Static: false,
		Main: func(ctx *simos.ExecCtx) int {
			sandboxUser := "_apt"
			var cmdArgs []string
			args := ctx.Argv[1:]
			for i := 0; i < len(args); i++ {
				a := args[i]
				switch {
				case a == "-o" && i+1 < len(args):
					if v, ok := strings.CutPrefix(args[i+1], "APT::Sandbox::User="); ok {
						sandboxUser = v
					}
					i++
				case strings.HasPrefix(a, "-o") && strings.Contains(a, "APT::Sandbox::User="):
					sandboxUser = a[strings.Index(a, "=")+1:]
				case strings.HasPrefix(a, "-"):
				default:
					cmdArgs = append(cmdArgs, a)
				}
			}
			if len(cmdArgs) == 0 {
				fmt.Fprintln(ctx.Stderr, "apt-get: usage: apt-get install -y PKG...")
				return 1
			}
			switch cmdArgs[0] {
			case "update":
				fmt.Fprintf(ctx.Stdout, "Get:1 %s stable InRelease\n", repo.URL)
				fmt.Fprintln(ctx.Stdout, "Reading package lists... Done")
				return 0
			case "install":
				return aptInstall(ctx, repo, cmdArgs[1:], sandboxUser)
			}
			fmt.Fprintf(ctx.Stderr, "apt-get: unknown command %q\n", cmdArgs[0])
			return 1
		},
	}
}

func aptInstall(ctx *simos.ExecCtx, repo *Repo, pkgs []string, sandboxUser string) int {
	p := ctx.Proc
	fmt.Fprintln(ctx.Stdout, "Reading package lists... Done")
	fmt.Fprintln(ctx.Stdout, "Building dependency tree... Done")
	installed := readInstalledDB(p, dpkgStatusDB)
	order, err := repo.Resolve(pkgs, installed)
	if err != nil {
		fmt.Fprintf(ctx.Stderr, "E: %v\n", err)
		return 100
	}
	if len(order) == 0 {
		fmt.Fprintln(ctx.Stdout, "0 upgraded, 0 newly installed.")
		return 0
	}

	// --- the sandboxed download (§5) ---
	for i, meta := range order {
		fmt.Fprintf(ctx.Stdout, "Get:%d %s stable/main %s %s\n", i+1, repo.URL, meta.Name, meta.Version)
		if sandboxUser != "root" {
			if status := aptSandboxedFetch(ctx, sandboxUser); status != 0 {
				return status
			}
		} else {
			fmt.Fprintln(ctx.Stdout, "W: Download is performed unsandboxed as root")
		}
	}

	// --- unpack via dpkg's engine ---
	for _, meta := range order {
		blob, ok := repo.Fetch(meta.Name)
		if !ok {
			fmt.Fprintf(ctx.Stderr, "E: Failed to fetch %s\n", meta.Name)
			return 100
		}
		pkg, err := ParseDEB(blob)
		if err != nil {
			fmt.Fprintf(ctx.Stderr, "E: %v\n", err)
			return 100
		}
		if status := dpkgUnpack(ctx, pkg); status != 0 {
			fmt.Fprintln(ctx.Stderr, "E: Sub-process dpkg returned an error code (1)")
			return 100
		}
	}
	fmt.Fprintf(ctx.Stdout, "%d newly installed.\n", len(order))
	return 0
}

// aptSandboxedFetch performs the privilege drop + verification for one
// download. The "method" process in real apt is a child; dropping in a
// child keeps the parent's credentials intact, which we model by doing the
// drop in an ephemeral child process.
func aptSandboxedFetch(ctx *simos.ExecCtx, user string) int {
	uid := aptUID
	if user != "_apt" {
		fmt.Fprintf(ctx.Stderr, "E: unknown sandbox user %s\n", user)
		return 100
	}
	// Run the drop inside a forked child so a *successful* drop doesn't
	// de-privilege the package manager itself.
	status, e := ctx.Proc.Exec([]string{"/usr/lib/apt/methods/http"}, map[string]string{
		"APT_SANDBOX_UID": fmt.Sprint(uid),
	}, nil, ctx.Stdout, ctx.Stderr)
	if e != errno.OK {
		fmt.Fprintf(ctx.Stderr, "E: method fork failed: %s\n", e.Message())
		return 100
	}
	return status
}

// AptMethodBinary is /usr/lib/apt/methods/http: the child that actually
// drops privileges and verifies.
func AptMethodBinary() *simos.Binary {
	return &simos.Binary{
		Name:   "http",
		Static: false,
		Main: func(ctx *simos.ExecCtx) int {
			p := ctx.Proc
			uid := aptUID
			// DropPrivileges(), as apt's methods do on startup.
			if e := ctx.C.Setresuid(uid, uid, uid); e != errno.OK {
				fmt.Fprintf(ctx.Stderr, "E: setresuid %d failed - %s\n", uid, e.Message())
				return 100
			}
			// …and the §5 verification: "also verifies that they were
			// dropped correctly."
			r, eu, s, _ := p.Getresuid()
			if hooked := ctx.C.Getuid(); hooked != r {
				// Under a consistent (preload) emulator the hooked view
				// wins; accept it.
				r, eu, s = hooked, hooked, hooked
			}
			if r != uid || eu != uid || s != uid {
				fmt.Fprintf(ctx.Stderr,
					"E: setresuid %d reported success but uids are still %d/%d/%d - refusing to download\n",
					uid, r, eu, s)
				return 100
			}
			// Simulated transfer; nothing further to do.
			return 0
		},
	}
}
