// Package pkgmgr implements simulated Linux distribution package managers —
// apk (Alpine), rpm/yum (CentOS), dpkg/apt (Debian) — with real package
// formats (tar and cpio-newc payloads) and, critically, the same
// privileged-syscall profiles as the originals:
//
//   - rpm extracts its cpio payload and *always* chowns every entry to the
//     recorded owner, which is why Figure 1b dies with "cpio: chown";
//
//   - apk compares the archive owner against the file it just created and
//     skips redundant chowns, which is why Figure 1a needs no privilege;
//
//   - apt drops privileges to the _apt user for downloads via
//     setgroups/setresgid/setresuid and then **verifies** the drop with
//     getresuid — the one consistency check the paper's zero-consistency
//     emulation cannot satisfy (§5), worked around with
//     -o APT::Sandbox::User=root.
//
// Packages are synthetic but structurally real; the managers parse the
// bytes with internal/cpio and internal/tarutil and issue their filesystem
// operations through the simulated process's libc (ctx.C), so every
// emulation mechanism — seccomp, preload, ptrace — sees exactly what it
// would see from the real tools.
package pkgmgr

import (
	"fmt"
	"sort"
	"sync"

	"repro/internal/errno"
	"repro/internal/simos"
	"repro/internal/vfs"
)

// FileSpec is one file carried by a package, with full metadata.
type FileSpec struct {
	Path   string // absolute
	Type   vfs.FileType
	Mode   uint32 // permission bits
	UID    int    // owner recorded in the archive
	GID    int
	Data   []byte // regular files
	Target string // symlinks
	Major  uint32 // device nodes
	Minor  uint32
}

// Package is the distribution-neutral package model the format encoders
// serialise.
type Package struct {
	Name    string
	Version string
	Arch    string
	Depends []string
	Files   []FileSpec

	// PostInstall is a shell script run after extraction (rpm %post,
	// dpkg postinst).
	PostInstall string

	// Trigger is an apk-style trigger script name printed and run at
	// commit ("Executing busybox-1.36.1-r15.trigger").
	Trigger string

	// Size is the advertised installed size in KiB, for transcripts.
	Size int
}

// Repo is a package repository: metadata plus fetchable blobs in one of
// the three formats. Blobs are encoded on first Fetch and cached; a Repo
// is safe for concurrent Fetch, Meta, Names and Resolve calls.
type Repo struct {
	URL    string // displayed in fetch lines
	Format string // "apk", "rpm", "deb"

	mu    sync.Mutex
	metas map[string]*Package
	blobs map[string][]byte // encoded on first Fetch
}

// NewRepo creates an empty repository.
func NewRepo(url, format string) *Repo {
	return &Repo{URL: url, Format: format, metas: map[string]*Package{}, blobs: map[string][]byte{}}
}

// encoder returns the package encoder for a repo format.
func encoder(format string) (func(*Package) ([]byte, error), bool) {
	switch format {
	case "apk":
		return BuildAPK, true
	case "rpm":
		return BuildRPM, true
	case "deb":
		return BuildDEB, true
	}
	return nil, false
}

// Add publishes a package, replacing any of the same name. The blob is
// encoded on its first Fetch, not here; an unknown repo format is still
// rejected at once.
func (r *Repo) Add(p *Package) error {
	if _, ok := encoder(r.Format); !ok {
		return fmt.Errorf("pkgmgr: unknown repo format %q", r.Format)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.metas[p.Name] = p
	delete(r.blobs, p.Name)
	return nil
}

// MustAdd is Add for static test fixtures.
func (r *Repo) MustAdd(p *Package) {
	if err := r.Add(p); err != nil {
		panic(err)
	}
}

// Meta returns package metadata.
func (r *Repo) Meta(name string) (*Package, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	p, ok := r.metas[name]
	return p, ok
}

// Fetch returns the encoded package blob, encoding it on the first call
// for a name and serving the cached bytes after. It reports false for an
// unknown package or one whose encoder fails. Callers must not modify
// the returned slice: every Fetch of a name shares it.
func (r *Repo) Fetch(name string) ([]byte, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if b, ok := r.blobs[name]; ok {
		return b, true
	}
	p, ok := r.metas[name]
	if !ok {
		return nil, false
	}
	encode, _ := encoder(r.Format)
	b, err := encode(p)
	if err != nil {
		return nil, false
	}
	r.blobs[name] = b
	return b, true
}

// Names lists available packages, sorted.
func (r *Repo) Names() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]string, 0, len(r.metas))
	for n := range r.metas {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Resolve computes the install order (dependencies first) for the
// requested packages, skipping names in installed.
func (r *Repo) Resolve(requested []string, installed map[string]bool) ([]*Package, error) {
	var order []*Package
	seen := map[string]bool{}
	var visit func(name string, chain []string) error
	visit = func(name string, chain []string) error {
		if installed[name] || seen[name] {
			return nil
		}
		for _, c := range chain {
			if c == name {
				return fmt.Errorf("pkgmgr: dependency cycle through %s", name)
			}
		}
		p, ok := r.Meta(name)
		if !ok {
			return fmt.Errorf("pkgmgr: package %s not found", name)
		}
		for _, d := range p.Depends {
			if err := visit(d, append(chain, name)); err != nil {
				return err
			}
		}
		seen[name] = true
		order = append(order, p)
		return nil
	}
	for _, name := range requested {
		if err := visit(name, nil); err != nil {
			return nil, err
		}
	}
	return order, nil
}

// extractOptions tunes the shared extraction loop to each manager's
// profile.
type extractOptions struct {
	// AlwaysChown: chown every entry to the recorded owner (rpm, dpkg).
	// When false, chown only when the created file's owner differs from
	// the recorded one as seen by the process (apk).
	AlwaysChown bool
	// Tool name for error messages ("cpio", "dpkg-deb", "apk").
	Tool string
}

// extractFiles materialises specs through the process's libc, returning a
// descriptive error string (empty on success). The chown/mknod calls flow
// through ctx.C so preload hooks see them, and through the process gate so
// seccomp and ptrace see them.
func extractFiles(ctx *simos.ExecCtx, files []FileSpec, opt extractOptions) string {
	p := ctx.Proc
	for _, f := range files {
		if msg := extractOne(ctx, f, opt); msg != "" {
			return msg
		}
		_ = p
	}
	return ""
}

func extractOne(ctx *simos.ExecCtx, f FileSpec, opt extractOptions) string {
	p := ctx.Proc
	mkParents(p, f.Path)
	switch f.Type {
	case vfs.TypeDir:
		if e := p.Mkdir(f.Path, f.Mode); e != errno.OK && e != errno.EEXIST {
			return fmt.Sprintf("%s: mkdir %s failed - %s", opt.Tool, f.Path, e.Message())
		}
	case vfs.TypeRegular:
		if e := p.WriteFileAll(f.Path, f.Data, f.Mode); e != errno.OK {
			return fmt.Sprintf("%s: write %s failed - %s", opt.Tool, f.Path, e.Message())
		}
		if e := ctx.C.Chmod(f.Path, f.Mode); e != errno.OK {
			return fmt.Sprintf("%s: chmod %s failed - %s", opt.Tool, f.Path, e.Message())
		}
	case vfs.TypeSymlink:
		p.Unlink(f.Path)
		if e := p.Symlink(f.Target, f.Path); e != errno.OK {
			return fmt.Sprintf("%s: symlink %s failed - %s", opt.Tool, f.Path, e.Message())
		}
		// Symlink ownership is set with lchown by rpm/dpkg.
		if opt.AlwaysChown {
			if e := ctx.C.Lchown(f.Path, f.UID, f.GID); e != errno.OK {
				return fmt.Sprintf("%s: lchown %s failed - %s", opt.Tool, f.Path, e.Message())
			}
		}
		return ""
	case vfs.TypeCharDev, vfs.TypeBlockDev:
		mode := f.Mode | map[vfs.FileType]uint32{
			vfs.TypeCharDev: vfs.SIFCHR, vfs.TypeBlockDev: vfs.SIFBLK,
		}[f.Type]
		if e := ctx.C.Mknod(f.Path, mode, vfs.Makedev(f.Major, f.Minor)); e != errno.OK {
			return fmt.Sprintf("%s: mknod %s failed - %s", opt.Tool, f.Path, e.Message())
		}
	case vfs.TypeFIFO:
		if e := ctx.C.Mknod(f.Path, f.Mode|vfs.SIFIFO, 0); e != errno.OK {
			return fmt.Sprintf("%s: mkfifo %s failed - %s", opt.Tool, f.Path, e.Message())
		}
	}
	// Ownership.
	if opt.AlwaysChown {
		if e := ctx.C.Chown(f.Path, f.UID, f.GID); e != errno.OK {
			return fmt.Sprintf("%s: chown failed - %s", opt.Tool, e.Message())
		}
		return ""
	}
	// apk profile: stat what we created; chown only if it differs.
	st, e := ctx.C.Lstat(f.Path)
	if e == errno.OK && (st.UID != f.UID || st.GID != f.GID) {
		if e := ctx.C.Chown(f.Path, f.UID, f.GID); e != errno.OK {
			return fmt.Sprintf("%s: chown failed - %s", opt.Tool, e.Message())
		}
	}
	return ""
}

// mkParents creates missing ancestor directories with default metadata, as
// archive extractors do.
func mkParents(p *simos.Proc, path string) {
	cur := ""
	comps := splitSlash(path)
	for _, c := range comps[:max(0, len(comps)-1)] {
		cur += "/" + c
		p.Mkdir(cur, 0o755)
	}
}

func splitSlash(p string) []string {
	var out []string
	start := 0
	for i := 0; i <= len(p); i++ {
		if i == len(p) || p[i] == '/' {
			if i > start {
				out = append(out, p[start:i])
			}
			start = i + 1
		}
	}
	return out
}

// runScript executes a maintainer script under /bin/sh.
func runScript(ctx *simos.ExecCtx, script string) int {
	if script == "" {
		return 0
	}
	status, e := ctx.Proc.Exec([]string{"/bin/sh", "-c", script}, ctx.Env, nil, ctx.Stdout, ctx.Stderr)
	if e != errno.OK {
		return 127
	}
	return status
}

// readInstalledDB reads a newline-separated package-name database.
func readInstalledDB(p *simos.Proc, path string) map[string]bool {
	out := map[string]bool{}
	data, e := p.ReadFileAll(path)
	if e != errno.OK {
		return out
	}
	start := 0
	for i := 0; i <= len(data); i++ {
		if i == len(data) || data[i] == '\n' {
			if i > start {
				out[string(data[start:i])] = true
			}
			start = i + 1
		}
	}
	return out
}

// appendInstalledDB records a package as installed.
func appendInstalledDB(p *simos.Proc, path, name string) {
	mkParents(p, path)
	old, _ := p.ReadFileAll(path)
	p.WriteFileAll(path, append(old, []byte(name+"\n")...), 0o644)
}
