package simos

import (
	"bytes"
	"io"
	"strings"

	"repro/internal/errno"
	"repro/internal/vfs"
)

// Program execution. Binaries are Go functions registered under image
// paths; execve resolves the path in the image filesystem (following
// symlinks, checking execute permission), forks a child process that
// inherits credentials, the seccomp chain, hooks and the working
// directory, and runs the function to completion — the synchronous,
// deterministic analog of fork+execve+wait.

// BinaryFunc is a program's main(). The return value is the exit status.
type BinaryFunc func(ctx *ExecCtx) int

// Binary describes an executable registered in an image.
type Binary struct {
	Name   string // basename, for diagnostics
	Static bool   // statically linked: immune to LD_PRELOAD hooks
	Main   BinaryFunc
}

// BinaryRegistry maps image paths to executables. The registry is part of
// the image (internal/image copies it alongside the filesystem), so a FROM
// layer brings its distribution's toolset.
type BinaryRegistry struct {
	bins map[string]*Binary
}

// NewBinaryRegistry creates an empty registry.
func NewBinaryRegistry() *BinaryRegistry {
	return &BinaryRegistry{bins: map[string]*Binary{}}
}

// Register adds a binary at an absolute image path.
func (r *BinaryRegistry) Register(path string, b *Binary) {
	r.bins[path] = b
}

// Lookup finds a binary by exact path.
func (r *BinaryRegistry) Lookup(path string) (*Binary, bool) {
	b, ok := r.bins[path]
	return b, ok
}

// Clone copies the registry (images are snapshots).
func (r *BinaryRegistry) Clone() *BinaryRegistry {
	c := NewBinaryRegistry()
	for k, v := range r.bins {
		c.bins[k] = v
	}
	return c
}

// ExecCtx is the world a running binary sees.
type ExecCtx struct {
	Proc *Proc
	C    *CLib // the "libc" — consult for anything a preload hook may claim
	Argv []string
	Env  map[string]string

	Stdin          io.Reader
	Stdout, Stderr io.Writer
}

// Getenv with empty-string default.
func (ctx *ExecCtx) Getenv(key string) string { return ctx.Env[key] }

// AbsPath resolves a path against the process's working directory.
func (ctx *ExecCtx) AbsPath(p string) string { return ctx.Proc.abs(p) }

// LookupPath resolves a command word against PATH (or literally if it
// contains a slash), following image symlinks, and returns the registry
// binary plus its resolved path.
func (p *Proc) LookupPath(cmd string, env map[string]string) (*Binary, string, errno.Errno) {
	if p.registry == nil {
		return nil, "", errno.ENOENT
	}
	try := func(path string) (*Binary, string, errno.Errno) {
		st, e := p.mount.FS.Stat(p.accessCtx(), path, true)
		if e != errno.OK {
			return nil, "", e
		}
		if st.Type == vfs.TypeDir {
			return nil, "", errno.EACCES
		}
		// Resolve symlinks for registry lookup (e.g. /bin/sh -> busybox).
		real := p.resolveBinaryPath(path)
		b, ok := p.registry.Lookup(real)
		if !ok {
			return nil, "", errno.ENOEXEC
		}
		return b, real, errno.OK
	}
	if strings.ContainsRune(cmd, '/') {
		return try(p.abs(cmd))
	}
	path := env["PATH"]
	if path == "" {
		path = "/usr/local/sbin:/usr/local/bin:/usr/sbin:/usr/bin:/sbin:/bin"
	}
	for _, dir := range strings.Split(path, ":") {
		if dir == "" {
			continue
		}
		if b, real, e := try(dir + "/" + cmd); e == errno.OK {
			return b, real, errno.OK
		}
	}
	return nil, "", errno.ENOENT
}

// resolveBinaryPath chases symlinks to at most 8 levels for registry
// lookup, resolving relative targets against the link's directory.
func (p *Proc) resolveBinaryPath(path string) string {
	ac := p.accessCtx()
	for i := 0; i < 8; i++ {
		st, e := p.mount.FS.Stat(ac, path, false)
		if e != errno.OK || st.Type != vfs.TypeSymlink {
			return path
		}
		target, e := p.mount.FS.Readlink(ac, path)
		if e != errno.OK {
			return path
		}
		if strings.HasPrefix(target, "/") {
			path = target
		} else {
			dir := path[:strings.LastIndexByte(path, '/')+1]
			path = dir + target
		}
	}
	return path
}

// Exec runs argv[0] as a child process and returns its exit status. This
// is fork+execve+wait4 in one step: the child inherits a *copy* of the
// credentials, the cwd and umask, and — crucially — a clone of the seccomp
// chain and the hook attachments, so emulation follows the process tree.
//
// Exit status 159 (128+SIGSYS) reports a seccomp kill.
func (p *Proc) Exec(argv []string, env map[string]string, stdin io.Reader, stdout, stderr io.Writer) (int, errno.Errno) {
	if len(argv) == 0 {
		return -1, errno.EINVAL
	}
	bin, realPath, e := p.LookupPath(argv[0], env)
	if e != errno.OK {
		return -1, e
	}
	// Execute permission on the resolved file.
	if ee := p.mount.FS.Access(p.accessCtx(), realPath, 1); ee != errno.OK {
		return -1, ee
	}
	if ok, e := p.enter("execve", pathArg(realPath), 0, 0); !ok {
		return -1, e
	}
	p.trace("execve", realPath, errno.OK, "")

	child := &Proc{
		k: p.k, pid: p.k.takePID(), ppid: p.pid, comm: bin.Name,
		cred: p.cred.clone(), arch: p.arch, mount: p.mount,
		cwd: p.cwd, umask: p.umask,
		seccomp: p.seccomp.Clone(), notifier: p.notifier,
		ptrace: p.ptrace, preload: p.preload,
		registry: p.registry,
		fds:      map[int]*fd{}, nextFD: 3,
	}
	p.k.register(child)
	defer p.k.unregister(child.pid)

	if stdin == nil {
		stdin = bytes.NewReader(nil)
	}
	if stdout == nil {
		stdout = io.Discard
	}
	if stderr == nil {
		stderr = io.Discard
	}
	if env == nil {
		env = map[string]string{}
	}
	clib := &CLib{P: child}
	if !bin.Static {
		clib.Hooks = child.preload
	}
	ctx := &ExecCtx{
		Proc: child, C: clib, Argv: argv, Env: env,
		Stdin: stdin, Stdout: stdout, Stderr: stderr,
	}

	status := runGuarded(bin, ctx)
	if exited, code := child.Exited(); exited {
		status = code
	}
	return status, errno.OK
}

// runGuarded converts a seccomp kill into exit status 128+31 (SIGSYS), the
// value a shell would report.
func runGuarded(bin *Binary, ctx *ExecCtx) (status int) {
	defer func() {
		if r := recover(); r != nil {
			if _, ok := r.(KilledBySeccomp); ok {
				status = 128 + 31
				return
			}
			panic(r)
		}
	}()
	return bin.Main(ctx)
}
