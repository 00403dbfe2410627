package baseline

import (
	"strings"
	"sync"

	"repro/internal/errno"
	"repro/internal/simos"
	"repro/internal/vfs"
)

// PRoot is the ptrace-based consistent emulator (§3.2): it intercepts
// system calls with ptrace(2), which works for statically linked binaries
// too, at the cost of trace stops on *every* syscall. Like the original it
// keeps an ownership database so stat reflects earlier chowns.
type PRoot struct {
	mu     sync.Mutex
	owners map[string]ownerRecord
	uids   map[int][3]int // per-PID faked r/e/s uid
	gids   map[int][3]int // per-PID faked r/e/s gid
}

// NewPRoot creates an empty supervisor.
func NewPRoot() *PRoot {
	return &PRoot{owners: map[string]ownerRecord{}, uids: map[int][3]int{}, gids: map[int][3]int{}}
}

// Records returns the ownership-database size (E9 metric).
func (pr *PRoot) Records() int {
	pr.mu.Lock()
	defer pr.mu.Unlock()
	return len(pr.owners)
}

// Attach installs the supervisor on a process; children inherit it, as
// ptrace's TRACEFORK following does.
func (pr *PRoot) Attach(p *simos.Proc) {
	p.SetPtrace(pr.Hook())
}

// Hook builds the ptrace hook table.
func (pr *PRoot) Hook() *simos.PtraceHook {
	return &simos.PtraceHook{
		Name: "proot",
		// Observer runs at every syscall entry; PRoot inspects and waves
		// through the ones it doesn't care about. The per-stop cost is
		// charged by the kernel simulation.
		Observer: func(p *simos.Proc, name string, args []uint64) {},
		Chown: func(p *simos.Proc, path string, uid, gid int, follow bool) (errno.Errno, bool) {
			pr.mu.Lock()
			rec := pr.owners[path]
			if uid != -1 {
				rec.UID = uid
			}
			if gid != -1 {
				rec.GID = gid
			}
			pr.owners[path] = rec
			pr.mu.Unlock()
			return errno.OK, true
		},
		Mknod: func(p *simos.Proc, path string, mode uint32, dev vfs.Dev) (errno.Errno, bool) {
			typ, _ := vfs.TypeFromMode(mode)
			if typ != vfs.TypeCharDev && typ != vfs.TypeBlockDev {
				return 0, false
			}
			if e := p.WriteFileAll(path, nil, mode&0o777); e != errno.OK {
				return e, true
			}
			pr.mu.Lock()
			pr.owners[path] = ownerRecord{Mode: mode & 0o7777, Dev: uint64(dev), Type: int(typ)}
			pr.mu.Unlock()
			return errno.OK, true
		},
		StatExit: func(p *simos.Proc, path string, follow bool, st vfs.Stat, e errno.Errno) (vfs.Stat, errno.Errno) {
			if e != errno.OK {
				return st, e
			}
			pr.mu.Lock()
			rec, ok := pr.owners[path]
			pr.mu.Unlock()
			if ok {
				st.UID, st.GID = rec.UID, rec.GID
				if rec.Mode != 0 {
					st.Mode = rec.Mode
				}
				if rec.Type != 0 {
					st.Type = vfs.FileType(rec.Type)
					st.Rdev = vfs.Dev(rec.Dev)
				}
			} else {
				st.UID, st.GID = 0, 0
			}
			return st, errno.OK
		},
		GetID: func(p *simos.Proc, name string) ([3]int, bool) {
			pr.mu.Lock()
			defer pr.mu.Unlock()
			family := pr.uids
			if strings.Contains(name, "gid") {
				family = pr.gids
			}
			return family[p.PID()], true // all 0 until a faked set*id
		},
		SetID: func(p *simos.Proc, name string, args []int) (errno.Errno, bool) {
			pr.mu.Lock()
			defer pr.mu.Unlock()
			family := pr.uids
			if strings.Contains(name, "gid") {
				family = pr.gids
			}
			cur := family[p.PID()]
			switch len(args) {
			case 1: // setuid/setgid as (fake) root assumes all three
				cur = [3]int{args[0], args[0], args[0]}
			default: // setre*/setres* forms: -1 keeps a field
				for i, v := range args {
					if i < 3 && v != -1 {
						cur[i] = v
					}
				}
			}
			family[p.PID()] = cur
			return errno.OK, true
		},
	}
}

// Fakechroot models fakechroot(1)'s simple root emulation (§3.3): a
// configurable set of executables is replaced by /bin/true. It is enough
// to bootstrap a distribution but, as the paper notes, "this emulation
// surface of executables only isn't broad enough for general image
// building" — syscall-level privilege failures pass straight through.
type Fakechroot struct {
	// Substitute lists absolute paths to replace with /bin/true.
	Substitute []string
}

// Apply rewrites a binary registry, substituting the configured commands.
func (fc *Fakechroot) Apply(reg *simos.BinaryRegistry) *simos.BinaryRegistry {
	out := reg.Clone()
	truth := &simos.Binary{Name: "true", Static: true,
		Main: func(*simos.ExecCtx) int { return 0 }}
	for _, p := range fc.Substitute {
		out.Register(p, truth)
	}
	return out
}
