package core

import (
	"fmt"
	"sort"

	"repro/internal/bpf"
	"repro/internal/seccomp"
	"repro/internal/sysarch"
)

// Variant selects the filtered-syscall set.
type Variant int

const (
	// VariantCharliecloud is the paper's filter: 29 syscalls in 4 classes.
	VariantCharliecloud Variant = iota
	// VariantEnroot is the reduced setuid-only filter the paper credits to
	// Enroot (§3), for the completeness comparison.
	VariantEnroot
	// VariantExtended adds the setxattr family (§6 future work 1).
	VariantExtended
)

func (v Variant) String() string {
	switch v {
	case VariantEnroot:
		return "enroot"
	case VariantExtended:
		return "extended"
	}
	return "charliecloud"
}

// Strategy selects how the generated program dispatches on the syscall
// number — the DESIGN.md ablation. Linear matches Charliecloud's generated
// jeq ladder; Tree emits a balanced binary search over the sorted numbers,
// trading instructions for comparisons on the worst-case path.
type Strategy int

const (
	DispatchLinear Strategy = iota
	DispatchTree
)

func (s Strategy) String() string {
	if s == DispatchTree {
		return "tree"
	}
	return "linear"
}

// Config parameterises filter generation. The zero value generates the
// paper's filter for all six architectures.
type Config struct {
	Variant  Variant
	Strategy Strategy

	// Arches lists target architectures; nil means all six supported ones.
	// The generated program checks seccomp_data.arch and contains one
	// dispatch section per architecture, because "the current architecture
	// ... can vary even within a process" (§4).
	Arches []*sysarch.Arch

	// KillUnknownArch makes the filter kill processes running an
	// architecture outside Arches instead of allowing them unfiltered.
	// Charliecloud allows (an unknown arch means an ABI we cannot
	// emulate root for, and breaking the build outright helps nobody).
	KillUnknownArch bool

	// FakeErrno is the errno carried by the fake-success return. The paper
	// uses 0 ("return success"); experiments set e.g. EPERM to measure how
	// far a build gets when lies are refused rather than believed.
	FakeErrno uint16

	// IDConsistency routes the identity class to SECCOMP_RET_USER_NOTIF
	// instead of ERRNO(0), letting a user-space supervisor record uid/gid
	// changes (§6 future work 2). Ownership and mknod stay zero-consistency.
	IDConsistency bool
}

func (c Config) arches() []*sysarch.Arch {
	if len(c.Arches) > 0 {
		return c.Arches
	}
	return sysarch.All()
}

// File-type constants for the mknod argument inspection (§5 class 3): the
// filter may fake only device-file creation; other node types are
// unprivileged and must execute normally.
const (
	sIFMT  = 0xf000
	sIFCHR = 0x2000
	sIFBLK = 0x6000
)

// Generate builds the root-emulation BPF program for cfg. The result is
// seccomp-valid by construction; NewFilter wraps it with verification all
// the same, mirroring the kernel's refusal to trust any loader.
func Generate(cfg Config) (bpf.Program, error) {
	arches := cfg.arches()
	if len(arches) == 0 {
		return nil, fmt.Errorf("core: no target architectures")
	}
	fake := seccomp.RetErrno(cfg.FakeErrno)
	unknown := seccomp.RetAllow
	if cfg.KillUnknownArch {
		unknown = seccomp.RetKillProcess
	}

	a := bpf.NewAssembler()
	// Architecture dispatch. Conditional branches are 8-bit, so each jeq
	// lands on an adjacent trampoline that long-jumps to the section.
	a.LoadAbsW(seccomp.OffArch)
	for _, arch := range arches {
		a.JeqImm(arch.AuditArch, "tramp_"+arch.Name, "")
	}
	a.Ret(unknown)
	for _, arch := range arches {
		a.Label("tramp_" + arch.Name)
		a.Ja("sec_" + arch.Name)
	}

	inv := Inventory(cfg.Variant)
	for _, arch := range arches {
		if err := emitArchSection(a, arch, inv, cfg, fake); err != nil {
			return nil, err
		}
	}
	prog, err := a.Assemble()
	if err != nil {
		return nil, fmt.Errorf("core: assembling %s/%s filter: %w", cfg.Variant, cfg.Strategy, err)
	}
	if err := prog.ValidateSeccomp(); err != nil {
		return nil, fmt.Errorf("core: generated filter invalid: %w", err)
	}
	return prog, nil
}

// dispatchEntry is one syscall-number→label pair in an arch section.
type dispatchEntry struct {
	nr     uint32
	target string
}

// emitArchSection emits one architecture's dispatch over inv, the
// variant's inventory, which Generate builds once for every section.
func emitArchSection(a *bpf.Assembler, arch *sysarch.Arch, inv []FilteredSyscall, cfg Config, fake uint32) error {
	suffix := "_" + arch.Name
	entries := make([]dispatchEntry, 0, 32)
	sawMknod := map[string]bool{}
	for _, fs := range inv {
		nr, ok := arch.Number(fs.Name)
		if !ok {
			continue // e.g. chown on arm64 (§5 fn. 7)
		}
		target := "fake" + suffix
		switch {
		case fs.Class == ClassMknod:
			target = fs.Name + suffix // per-syscall check: mode argument position differs
			sawMknod[fs.Name] = true
		case fs.Class == ClassIdentity && cfg.IDConsistency:
			target = "notif" + suffix
		}
		entries = append(entries, dispatchEntry{nr: uint32(nr), target: target})
	}
	if len(entries) == 0 {
		return fmt.Errorf("core: variant %s has no syscalls on %s", cfg.Variant, arch.Name)
	}
	sort.Slice(entries, func(i, j int) bool { return entries[i].nr < entries[j].nr })

	a.Label("sec" + suffix)
	a.LoadAbsW(seccomp.OffNR)
	allow := "allow" + suffix
	switch cfg.Strategy {
	case DispatchTree:
		emitTree(a, entries, allow, suffix, new(int))
	default:
		for _, e := range entries {
			a.JeqImm(e.nr, e.target, "")
		}
		a.Ja(allow)
	}

	// mknod(path, mode, dev): mode is args[1]; mknodat(dirfd, path, mode,
	// dev): args[2]. Fake device-file creation, execute everything else —
	// "[w]e must examine the file type argument before faking success
	// (device file) or allowing the syscall (other types)" (§5).
	if sawMknod["mknod"] {
		a.Label("mknod" + suffix)
		a.LoadAbsW(seccomp.OffArgLo(arch, 1))
		emitModeCheck(a, suffix)
	}
	if sawMknod["mknodat"] {
		a.Label("mknodat" + suffix)
		a.LoadAbsW(seccomp.OffArgLo(arch, 2))
		emitModeCheck(a, suffix)
	}

	if cfg.IDConsistency {
		a.Label("notif" + suffix)
		a.Ret(seccomp.RetUserNotif)
	}
	a.Label(allow)
	a.Ret(seccomp.RetAllow)
	a.Label("fake" + suffix)
	a.Ret(fake)
	return nil
}

// emitModeCheck emits: A &= S_IFMT; device type → fake, else allow.
func emitModeCheck(a *bpf.Assembler, suffix string) {
	a.ALUAndImm(sIFMT)
	a.JeqImm(sIFCHR, "fake"+suffix, "")
	a.JeqImm(sIFBLK, "fake"+suffix, "")
	a.Ja("allow" + suffix)
}

// emitTree emits a balanced binary search over entries (sorted by nr). The
// accumulator already holds the syscall number. Leaves of ≤4 entries fall
// back to a short jeq ladder.
func emitTree(a *bpf.Assembler, entries []dispatchEntry, allow, suffix string, seq *int) {
	if len(entries) <= 4 {
		for _, e := range entries {
			a.JeqImm(e.nr, e.target, "")
		}
		a.Ja(allow)
		return
	}
	mid := len(entries) / 2
	*seq++
	right := fmt.Sprintf("tree%d%s", *seq, suffix)
	a.JgeImm(entries[mid].nr, right, "")
	emitTree(a, entries[:mid], allow, suffix, seq)
	a.Label(right)
	emitTree(a, entries[mid:], allow, suffix, seq)
}

// NewFilter generates and verifies a filter for cfg. The filter's
// architecture is nil (multi-arch) unless cfg names exactly one.
func NewFilter(cfg Config) (*seccomp.Filter, error) {
	prog, err := Generate(cfg)
	if err != nil {
		return nil, err
	}
	var arch *sysarch.Arch
	if len(cfg.Arches) == 1 {
		arch = cfg.Arches[0]
	}
	name := fmt.Sprintf("ch-rootemu/%s/%s", cfg.Variant, cfg.Strategy)
	return seccomp.New(name, arch, prog)
}

// MustNewFilter is NewFilter for static configurations; generation can only
// fail on a programming error, which should crash loudly.
func MustNewFilter(cfg Config) *seccomp.Filter {
	f, err := NewFilter(cfg)
	if err != nil {
		panic(err)
	}
	return f
}
