package seccomp

import (
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/bpf"
	"repro/internal/sysarch"
)

// Filter pairs a seccomp-verified cBPF program with the metadata and
// counters the rest of the system needs. Filters are immutable after New;
// the counters are internally synchronised so one Filter may serve many
// simulated processes, as one kernel filter serves many threads.
type Filter struct {
	name string
	arch *sysarch.Arch
	prog bpf.Program

	evals   atomic.Uint64 // total syscalls evaluated
	faked   atomic.Uint64 // evaluations returning ERRNO(0) — the fake-success path
	errnoed atomic.Uint64 // evaluations returning ERRNO(e>0)
	killed  atomic.Uint64 // evaluations returning a KILL_* action
}

// New verifies prog under the seccomp rules (the kernel refuses to load a
// program failing seccomp_check_filter) and wraps it. arch records the
// architecture the filter was generated for and may be nil for a
// multi-architecture program — the program itself re-checks
// seccomp_data.arch at runtime, as any competent filter must (§4: the arch
// "can vary even within a process"). Data marshalling follows the calling
// process's architecture, not the filter's.
func New(name string, arch *sysarch.Arch, prog bpf.Program) (*Filter, error) {
	if err := prog.ValidateSeccomp(); err != nil {
		return nil, fmt.Errorf("seccomp: filter %q rejected: %w", name, err)
	}
	cp := make(bpf.Program, len(prog))
	copy(cp, prog)
	return &Filter{name: name, arch: arch, prog: cp}, nil
}

// Name returns the diagnostic name given at construction.
func (f *Filter) Name() string { return f.name }

// Arch returns the architecture the filter was generated for.
func (f *Filter) Arch() *sysarch.Arch { return f.arch }

// Program returns a copy of the underlying program, for dumping and for the
// same-bytes tests.
func (f *Filter) Program() bpf.Program {
	cp := make(bpf.Program, len(f.prog))
	copy(cp, f.prog)
	return cp
}

// Len returns the instruction count, the paper's simplicity metric for
// comparing filter variants.
func (f *Filter) Len() int { return len(f.prog) }

// Evaluate runs the filter over one syscall and returns the raw
// disposition. It allocates no memory on the hot path beyond the marshalled
// data buffer supplied by the caller; use EvaluateData for a convenience
// wrapper.
func (f *Filter) Evaluate(vm *bpf.VM, data []byte) uint32 {
	ret, _ := vm.Run(f.prog, data) // validated programs cannot fail
	f.evals.Add(1)
	switch Action(ret) {
	case RetErrnoBase:
		if ActionData(ret) == 0 {
			f.faked.Add(1)
		} else {
			f.errnoed.Add(1)
		}
	case RetKillProcess, RetKillThread:
		f.killed.Add(1)
	}
	return ret
}

// EvaluateData marshals d per its own architecture and evaluates it.
func (f *Filter) EvaluateData(d *Data) uint32 {
	var vm bpf.VM
	return f.Evaluate(&vm, d.MarshalAuto())
}

// Stats is a snapshot of a filter's counters.
type Stats struct {
	Evaluations uint64 // syscalls run through the filter
	Faked       uint64 // ERRNO(0) fake-success dispositions
	Errnoed     uint64 // ERRNO(e>0) dispositions
	Killed      uint64 // KILL_* dispositions
}

// Stats returns a snapshot of the filter's counters.
func (f *Filter) Stats() Stats {
	return Stats{
		Evaluations: f.evals.Load(),
		Faked:       f.faked.Load(),
		Errnoed:     f.errnoed.Load(),
		Killed:      f.killed.Load(),
	}
}

// Chain is an ordered stack of filters on a process, newest last, with the
// kernel's semantics: a filter can never be removed, children inherit the
// whole chain, and every filter is evaluated on every syscall with the
// strongest action winning (seccomp(2) "if the filters permit prctl calls,
// then additional filters can be added; they are run in reverse order").
type Chain struct {
	mu      sync.RWMutex
	filters []*Filter
}

// Install appends a filter to the chain. Mirroring the kernel, there is no
// remove operation.
func (c *Chain) Install(f *Filter) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.filters = append(c.filters, f)
}

// Len returns the number of installed filters.
func (c *Chain) Len() int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return len(c.filters)
}

// Empty reports whether no filter is installed (the fast path the paper's
// overhead discussion contrasts against).
func (c *Chain) Empty() bool { return c.Len() == 0 }

// Clone returns a child chain sharing the same immutable filters, the
// fork(2) inheritance rule that makes seccomp emulation bind "program
// children whether they like it or not" (§4).
func (c *Chain) Clone() *Chain {
	c.mu.RLock()
	defer c.mu.RUnlock()
	child := &Chain{filters: make([]*Filter, len(c.filters))}
	copy(child.filters, c.filters)
	return child
}

// Evaluate runs every installed filter over d and combines the results with
// kernel precedence. An empty chain allows everything.
func (c *Chain) Evaluate(d *Data) uint32 {
	ret, _ := c.EvaluateSteps(d)
	return ret
}

// EvaluateSteps is Evaluate plus the total BPF instruction count executed
// across the chain — the quantity the simulated kernel's cost model
// charges per syscall.
func (c *Chain) EvaluateSteps(d *Data) (uint32, int) {
	c.mu.RLock()
	filters := c.filters
	c.mu.RUnlock()
	if len(filters) == 0 {
		return RetAllow, 0
	}
	var vm bpf.VM
	data := d.MarshalAuto()
	result := RetAllow
	steps := 0
	// Newest-first, as the kernel walks the filter list; precedence makes
	// the order observable only through TRACE/USER_NOTIF data bits, which
	// take the first (newest) filter's value.
	for i := len(filters) - 1; i >= 0; i-- {
		ret := filters[i].Evaluate(&vm, data)
		steps += vm.Steps
		if Stronger(ret, result) {
			result = ret
		}
	}
	return result, steps
}
