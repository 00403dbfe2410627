package simos

import "sync/atomic"

// CostModel charges modeled wall-clock costs (nanoseconds) for the
// mechanism events whose real prices the simulation cannot reproduce with
// Go function calls: a ptrace stop is two scheduler round trips, a fakeroot
// interception is an IPC round trip to the faked daemon, a seccomp filter
// is a short BPF interpretation on the syscall path. The kernel accrues
// these into a virtual clock; the E8 benchmarks report virtual time as the
// primary metric and real CPU time as a secondary one.
//
// Defaults are order-of-magnitude figures from the literature the paper
// cites for seccomp overhead [14, 23] and from common microbenchmarks of
// ptrace and local IPC:
//
//	syscall trap            ~100 ns  (KPTI-era getpid round trip)
//	seccomp, per BPF insn   ~2 ns    (interpreter; [14]'s constant-action
//	                                  bitmap shortcut would make common
//	                                  ALLOWs ~0, kept off to match the
//	                                  paper's kernel vintage)
//	ptrace stop             ~3000 ns (tracee stop + tracer wake ×2 per
//	                                  syscall makes ~12 µs/syscall)
//	preload daemon IPC      ~4000 ns (fakeroot's faked round trip)
//	USER_NOTIF round trip   ~5000 ns (fd wake + response)
type CostModel struct {
	SyscallTrap   int64 // per syscall entry
	FilterPerInsn int64 // per BPF instruction executed
	PtraceStop    int64 // per stop event (2 per syscall when traced)
	PreloadIPC    int64 // per intercepted libc call
	NotifRound    int64 // per USER_NOTIF round trip
}

// DefaultCostModel returns the calibration described above.
func DefaultCostModel() CostModel {
	return CostModel{
		SyscallTrap:   100,
		FilterPerInsn: 2,
		PtraceStop:    3000,
		PreloadIPC:    4000,
		NotifRound:    5000,
	}
}

// virtualClock accumulates modeled nanoseconds.
type virtualClock struct {
	ns atomic.Int64
}

func (v *virtualClock) charge(ns int64) {
	if ns != 0 {
		v.ns.Add(ns)
	}
}

// VirtualNanos reports the modeled time accrued since boot or the last
// ResetVirtualTime.
func (k *Kernel) VirtualNanos() int64 { return k.vclock.ns.Load() }

// ResetVirtualTime zeroes the virtual clock (between benchmark phases).
func (k *Kernel) ResetVirtualTime() { k.vclock.ns.Store(0) }

// SetCostModel replaces the cost model (zero values charge nothing, which
// turns the virtual clock into a pure event counter).
func (k *Kernel) SetCostModel(m CostModel) { k.cost = m }
