// seccomp-probe installs the zero-consistency root-emulation filter into
// the REAL kernel (Linux only) and probes its behaviour: chown to root,
// setuid, and the kexec_load self-test. It prints one line per probe:
//
//	probe <name> errno=<n>
//
// Exit status 0 when the filter behaves as the paper describes (all
// privileged probes return success), 1 otherwise, 2 when the host cannot
// install filters.
//
// Installation is irrevocable for the process, which is why this lives in
// its own binary: the native tests re-exec it and parse the output.
package main

import (
	"fmt"
	"os"
	"runtime"
	"unsafe"

	"repro/internal/core"
	"repro/internal/seccomp"
)

func main() {
	host, ok := seccomp.HostArch()
	if !ok || !seccomp.NativeAvailable() {
		fmt.Println("probe unsupported host")
		os.Exit(2)
	}
	filter, err := core.NewFilter(core.Config{})
	if err != nil {
		fmt.Fprintf(os.Stderr, "seccomp-probe: generate: %v\n", err)
		os.Exit(2)
	}
	if err := seccomp.InstallNative(filter); err != nil {
		fmt.Fprintf(os.Stderr, "seccomp-probe: install: %v\n", err)
		os.Exit(2)
	}
	fmt.Printf("installed filter: %d instructions on %s/%s\n",
		filter.Len(), runtime.GOOS, host.Name)

	fail := false
	probe := func(name string, trap uintptr, args ...uintptr) {
		var a [6]uintptr
		copy(a[:], args)
		errno := rawSyscall(trap, a)
		fmt.Printf("probe %s errno=%d\n", name, errno)
		if errno != 0 {
			fail = true
		}
	}

	// chown("/", 12345, 12345): normally EPERM for an unprivileged
	// process; under the filter, faked success.
	if nr, ok := host.Number("chown"); ok {
		path := append([]byte("/"), 0)
		probe("chown", uintptr(nr), ptr(path), 12345, 12345)
	} else if nr, ok := host.Number("fchownat"); ok {
		path := append([]byte("/"), 0)
		probe("fchownat", uintptr(nr), ^uintptr(99) /* AT_FDCWD=-100 */, ptr(path), 12345, 12345, 0)
	}
	// setuid(12345): normally EPERM.
	if nr, ok := host.Number("setuid"); ok {
		probe("setuid", uintptr(nr), 12345)
	}
	// The self-test (§5 class 4): kexec_load normally EPERM, faked 0.
	if nr, ok := host.Number("kexec_load"); ok {
		probe("kexec_load", uintptr(nr), 0, 0, 0, 0)
	}
	// Verify the lie: getuid must be unchanged despite the "successful"
	// setuid — zero consistency on the real kernel.
	fmt.Printf("probe getuid-after-setuid uid=%d\n", os.Getuid())

	if fail {
		os.Exit(1)
	}
}

func ptr(b []byte) uintptr {
	if len(b) == 0 {
		return 0
	}
	return uintptr(unsafe.Pointer(&b[0]))
}
