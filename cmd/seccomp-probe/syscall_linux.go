package main

import "syscall"

// rawSyscall makes the probed system call and returns its errno, 0 on
// success.
func rawSyscall(trap uintptr, a [6]uintptr) int {
	_, _, errno := syscall.Syscall6(trap, a[0], a[1], a[2], a[3], a[4], a[5])
	return int(errno)
}
