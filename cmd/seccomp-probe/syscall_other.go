//go:build !linux

package main

// rawSyscall is never reached off Linux: seccomp.NativeAvailable is
// false there, so main exits 2 first. It exists so the module builds on
// every platform.
func rawSyscall(uintptr, [6]uintptr) int { return -1 }
