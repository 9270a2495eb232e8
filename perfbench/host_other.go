//go:build !linux

package main

// fsType is only implemented on Linux.
func fsType(string) string { return "unknown" }

// cpuTicks is only implemented on Linux.
func cpuTicks() (total, steal uint64, ok bool) { return 0, 0, false }
