package main

import (
	"syscall"
	"time"
	"unsafe"
)

// clockProcessCPUTimeID is Linux's CLOCK_PROCESS_CPUTIME_ID.
const clockProcessCPUTimeID = 2

// processCPU returns the CPU time all of the process's threads have
// used so far. The gated metrics time operations in CPU time rather
// than wall time: the kernel leaves out time the hypervisor stole from
// the guest, and on a shared 2-vCPU container steal swings the wall
// time of identical runs by 30% and more within minutes. The wall-time
// readings are printed beside them.
func processCPU() time.Duration {
	var ts syscall.Timespec
	_, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockProcessCPUTimeID, uintptr(unsafe.Pointer(&ts)), 0)
	if errno != 0 {
		return 0
	}
	return time.Duration(ts.Nano())
}
