package cfbench

import (
	"fmt"
	"syscall"
	"time"
	"unsafe"
)

// clockThreadCPUTimeID is Linux's CLOCK_THREAD_CPUTIME_ID.
const clockThreadCPUTimeID = 3

// threadCPU reads the calling thread's CPU clock (user plus system time,
// nanosecond resolution).
func threadCPU() (time.Duration, error) {
	var ts syscall.Timespec
	_, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTimeID,
		uintptr(unsafe.Pointer(&ts)), 0)
	if errno != 0 {
		return 0, fmt.Errorf("cfbench: clock_gettime: %w", errno)
	}
	return time.Duration(ts.Nano()), nil
}
