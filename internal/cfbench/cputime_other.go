//go:build !linux

package cfbench

import "time"

var clockStart = time.Now()

// threadCPU falls back to the wall clock where no thread CPU clock is read.
func threadCPU() (time.Duration, error) {
	return time.Since(clockStart), nil
}
