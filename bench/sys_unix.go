//go:build unix

package main

import (
	"syscall"
	"time"
)

// The harness keeps what it records — a latency per request, a record
// per span — outside the Go heap. The collector paces itself by the
// live heap, and the programs under test keep almost none (a fleet is a
// few hundred KiB), so megabytes of harness buffers on the heap would
// set how often the collector runs: throughput would depend on
// --seconds and on the rate the warm-up happened to see, and a traced
// run would read faster than an untraced one.

// offHeap returns size zeroed bytes the collector neither scans nor
// counts; pages are only resident once written.
func offHeap(size int) ([]byte, error) {
	return syscall.Mmap(-1, 0, size, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
}

// release returns offHeap memory. Its error is dropped: the only
// failure is an argument that did not come from offHeap.
func release(b []byte) { _ = syscall.Munmap(b) }

// processCPU is the user plus system CPU time this process has used.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
