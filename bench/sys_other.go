//go:build !unix

package main

import "time"

// Where there is no mmap and no getrusage the harness still builds and
// runs: its buffers sit on the Go heap, where they move the collector's
// pace (see sys_unix.go), and the CPU metrics read 0. Figures taken this
// way are not comparable with the gated ones.

func offHeap(size int) ([]byte, error) { return make([]byte, size), nil }

func release([]byte) {}

func processCPU() time.Duration { return 0 }
