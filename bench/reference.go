package main

import (
	"encoding/binary"
	"slices"
	"sync"
	"time"
)

// The reference kernel is a fixed piece of work, from the standard
// library only, that the harness times every few milliseconds while a
// window is measured. The sandbox is a virtual machine whose speed for
// ordinary Go code drifts by tens of percent over seconds and minutes
// (its neighbours' doing, not this program's; see README.md), and the
// kernel drifts with it. CPU per request divided by the kernel's run
// time in the same slice of the window is therefore far steadier than
// CPU per request alone, and it is what the benchmark gates.
//
// The kernel allocates nothing and writes no pointers, so it adds
// nothing to the allocation counts and the collector of the program
// under test neither slows it (no assists, no write barriers) nor is
// paced by it: a change to the program cannot move the reference.

// referenceEvery is the pause between two kernel runs: about 2 % of one
// processor, and some 50 samples in the shortest slice.
const referenceEvery = 5 * time.Millisecond

// refKernel is the work: fill and sort 1 024 keys, look half of them up
// in a 4 096-entry map, copy 64 KiB, and varint-encode and decode the
// keys. About 90 µs on the sandbox when it is calm.
type refKernel struct {
	src, dst [64 << 10]byte
	keys     [1024]uint32
	table    map[uint64]uint64
	varints  [binary.MaxVarintLen64 * 1024]byte
	state    uint64
}

func newRefKernel() *refKernel {
	k := &refKernel{table: make(map[uint64]uint64, 4096)}
	for i := uint64(0); i < 4096; i++ {
		k.table[i] = mix64(i)
	}
	return k
}

func (k *refKernel) run() {
	for i := range k.keys {
		k.state += 0x9e3779b97f4a7c15
		k.keys[i] = uint32(mix64(k.state))
	}
	slices.Sort(k.keys[:])
	var sum uint64
	for _, key := range k.keys[:512] {
		sum += k.table[uint64(key)&4095]
	}
	copy(k.dst[:], k.src[:])
	n := 0
	for _, key := range k.keys {
		n += binary.PutUvarint(k.varints[n:], uint64(key)*sum)
	}
	for off := 0; off < n; {
		v, width := binary.Uvarint(k.varints[off:n])
		sum ^= v
		off += width
	}
	k.src[sum&0xffff] = byte(sum) // keeps the work live
}

// reference runs the kernel on its own goroutine until stopped and hands
// out, slice by slice, how long a run took.
type reference struct {
	mu      sync.Mutex
	samples []float64 // kernel run times in µs since the last take
	stop    chan struct{}
	done    chan struct{}
}

// startReference starts sampling; capacity is how many samples to make
// room for up front, so that recording them does not allocate either.
func startReference(capacity int) *reference {
	r := &reference{
		samples: make([]float64, 0, capacity),
		stop:    make(chan struct{}),
		done:    make(chan struct{}),
	}
	go func() {
		defer close(r.done)
		k := newRefKernel()
		timer := time.NewTimer(0)
		defer timer.Stop()
		for {
			select {
			case <-r.stop:
				return
			case <-timer.C:
			}
			start := time.Now()
			k.run()
			us := float64(time.Since(start)) / 1e3
			r.mu.Lock()
			r.samples = append(r.samples, us)
			r.mu.Unlock()
			timer.Reset(referenceEvery)
		}
	}()
	return r
}

// take returns the median kernel run time since the last take, in µs,
// and forgets those samples; 0 if there were none. The median, because
// a run the scheduler interrupted reads long and says nothing about the
// machine's speed.
func (r *reference) take() float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	m := median(r.samples)
	r.samples = r.samples[:0]
	return m
}

func (r *reference) close() {
	close(r.stop)
	<-r.done
}
