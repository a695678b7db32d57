package main

import (
	"encoding/binary"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"
)

// clients is the closed-loop concurrency of every workload: each client
// sends its next request when the previous reply arrives. Closed,
// because a caller of an executor blocks for the reply; two, because
// the sandbox has two cores and a third client would measure the
// scheduler.
const clients = 2

// warmupRequests is how many requests each set-up sends before timing
// starts: pools fill, lazily built state settles.
const warmupRequests = 2000

// maxSlices is how many equal time slices a measured window is cut
// into. Timing metrics are the median over slices, which a burst of
// interference from a neighbour on the shared machine moves far less
// than it moves a whole-window figure.
const maxSlices = 20

// minSliceSeconds keeps at least ten samples beyond a slice's 99th
// percentile at the slowest workload's rate (~5 000 req/s).
const minSliceSeconds = 0.25

// clientState is one client's side of a measured window. done is read
// by the sampler while the client runs; everything else only after it
// has finished.
type clientState struct {
	done   atomic.Int64 // requests completed so far
	lat    []byte       // latency of request i in ns as 4 bytes at 4i, off-heap
	wrong  int64
	failed int64
	_      [64]byte // keep the two clients' counters on separate cache lines
}

// tick is one sampler reading at a slice boundary.
type tick struct {
	at    time.Duration
	cpu   time.Duration
	refUs float64 // median reference-kernel run time over the slice that ends here
	done  [clients]int64
}

// window is the outcome of one measured window.
type window struct {
	seconds   float64
	attempted int64
	wrong     int64
	failed    int64

	// Per-slice series; a timing metric is the median of its series.
	throughput []float64 // replies per second
	p50us      []float64
	p99us      []float64
	cpuUs      []float64 // process CPU per request
	refUs      []float64 // reference-kernel run time (see reference.go)
	cpuRel     []float64 // cpuUs ÷ refUs, slice by slice
	samples    int       // latency samples behind the percentiles

	// Whole-window deltas.
	mallocs     uint64
	allocBytes  uint64
	gcCycles    uint32
	gcPauseNs   uint64
	retainedKiB float64 // live heap after a forced GC, minus the same before the window
}

// failures counts the replies that were wrong or missing.
func (w *window) failures() int64 { return w.wrong + w.failed }

// drive runs the closed loop: every client calls f.call until stop
// says so, drawing its inputs from its own stream (stream ^ client) and
// numbering its requests firstSeq+client, +clients, … so sequence
// numbers are unique across clients and a client's inputs do not depend
// on the other's pace.
func drive(f *fleet, stream uint64, firstSeq uint64, states *[clients]clientState, stop func(client int, sent int64) bool) {
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			st := &states[c]
			r := &rng{state: stream ^ uint64(c)}
			for i := int64(0); !stop(c, i); i++ {
				seq := firstSeq + uint64(i)*clients + uint64(c)
				lat, res := f.call(seq, r)
				switch res {
				case replyWrong:
					st.wrong++
				case replyFailed:
					st.failed++
				}
				if 4*i+4 <= int64(len(st.lat)) {
					binary.LittleEndian.PutUint32(st.lat[4*i:], uint32(min(lat, time.Duration(^uint32(0)))))
				}
				st.done.Store(i + 1)
			}
		}(c)
	}
	wg.Wait()
}

// warmup sends warmupRequests through f and returns the rate it saw.
// Each round of a run draws its own inputs, so the median set-up time
// is over several draws of how many warm-up requests hit a fault, not
// five copies of one draw.
func warmup(f *fleet, seed uint64, round int) (float64, error) {
	var states [clients]clientState
	start := time.Now()
	drive(f, mix64(seed+uint64(round)+1), 0, &states, func(_ int, sent int64) bool { return sent >= warmupRequests/clients })
	rate := warmupRequests / time.Since(start).Seconds()
	for c := range states {
		if states[c].wrong+states[c].failed > 0 {
			return rate, fmt.Errorf("warm-up: %d wrong and %d failed replies", states[c].wrong, states[c].failed)
		}
	}
	return rate, nil
}

// measure runs one timed window of the given length against a warmed
// fleet. expectedRate sizes the latency buffers (twice what it
// predicts; a client that outruns even that keeps counting but stops
// recording latencies), which live off-heap so the harness changes
// neither the allocation counts it reports nor the collector's pace.
func measure(f *fleet, seed uint64, seconds, expectedRate float64) (window, error) {
	nSlices := int(seconds / minSliceSeconds)
	nSlices = max(1, min(nSlices, maxSlices))
	sliceDur := time.Duration(seconds / float64(nSlices) * float64(time.Second))

	var states [clients]clientState
	for c := range states {
		buf, err := offHeap(4 * (int(expectedRate*seconds*2/clients) + 4096))
		if err != nil {
			return window{}, fmt.Errorf("latency buffer: %w", err)
		}
		defer release(buf)
		states[c].lat = buf
	}
	ticks := make([]tick, 0, nSlices+1)
	ref := startReference(int(sliceDur/referenceEvery) + 64)
	defer ref.close()

	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)

	start := time.Now()
	deadline := start.Add(time.Duration(nSlices) * sliceDur)
	read := func() tick {
		tk := tick{at: time.Since(start), cpu: processCPU(), refUs: ref.take()}
		for c := range states {
			tk.done[c] = states[c].done.Load()
		}
		return tk
	}
	ticks = append(ticks, read())
	samplerDone := make(chan struct{})
	go func() {
		defer close(samplerDone)
		for i := 1; i <= nSlices; i++ {
			time.Sleep(time.Until(start.Add(time.Duration(i) * sliceDur)))
			ticks = append(ticks, read())
		}
	}()
	drive(f, seed, warmupRequests, &states, func(int, int64) bool { return !time.Now().Before(deadline) })
	elapsed := time.Since(start)
	<-samplerDone

	var settled runtime.MemStats
	runtime.ReadMemStats(&after)
	runtime.GC()
	runtime.ReadMemStats(&settled)
	w := window{
		seconds:    elapsed.Seconds(),
		mallocs:    after.Mallocs - before.Mallocs,
		allocBytes: after.TotalAlloc - before.TotalAlloc,
		gcCycles:   after.NumGC - before.NumGC,
		gcPauseNs:  after.PauseTotalNs - before.PauseTotalNs,

		retainedKiB: (float64(settled.HeapAlloc) - float64(before.HeapAlloc)) / 1024,
	}
	for c := range states {
		w.attempted += states[c].done.Load()
		w.wrong += states[c].wrong
		w.failed += states[c].failed
	}
	for i := 1; i < len(ticks); i++ {
		a, b := ticks[i-1], ticks[i]
		var lat []uint32
		var n int64
		for c := range states {
			n += b.done[c] - a.done[c]
			recorded := int64(len(states[c].lat) / 4)
			for j := min(a.done[c], recorded); j < min(b.done[c], recorded); j++ {
				lat = append(lat, binary.LittleEndian.Uint32(states[c].lat[4*j:]))
			}
		}
		if n == 0 || len(lat) == 0 {
			continue
		}
		slices.Sort(lat)
		w.samples += len(lat)
		w.throughput = append(w.throughput, float64(n)/(b.at-a.at).Seconds())
		w.p50us = append(w.p50us, percentile(lat, 0.50)/1e3)
		w.p99us = append(w.p99us, percentile(lat, 0.99)/1e3)
		cpuUs := float64(b.cpu-a.cpu) / 1e3 / float64(n)
		w.cpuUs = append(w.cpuUs, cpuUs)
		if b.refUs > 0 {
			w.refUs = append(w.refUs, b.refUs)
			w.cpuRel = append(w.cpuRel, cpuUs/b.refUs)
		}
	}
	return w, nil
}
