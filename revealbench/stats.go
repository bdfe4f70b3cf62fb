package main

import (
	"fmt"
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// minBeyond is how many samples must lie beyond a reported percentile.
const minBeyond = 10

// percentile returns the q-quantile (0 < q < 1) of samples by nearest rank.
// It refuses when fewer than minBeyond samples lie beyond the quantile, so
// p99 needs 1000 samples and p90 needs 100.
func percentile(samples []float64, q float64) (float64, error) {
	n := len(samples)
	beyond := int(math.Floor(float64(n)*(1-q) + 1e-9))
	if n == 0 || beyond < minBeyond {
		return 0, fmt.Errorf("p%g needs %d samples beyond it, have %d of %d",
			100*q, minBeyond, beyond, n)
	}
	sorted := append([]float64(nil), samples...)
	sort.Float64s(sorted)
	rank := int(math.Ceil(q*float64(n))) - 1
	return sorted[max(rank, 0)], nil
}

// median returns the middle value (mean of the two middle values for an
// even count) of samples; 0 for none.
func median(samples []float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / 1e6 }

const mib = 1 << 20

// processCPU is the process's user+system CPU time.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// The runtime/metrics the meters read.
const (
	mAllocs   = "/gc/heap/allocs:bytes"
	mCycles   = "/gc/cycles/total:gc-cycles"
	mGCCPU    = "/cpu/classes/gc/total:cpu-seconds"
	mTotalCPU = "/cpu/classes/total:cpu-seconds"
	mIdleCPU  = "/cpu/classes/idle:cpu-seconds"
	mHeapLive = "/gc/heap/live:bytes"
)

// runtimeCounters is one reading of the cumulative counters a meter diffs.
type runtimeCounters struct {
	cpu       time.Duration
	allocs    uint64
	cycles    uint64
	gcCPU     float64
	usedCPU   float64 // total minus idle, as runtime/metrics estimates it
	timestamp time.Time
}

func readCounters() runtimeCounters {
	s := []metrics.Sample{{Name: mAllocs}, {Name: mCycles}, {Name: mGCCPU}, {Name: mTotalCPU}, {Name: mIdleCPU}}
	metrics.Read(s)
	return runtimeCounters{
		cpu:       processCPU(),
		allocs:    s[0].Value.Uint64(),
		cycles:    s[1].Value.Uint64(),
		gcCPU:     s[2].Value.Float64(),
		usedCPU:   s[3].Value.Float64() - s[4].Value.Float64(),
		timestamp: time.Now(),
	}
}

// allocBytes reads the cumulative heap allocation counter alone; the traced
// run brackets each layer call with it.
func allocBytes() uint64 {
	s := []metrics.Sample{{Name: mAllocs}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// meter accumulates process resources over one or more measured intervals
// (the serve workload pauses it while it checks artifacts between episodes)
// and samples the heap in use every 2ms while running, keeping the peak of
// each block. Heap in use is the live heap as of the last garbage
// collection: the garbage awaiting collection depends on GC pacing, which
// shifts with the load other processes put on the host.
type meter struct {
	start   runtimeCounters
	running atomic.Bool

	wall   time.Duration
	cpu    time.Duration
	allocs uint64
	cycles uint64
	gcCPU  float64
	used   float64

	peakMu sync.Mutex
	peak   uint64
	peaks  []float64 // peak live heap bytes of each block
	stop   chan struct{}
	done   chan struct{}
}

// startMeter collects garbage, so every run starts from the same heap, and
// begins the first interval.
func startMeter() *meter {
	runtime.GC()
	m := &meter{stop: make(chan struct{}), done: make(chan struct{})}
	go m.sampleHeap()
	m.resume()
	return m
}

func (m *meter) sampleHeap() {
	defer close(m.done)
	s := []metrics.Sample{{Name: mHeapLive}}
	t := time.NewTicker(2 * time.Millisecond)
	defer t.Stop()
	for {
		if m.running.Load() {
			metrics.Read(s)
			m.peakMu.Lock()
			m.peak = max(m.peak, s[0].Value.Uint64())
			m.peakMu.Unlock()
		}
		select {
		case <-m.stop:
			return
		case <-t.C:
		}
	}
}

// cut ends a block of the heap record.
func (m *meter) cut() {
	m.peakMu.Lock()
	defer m.peakMu.Unlock()
	if m.peak > 0 {
		m.peaks = append(m.peaks, float64(m.peak))
	}
	m.peak = 0
}

func (m *meter) resume() {
	m.start = readCounters()
	m.running.Store(true)
}

// pause ends the current interval and its heap block.
func (m *meter) pause() {
	if !m.running.Load() {
		return
	}
	m.running.Store(false)
	end := readCounters()
	m.wall += end.timestamp.Sub(m.start.timestamp)
	m.cpu += end.cpu - m.start.cpu
	m.allocs += end.allocs - m.start.allocs
	m.cycles += end.cycles - m.start.cycles
	m.gcCPU += end.gcCPU - m.start.gcCPU
	m.used += end.usedCPU - m.start.usedCPU
	m.cut()
}

// finish ends the current interval and stops the heap sampler, waiting for
// it to exit.
func (m *meter) finish() {
	m.pause()
	close(m.stop)
	<-m.done
}

// heapPeak is the median over blocks of the peak live heap, and the number
// of blocks.
func (m *meter) heapPeak() (float64, int) {
	m.peakMu.Lock()
	defer m.peakMu.Unlock()
	return median(m.peaks), len(m.peaks)
}

// gcFraction is GC CPU over CPU used, from the runtime's own estimates.
func (m *meter) gcFraction() float64 {
	if m.used <= 0 {
		return 0
	}
	return m.gcCPU / m.used
}
