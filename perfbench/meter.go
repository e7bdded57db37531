package main

import (
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"syscall"
	"time"
)

// procSample is a snapshot of the process-wide counters a timed window is
// charged with: wall and CPU time, heap allocations, GC cycles and GC CPU.
// The client and every replica run in this one process, so the deltas cover
// the whole cluster.
type procSample struct {
	wall     time.Time
	cpu      time.Duration
	mallocs  uint64
	numGC    uint32
	gcCPU    float64
	totalCPU float64
}

func sampleProc() procSample {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}, {Name: "/cpu/classes/total:cpu-seconds"}}
	metrics.Read(s)
	return procSample{
		wall:     time.Now(),
		cpu:      time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		mallocs:  ms.Mallocs,
		numGC:    ms.NumGC,
		gcCPU:    float64Of(s[0].Value),
		totalCPU: float64Of(s[1].Value),
	}
}

func float64Of(v metrics.Value) float64 {
	if v.Kind() == metrics.KindFloat64 {
		return v.Float64()
	}
	return 0
}

// window is the difference between two procSamples.
type window struct {
	wall, cpu     time.Duration
	mallocs       uint64
	gcCycles      uint32
	gcCPUFraction float64
}

func (a procSample) delta() window {
	b := sampleProc()
	w := window{
		wall:     b.wall.Sub(a.wall),
		cpu:      b.cpu - a.cpu,
		mallocs:  b.mallocs - a.mallocs,
		gcCycles: b.numGC - a.numGC,
	}
	if d := b.totalCPU - a.totalCPU; d > 0 {
		w.gcCPUFraction = (b.gcCPU - a.gcCPU) / d
	}
	return w
}

// slicer cuts a timed window into slices of equal length and records, per
// slice, the wall and CPU time, the transactions committed, and the peak
// HeapInuse sampled every heapInterval. Medians over slices keep a short
// burst of load from elsewhere on a shared host from setting a run's figure.
type slicer struct {
	committed func() int64
	stop      chan struct{}
	done      chan struct{}
	slices    []slice
}

type slice struct {
	wall, cpu time.Duration
	committed int64
	heapPeak  uint64
}

func startSlicer(length, heapInterval time.Duration, committed func() int64) *slicer {
	s := &slicer{committed: committed, stop: make(chan struct{}), done: make(chan struct{})}
	go s.run(length, heapInterval)
	return s
}

func (s *slicer) run(length, heapInterval time.Duration) {
	defer close(s.done)
	tick := time.NewTicker(heapInterval)
	defer tick.Stop()
	start, n := sampleProc(), s.committed()
	var peak uint64
	for {
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		peak = max(peak, ms.HeapInuse)
		stopped := false
		select {
		case <-s.stop:
			stopped = true
		case <-tick.C:
		}
		if now := time.Now(); stopped || now.Sub(start.wall) >= length {
			w, m := start.delta(), s.committed()
			if !stopped || w.wall >= length/2 {
				s.slices = append(s.slices, slice{wall: w.wall, cpu: w.cpu, committed: m - n, heapPeak: peak})
			}
			start, n, peak = sampleProc(), m, 0
		}
		if stopped {
			return
		}
	}
}

// Stop ends the slicing and returns the slices: every full one, and the
// last partial one if it covers at least half a slice.
func (s *slicer) Stop() []slice {
	close(s.stop)
	<-s.done
	return s.slices
}

// sliceMedians returns the median over slices of throughput (1/s), CPU per
// committed transaction (µs) and peak HeapInuse (MiB).
func sliceMedians(sl []slice) (tput, cpuPerTxn, heapMiB float64) {
	var t, c, h []float64
	for _, x := range sl {
		t = append(t, float64(x.committed)/x.wall.Seconds())
		c = append(c, ratio(float64(x.cpu.Microseconds()), float64(x.committed)))
		h = append(h, float64(x.heapPeak)/(1<<20))
	}
	return median(t), median(c), median(h)
}

// samples collects durations in microseconds; safe for concurrent use.
type samples struct {
	mu sync.Mutex
	us []float64
}

func (s *samples) add(d time.Duration) {
	s.mu.Lock()
	s.us = append(s.us, float64(d.Nanoseconds())/1e3)
	s.mu.Unlock()
}

func (s *samples) sorted() []float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := append([]float64(nil), s.us...)
	sort.Float64s(out)
	return out
}

// quantile returns the nearest-rank q-quantile of sorted values, 0 when
// there are none.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	return sorted[i]
}

func mean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range v {
		sum += x
	}
	return sum / float64(len(v))
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if n := len(s); n > 0 && n%2 == 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return quantile(s, 0.5)
}

// ratio is a/b, or 0 when b is 0: a layer that did no work reads 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
