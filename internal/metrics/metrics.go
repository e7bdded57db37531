// Package metrics provides the small stdlib-only counters and latency
// histograms the benchmark harness reports.
package metrics

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing counter safe for concurrent use.
// It is lock-free: replica service loops increment counters on every
// request, so a mutex here would serialize the hot path it measures.
type Counter struct {
	n atomic.Int64
}

// Add increments the counter by d.
func (c *Counter) Add(d int64) { c.n.Add(d) }

// Inc increments the counter by one.
func (c *Counter) Inc() { c.n.Add(1) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.n.Load() }

// Gauge is a settable instantaneous value safe for concurrent use — the
// "how many right now" counterpart to Counter (suspect replicas, open
// circuits, live leases). Lock-free for the same reason Counter is.
type Gauge struct {
	n atomic.Int64
}

// Set replaces the gauge's value.
func (g *Gauge) Set(v int64) { g.n.Store(v) }

// Add moves the gauge by d (negative to decrease).
func (g *Gauge) Add(d int64) { g.n.Add(d) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.n.Load() }

// Histogram records duration samples and reports simple summary statistics
// over a sliding window of the most recent sampleWindow observations, so a
// long-running store's latency histograms stay bounded.
type Histogram struct {
	mu      sync.Mutex
	samples []time.Duration // observation i lives at i % sampleWindow
	total   int             // observations ever, including ones the window evicted
}

// Observe records one sample.
func (h *Histogram) Observe(d time.Duration) {
	h.mu.Lock()
	if len(h.samples) < sampleWindow {
		h.samples = append(h.samples, d)
	} else {
		h.samples[h.total%sampleWindow] = d
	}
	h.total++
	h.mu.Unlock()
}

// ObserveSince records the time elapsed since t0 as one sample — the
// common "time this phase" pattern without the time.Since noise at every
// call site.
func (h *Histogram) ObserveSince(t0 time.Time) {
	h.Observe(time.Since(t0))
}

// sampleWindow bounds how many samples a Histogram or IntHistogram
// retains. Latencies are observed per operation and queue depths once per
// admitted request, so a long run or a sustained overload campaign would
// otherwise grow the sample slice without bound while Snapshot sorts it
// under the same lock the recording path needs.
const sampleWindow = 1 << 12

// IntHistogram records dimensionless integer samples (batch sizes, queue
// depths, replay counts) and reports simple summary statistics over a
// sliding window of the most recent sampleWindow observations. The
// duration Histogram stays separate so call sites never mix units.
//
// It is safe for concurrent use: replica service goroutines record into it
// while store accessors snapshot it.
type IntHistogram struct {
	mu      sync.Mutex
	samples []int64
	total   int64 // observations ever, including ones the window evicted
}

// Observe records one sample.
func (h *IntHistogram) Observe(v int64) {
	h.mu.Lock()
	if len(h.samples) < sampleWindow {
		h.samples = append(h.samples, v)
	} else {
		h.samples[h.total%sampleWindow] = v
	}
	h.total++
	h.mu.Unlock()
}

// IntSummary holds the statistics of an IntHistogram snapshot. Count is
// the total number of observations ever recorded; the quantiles summarize
// the retained window.
type IntSummary struct {
	Count int
	Mean  float64
	P50   int64
	P95   int64
	Max   int64
}

// Count returns the number of samples recorded so far.
func (h *IntHistogram) Count() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return int(h.total)
}

// Snapshot computes summary statistics over the retained sample window.
func (h *IntHistogram) Snapshot() IntSummary {
	h.mu.Lock()
	samples := append([]int64(nil), h.samples...)
	total := h.total
	h.mu.Unlock()
	if len(samples) == 0 {
		return IntSummary{}
	}
	sort.Slice(samples, func(i, j int) bool { return samples[i] < samples[j] })
	var sum int64
	for _, s := range samples {
		sum += s
	}
	pct := func(p float64) int64 {
		return samples[int(p*float64(len(samples)-1))]
	}
	return IntSummary{
		Count: int(total),
		Mean:  float64(sum) / float64(len(samples)),
		P50:   pct(0.50),
		P95:   pct(0.95),
		Max:   samples[len(samples)-1],
	}
}

// String renders the summary compactly.
func (s IntSummary) String() string {
	return fmt.Sprintf("n=%d mean=%.1f p50=%d p95=%d max=%d", s.Count, s.Mean, s.P50, s.P95, s.Max)
}

// Summary holds the statistics of a histogram snapshot. Count is the
// number of observations in the requested range, including ones the window
// evicted; the other fields summarize the retained ones.
type Summary struct {
	Count int
	Mean  time.Duration
	P50   time.Duration
	P95   time.Duration
	P99   time.Duration
	Max   time.Duration
}

// Count returns the number of samples recorded so far, including ones the
// window evicted.
func (h *Histogram) Count() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.total
}

// Snapshot computes summary statistics over the retained samples.
func (h *Histogram) Snapshot() Summary { return h.SnapshotAfter(0) }

// SnapshotAfter computes summary statistics over the samples recorded
// after the first skip ones — a window for per-phase reporting — as far as
// the sliding window still retains them.
func (h *Histogram) SnapshotAfter(skip int) Summary {
	h.mu.Lock()
	count := h.total - skip
	var samples []time.Duration
	if start := max(skip, h.total-len(h.samples)); start < h.total {
		samples = make([]time.Duration, 0, h.total-start)
		for i := start; i < h.total; i++ {
			samples = append(samples, h.samples[i%sampleWindow])
		}
	}
	h.mu.Unlock()
	if len(samples) == 0 {
		return Summary{}
	}
	sort.Slice(samples, func(i, j int) bool { return samples[i] < samples[j] })
	var total time.Duration
	for _, s := range samples {
		total += s
	}
	pct := func(p float64) time.Duration {
		i := int(p * float64(len(samples)-1))
		return samples[i]
	}
	return Summary{
		Count: count,
		Mean:  total / time.Duration(len(samples)),
		P50:   pct(0.50),
		P95:   pct(0.95),
		P99:   pct(0.99),
		Max:   samples[len(samples)-1],
	}
}

// String renders the summary compactly.
func (s Summary) String() string {
	return fmt.Sprintf("n=%d mean=%v p50=%v p95=%v p99=%v max=%v", s.Count, s.Mean, s.P50, s.P95, s.P99, s.Max)
}
