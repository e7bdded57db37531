package metrics

import (
	"sync"
	"testing"
	"time"
)

func TestCounter(t *testing.T) {
	var c Counter
	c.Inc()
	c.Add(4)
	if c.Value() != 5 {
		t.Errorf("Value = %d", c.Value())
	}
}

func TestCounterConcurrent(t *testing.T) {
	var c Counter
	var wg sync.WaitGroup
	for i := 0; i < 50; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				c.Inc()
			}
		}()
	}
	wg.Wait()
	if c.Value() != 5000 {
		t.Errorf("Value = %d, want 5000", c.Value())
	}
}

func TestHistogramSummary(t *testing.T) {
	var h Histogram
	for i := 1; i <= 100; i++ {
		h.Observe(time.Duration(i) * time.Millisecond)
	}
	s := h.Snapshot()
	if s.Count != 100 {
		t.Errorf("Count = %d", s.Count)
	}
	if s.Max != 100*time.Millisecond {
		t.Errorf("Max = %v", s.Max)
	}
	if s.P50 < 45*time.Millisecond || s.P50 > 55*time.Millisecond {
		t.Errorf("P50 = %v", s.P50)
	}
	if s.P95 < 90*time.Millisecond || s.P95 > 100*time.Millisecond {
		t.Errorf("P95 = %v", s.P95)
	}
	if s.Mean != 50500*time.Microsecond {
		t.Errorf("Mean = %v", s.Mean)
	}
}

func TestHistogramEmpty(t *testing.T) {
	var h Histogram
	if s := h.Snapshot(); s.Count != 0 || s.Mean != 0 {
		t.Errorf("empty snapshot = %+v", s)
	}
}

func TestSnapshotAfterWindows(t *testing.T) {
	var h Histogram
	h.Observe(time.Second) // old phase
	mark := h.Count()
	h.Observe(10 * time.Millisecond)
	h.Observe(20 * time.Millisecond)
	s := h.SnapshotAfter(mark)
	if s.Count != 2 || s.Max != 20*time.Millisecond {
		t.Errorf("windowed snapshot = %+v", s)
	}
	if s := h.SnapshotAfter(100); s.Count != 0 {
		t.Errorf("over-skip snapshot = %+v", s)
	}
}

func TestHistogramWindowBounded(t *testing.T) {
	var h Histogram
	n := sampleWindow + 5000
	for i := 0; i < n; i++ {
		h.Observe(time.Duration(i))
	}
	if h.Count() != n {
		t.Errorf("Count = %d, want %d (evicted samples still counted)", h.Count(), n)
	}
	if len(h.samples) != sampleWindow {
		t.Errorf("retained %d samples, want window of %d", len(h.samples), sampleWindow)
	}
	if s := h.Snapshot(); s.Count != n || s.Max != time.Duration(n-1) || s.P50 < time.Duration(n-sampleWindow) {
		t.Errorf("snapshot = %+v, want all %d counted and the newest %d summarized", s, n, sampleWindow)
	}
	if s := h.SnapshotAfter(n - 3); s.Count != 3 || s.Max != time.Duration(n-1) {
		t.Errorf("SnapshotAfter(n-3) = %+v, want the last 3 samples", s)
	}
}

func TestIntHistogramSummary(t *testing.T) {
	var h IntHistogram
	for i := 1; i <= 100; i++ {
		h.Observe(int64(i))
	}
	s := h.Snapshot()
	if s.Count != 100 || s.Max != 100 {
		t.Errorf("snapshot = %+v", s)
	}
	if s.P50 < 45 || s.P50 > 55 {
		t.Errorf("P50 = %d", s.P50)
	}
	if s.Mean != 50.5 {
		t.Errorf("Mean = %v", s.Mean)
	}
	if h.Count() != 100 {
		t.Errorf("Count = %d", h.Count())
	}
}

func TestIntHistogramWindowBounded(t *testing.T) {
	var h IntHistogram
	n := sampleWindow + 5000
	for i := 0; i < n; i++ {
		h.Observe(int64(i))
	}
	if h.Count() != n {
		t.Errorf("Count = %d, want %d (evicted samples still counted)", h.Count(), n)
	}
	s := h.Snapshot()
	if len(h.samples) != sampleWindow {
		t.Errorf("retained %d samples, want window of %d", len(h.samples), sampleWindow)
	}
	if s.Max != int64(n-1) {
		t.Errorf("Max = %d, want newest sample %d retained", s.Max, n-1)
	}
}

// TestIntHistogramConcurrentHammer is the -race gate for the overload
// instrumentation path: replica service goroutines observe queue depths
// into the same IntHistogram that store metrics accessors snapshot
// concurrently. The hammer runs writers, snapshotters, and counters at
// once; the race detector (make verify runs this package under -race)
// flags any unsynchronized access, and the final count pins that no
// observation was lost.
func TestIntHistogramConcurrentHammer(t *testing.T) {
	var h IntHistogram
	const writers, perWriter = 8, 20000
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
					_ = h.Snapshot()
					_ = h.Count()
				}
			}
		}()
	}
	var writerWg sync.WaitGroup
	for w := 0; w < writers; w++ {
		writerWg.Add(1)
		go func(w int) {
			defer writerWg.Done()
			for i := 0; i < perWriter; i++ {
				h.Observe(int64(w*perWriter + i))
			}
		}(w)
	}
	writerWg.Wait()
	close(stop)
	wg.Wait()
	if h.Count() != writers*perWriter {
		t.Errorf("Count = %d, want %d", h.Count(), writers*perWriter)
	}
}

func TestGaugeConcurrent(t *testing.T) {
	var g Gauge
	var wg sync.WaitGroup
	for i := 0; i < 50; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			g.Add(2)
			g.Add(-1)
		}()
	}
	wg.Wait()
	if g.Value() != 50 {
		t.Errorf("Value = %d, want 50", g.Value())
	}
	g.Set(7)
	if g.Value() != 7 {
		t.Errorf("Value = %d after Set", g.Value())
	}
}

func TestSummaryString(t *testing.T) {
	var h Histogram
	h.Observe(time.Millisecond)
	if got := h.Snapshot().String(); got == "" {
		t.Error("empty String")
	}
}

func TestObserveSince(t *testing.T) {
	var h Histogram
	t0 := time.Now().Add(-10 * time.Millisecond)
	h.ObserveSince(t0)
	s := h.Snapshot()
	if s.Count != 1 || s.Max < 10*time.Millisecond {
		t.Errorf("ObserveSince sample = %+v, want one sample >= 10ms", s)
	}
}
