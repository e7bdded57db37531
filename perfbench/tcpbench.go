package main

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"time"

	"repro/internal/cluster"
	"repro/internal/transport/tcp"
	"repro/internal/wal"
)

// tcpWorkload is a workload the closed-loop callers drive over a tcpCluster.
type tcpWorkload interface {
	items() []cluster.ItemSpec
	durable() bool
	// txn runs one top-level transaction for caller c.
	txn(ctx context.Context, c *caller) error
	// verify checks the run's reads and the cluster's final state.
	verify(ctx context.Context, store *cluster.Store) error
}

const (
	// setupRepeats is how often a run sets the cluster up; setup_s is the
	// median. The last cluster stays up for the timed windows.
	setupRepeats = 3
	// warmupTxns is how many transactions each caller runs during set-up.
	warmupTxns = 100
	// heapInterval is how often the heap is sampled for peak_heap_mb, and
	// sliceLength the slices txn_per_s, cpu_us_per_txn and peak_heap_mb
	// take their medians over.
	heapInterval = 20 * time.Millisecond
	sliceLength  = time.Second
)

// runTCP sets the cluster up, runs the untraced timed window and, when
// tracing, a traced window on the same cluster, then checks the output.
func runTCP(ctx context.Context, p params, mk func() tcpWorkload) (outcome, error) {
	var (
		c      *tcpCluster
		w      tcpWorkload
		cs     []*caller
		setups []float64
		out    = outcome{values: map[string]float64{}}
	)
	defer func() {
		if c != nil {
			c.close()
		}
	}()
	for i := 0; i < setupRepeats; i++ {
		if c != nil {
			c.close()
		}
		var tr *tracer
		if p.trace {
			tr = newTracer()
		}
		start := time.Now()
		w = mk()
		var err error
		if c, err = startTCP(w.items(), p.seed, w.durable(), tr); err != nil {
			return outcome{}, err
		}
		cs = newCallers(c.store, p.seed)
		warm := loop(ctx, cs, 0, warmupTxns, false, w.txn)
		setups = append(setups, time.Since(start).Seconds())
		out.attempted += int64(warm.attempted)
		out.failed += int64(warm.failed)
	}

	before := sampleProc()
	sl := startSlicer(sliceLength, heapInterval, cs[0].total.Load)
	r := loop(ctx, cs, p.seconds, 0, false, w.txn)
	slices := sl.Stop()
	win := before.delta()
	out.attempted += int64(r.attempted)
	out.failed += int64(r.failed)
	n := float64(r.committed)
	lat := sortedCopy(r.txnUS)
	tput, cpuPerTxn, peak := sliceMedians(slices)
	fmt.Fprintf(p.log, "untraced: %d committed in %.2fs, %d slices, %d latency samples, %.0f txn/s, p50 %.3f ms, p99 %.3f ms, setups %v\n",
		r.committed, win.wall.Seconds(), len(slices), len(lat), tput, quantile(lat, 0.5)/1e3, quantile(lat, 0.99)/1e3, setups)

	if !p.trace {
		v := out.values
		v["setup_s"] = median(setups)
		v["txn_per_s"] = tput
		v["txn_p50_ms"] = quantile(lat, 0.5) / 1e3
		v["txn_p99_ms"] = quantile(lat, 0.99) / 1e3
		v["cpu_us_per_txn"] = cpuPerTxn
		v["allocs_per_txn"] = ratio(float64(win.mallocs), n)
		v["peak_heap_mb"] = peak
	} else {
		t, err := traceTCP(ctx, p, c, cs, w, tput, cpuPerTxn, out.values)
		if err != nil {
			return outcome{}, err
		}
		out.attempted += t.attempted
		out.failed += t.failed
	}
	out.checkErr = w.verify(ctx, c.store)
	return out, nil
}

func sortedCopy(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}

// traceTCP runs the traced window and the layer micro-rows, filling the
// per-layer values. untracedTput and untracedCPU are the untraced window's
// figures, for the tracing-overhead rows.
func traceTCP(ctx context.Context, p params, c *tcpCluster, cs []*caller, w tcpWorkload, untracedTput, untracedCPU float64, v map[string]float64) (outcome, error) {
	tr := c.tracer
	st := &c.store.Stats
	restarts, busy, hedges := st.Restarts.Value(), st.BusyRetries.Value(), st.Hedges.Value()
	tr.on.Store(true)
	before := sampleProc()
	sl := startSlicer(sliceLength, heapInterval, cs[0].total.Load)
	r := loop(ctx, cs, p.seconds, 0, true, w.txn)
	tput, cpuPerTxn, _ := sliceMedians(sl.Stop())
	win := before.delta()
	tr.on.Store(false)
	n := float64(r.committed)
	perTxn := func(x int64) float64 { return ratio(float64(x), n) }
	v["txn_samples"] = float64(len(r.txnUS))
	v["failed_ratio"] = ratio(float64(r.failed), float64(r.attempted))
	v["trace.txn_per_s_delta_pct"] = 100 * (tput - untracedTput) / untracedTput
	v["trace.cpu_us_per_txn_delta_pct"] = 100 * (cpuPerTxn - untracedCPU) / untracedCPU

	read, write, sub, commit := sortedCopy(r.readUS), sortedCopy(r.writeUS), sortedCopy(r.subUS), sortedCopy(r.commitUS)
	v["cluster.read_us_p50"] = quantile(read, 0.5)
	v["cluster.read_us_p99"] = quantile(read, 0.99)
	v["cluster.write_us_p50"] = quantile(write, 0.5)
	v["cluster.sub_us_p50"] = quantile(sub, 0.5)
	v["cluster.commit_us_p50"] = quantile(commit, 0.5)
	v["cluster.commit_us_p99"] = quantile(commit, 0.99)
	v["cluster.restarts_per_txn"] = perTxn(st.Restarts.Value() - restarts)
	v["cluster.busy_retries_per_txn"] = perTxn(st.BusyRetries.Value() - busy)
	v["cluster.hedges_per_txn"] = perTxn(st.Hedges.Value() - hedges)
	v["cluster.useful_ratio"] = ratio(n, float64(r.bodies))

	service, calls := tr.serviceUS.sorted(), tr.callUS.sorted()
	v["dm.service_us_p50"] = quantile(service, 0.5)
	v["dm.service_us_p99"] = quantile(service, 0.99)
	v["dm.requests_per_txn"] = perTxn(tr.requests.Load())
	v["tcp.calls_per_txn"] = perTxn(tr.calls.Load())
	v["tcp.notifies_per_txn"] = perTxn(tr.notifies.Load())
	v["tcp.call_us_p50"] = quantile(calls, 0.5)
	v["tcp.call_us_p99"] = quantile(calls, 0.99)
	v["tcp.overhead_us_per_call"] = mean(calls) - mean(service)
	v["tcp.errors_per_txn"] = perTxn(tr.callErrors.Load())

	tr.codecMu.Lock()
	codecErr := tr.codecErr
	msgs := float64(tr.codecMsgs)
	v["codec.bytes_per_msg"] = ratio(float64(tr.codecBytes), msgs)
	v["codec.bytes_per_txn"] = perTxn(tr.codecBytes)
	v["codec.encode_us_per_msg"] = ratio(float64(tr.codecEncode.Nanoseconds())/1e3, msgs)
	v["codec.decode_us_per_msg"] = ratio(float64(tr.codecDecode.Nanoseconds())/1e3, msgs)
	samples := tr.codecSamples
	counts := tr.codecCounts
	tr.codecMu.Unlock()
	if codecErr != nil {
		return outcome{}, fmt.Errorf("a message the cluster sent does not survive the wire codec: %w", codecErr)
	}
	allocs, weight := 0.0, 0.0
	for name, f := range samples {
		m := codecMicro(f)
		allocs += m.allocs * float64(counts[name])
		weight += float64(counts[name])
		v["codec.encode_us."+name] = m.encodeUS
		v["codec.decode_us."+name] = m.decodeUS
		v["codec.bytes."+name] = m.bytes
		v["codec.allocs."+name] = m.allocs
	}
	v["codec.allocs_per_msg"] = ratio(allocs, weight)
	fmt.Fprintf(p.log, "traced: %d committed, message types seen %v\n", r.committed, counts)

	hop, err := tcpHop()
	if err != nil {
		return outcome{}, err
	}
	v["tcp.hop_us_p50"] = hop

	v["runtime.gc_cycles_per_ktxn"] = 1000 * perTxn(int64(win.gcCycles))
	v["runtime.gc_cpu_fraction"] = win.gcCPUFraction

	if w.durable() {
		v["wal.bytes_per_txn"] = perTxn(tr.walBytes.Load())
		v["wal.writes_per_txn"] = perTxn(tr.walWrites.Load())
		v["wal.fsyncs_per_txn"] = perTxn(tr.walFsyncs.Load())
		v["wal.fsync_us_p50"] = quantile(tr.fsyncUS.sorted(), 0.5)
		v["wal.snapshots_per_ktxn"] = 1000 * perTxn(tr.walSnapshots.Load())
		if v["wal.append_us_p50"], err = walAppend(); err != nil {
			return outcome{}, err
		}
		d, rec, err := c.restart(replicaIDs[len(replicaIDs)-1])
		if err != nil {
			return outcome{}, err
		}
		v["dm.restart_ms"] = float64(d.Microseconds()) / 1e3
		v["wal.replay_us_per_record"] = ratio(float64(d.Microseconds()), float64(rec.Replayed))
		fmt.Fprintf(p.log, "restart: %v, replayed %d records\n", d, rec.Replayed)
	}
	return outcome{attempted: int64(r.attempted), failed: int64(r.failed)}, nil
}

// codecRow is one message type's codec cost, per message.
type codecRow struct {
	encodeUS, decodeUS, bytes, allocs float64
}

// codecMicro encodes and decodes one frame in a tight loop on an idle
// cluster, for per-type times and allocation counts. The times are medians
// over batches, so a GC cycle in one batch does not set them.
func codecMicro(f tcp.Frame) codecRow {
	const batches, reps = 9, 100
	b, _ := tcp.EncodeFrame(f) // the frame went through the codec once already in traffic
	var enc, dec []float64
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := 0; i < batches; i++ {
		start := time.Now()
		for j := 0; j < reps; j++ {
			_, _ = tcp.EncodeFrame(f)
		}
		enc = append(enc, usSince(start)/reps)
		start = time.Now()
		for j := 0; j < reps; j++ {
			_, _ = tcp.DecodeFrame(b)
		}
		dec = append(dec, usSince(start)/reps)
	}
	runtime.ReadMemStats(&m1)
	return codecRow{
		encodeUS: median(enc),
		decodeUS: median(dec),
		bytes:    float64(len(b)),
		allocs:   float64(m1.Mallocs-m0.Mallocs) / (batches * reps),
	}
}

// tcpHop times loopback round trips to an echo handler on a fresh
// transport and returns the median in microseconds.
func tcpHop() (float64, error) {
	tr := tcp.New()
	defer tr.Close()
	srv, err := tr.Serve("echo", func(_ string, _ any, reply func(any)) { reply(cluster.Ack{OK: true}) })
	if err != nil {
		return 0, fmt.Errorf("tcp hop: %w", err)
	}
	defer srv.Close()
	cl, err := tr.Client("hop")
	if err != nil {
		return 0, fmt.Errorf("tcp hop: %w", err)
	}
	defer cl.Close()
	const warm, reps = 100, 2000
	var us []float64
	for i := 0; i < warm+reps; i++ {
		start := time.Now()
		if _, err := cl.Call(context.Background(), "echo", cluster.PingReq{Seq: i}); err != nil {
			return 0, fmt.Errorf("tcp hop: %w", err)
		}
		if i >= warm {
			us = append(us, usSince(start))
		}
	}
	return quantile(sortedCopy(us), 0.5), nil
}

// walAppend times 64-byte appends to a fresh log on the in-memory
// filesystem, fsync and group commit on, and returns the median in
// microseconds.
func walAppend() (float64, error) {
	log, _, err := wal.Open("append", wal.WithFS(newMemFS()), wal.WithFsync(true), wal.WithGroupCommit(true))
	if err != nil {
		return 0, fmt.Errorf("wal append: %w", err)
	}
	defer log.Close()
	payload := make([]byte, 64)
	const reps = 5000
	us := make([]float64, 0, reps)
	for i := 0; i < reps; i++ {
		start := time.Now()
		if err := log.Append(payload); err != nil {
			return 0, fmt.Errorf("wal append: %w", err)
		}
		us = append(us, usSince(start))
	}
	return quantile(sortedCopy(us), 0.5), nil
}
