package main

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"time"

	"repro/internal/chaos"
	"repro/internal/cluster"
	"repro/internal/sim"
)

// campaign is one chaos.Run and what it cost.
type campaign struct {
	seed int64
	res  chaos.Result
	err  error
	wall time.Duration
	cpu  time.Duration
}

func runCampaign(ctx context.Context, cfg chaos.Config) campaign {
	before := sampleProc()
	res, err := chaos.Run(ctx, cfg)
	w := before.delta()
	return campaign{seed: cfg.Seed, res: res, err: err, wall: w.wall, cpu: w.cpu}
}

// checkCampaign is the chaos-sim check: a campaign passes only when
// chaos.Run returned nil — its history serializable, no item wedged, every
// fault healed.
func checkCampaign(c campaign) error {
	if c.err != nil {
		return fmt.Errorf("campaign seed %d: %w", c.seed, c.err)
	}
	return nil
}

// runChaos runs seeded default campaigns back to back until the window has
// passed, at least one. Campaign i of a run has seed
// chaos.CampaignSeed(seed, i).
func runChaos(ctx context.Context, p params) (outcome, error) {
	out := outcome{values: map[string]float64{}}
	record := func(c campaign) {
		out.attempted++
		if err := checkCampaign(c); err != nil {
			out.failed++
			if out.checkErr == nil {
				out.checkErr = err
			}
		}
	}
	// Set-up is a minimal campaign — one round of one transaction — which
	// builds the simulated network, the stores and their logs once.
	var setups []float64
	for i := 0; i < setupRepeats; i++ {
		c := runCampaign(ctx, chaos.Config{Seed: chaos.CampaignSeed(p.seed, -1-i), Rounds: 1, TxnsPerRound: 1})
		record(c)
		setups = append(setups, c.wall.Seconds())
	}

	before := sampleProc()
	sl := startSlicer(sliceLength, heapInterval, func() int64 { return 0 })
	var camps []campaign
	for i := 0; i == 0 || time.Since(before.wall) < p.seconds; i++ {
		c := runCampaign(ctx, chaos.Config{Seed: chaos.CampaignSeed(p.seed, i)})
		record(c)
		camps = append(camps, c)
	}
	var peak float64
	for _, x := range sl.Stop() {
		peak = max(peak, float64(x.heapPeak)/(1<<20))
	}
	win := before.delta()

	var committed, txns int
	var walls, perTxnMS []float64
	for _, c := range camps {
		committed += c.res.Committed
		txns += c.res.Committed + c.res.Failed
		walls = append(walls, c.wall.Seconds())
		perTxnMS = append(perTxnMS, ratio(1e3*c.wall.Seconds(), float64(c.res.Committed+c.res.Failed)))
		fmt.Fprintf(p.log, "campaign seed %d: %.2fs, cpu %.2fs, committed %d, failed %d, err %v\n",
			c.seed, c.wall.Seconds(), c.cpu.Seconds(), c.res.Committed, c.res.Failed, c.err)
	}
	n := float64(committed)
	v := out.values
	if !p.trace {
		v["setup_s"] = median(setups)
		v["campaign_s"] = median(walls)
		v["txn_per_s"] = n / win.wall.Seconds()
		// chaos.Run reports no per-transaction times: both latency figures
		// are the campaigns' median wall time per top-level transaction.
		v["txn_p50_ms"] = median(perTxnMS)
		v["txn_p99_ms"] = median(perTxnMS)
		v["cpu_us_per_txn"] = ratio(float64(win.cpu.Microseconds()), n)
		v["allocs_per_txn"] = ratio(float64(win.mallocs), n)
		v["peak_heap_mb"] = peak
		return out, nil
	}

	// Traced: rerun the first campaign's seed. Its Result must equal the
	// first run's for exact seeded replay; the count records whether it did.
	first := camps[0]
	again := runCampaign(ctx, chaos.Config{Seed: first.seed})
	record(again)
	res := first.res
	v["txn_samples"] = float64(len(camps))
	v["failed_ratio"] = ratio(float64(txns-committed), float64(txns))
	v["sim.msgs_per_txn"] = ratio(float64(res.Net.Sent), float64(res.Committed))
	v["sim.drop_ratio"] = ratio(float64(res.Net.Dropped), float64(res.Net.Sent))
	v["chaos.cpu_wall_ratio"] = ratio(first.cpu.Seconds(), first.wall.Seconds())
	v["chaos.recoveries"] = float64(res.Recoveries)
	v["chaos.rebuilds"] = float64(res.DiskRebuilds)
	v["chaos.reaps"] = float64(res.ReapsAborted + res.ReapsCommitted)
	if reflect.DeepEqual(first.res, again.res) && errors.Is(again.err, first.err) {
		v["chaos.replay_exact"] = 1
	}
	v["trace.campaign_s_delta_pct"] = 100 * (again.wall.Seconds() - first.wall.Seconds()) / first.wall.Seconds()
	v["trace.cpu_us_per_txn_delta_pct"] = 100 * (ratio(again.cpu.Seconds(), float64(again.res.Committed)) -
		ratio(first.cpu.Seconds(), float64(res.Committed))) / ratio(first.cpu.Seconds(), float64(res.Committed))
	v["runtime.gc_cycles_per_ktxn"] = 1000 * ratio(float64(win.gcCycles), n)
	v["runtime.gc_cpu_fraction"] = win.gcCPUFraction
	hop, err := simHopOvershoot(p.seed)
	if err != nil {
		return outcome{}, err
	}
	v["sim.hop_overshoot_us_p50"] = hop
	return out, nil
}

// simHopOneWay is the fixed one-way latency of the sim hop micro-row.
const simHopOneWay = 500 * time.Microsecond

// simHopOvershoot times round trips on a simulated network whose one-way
// latency is fixed at simHopOneWay, and returns the median time beyond the
// two latencies the network was told to impose, in microseconds.
func simHopOvershoot(seed int64) (float64, error) {
	net := sim.NewNetwork(sim.Config{MinLatency: simHopOneWay, MaxLatency: simHopOneWay, Seed: seed})
	defer net.Close()
	srv, err := net.Serve("echo", func(_ string, _ any, reply func(any)) { reply(cluster.Ack{OK: true}) })
	if err != nil {
		return 0, fmt.Errorf("sim hop: %w", err)
	}
	defer srv.Close()
	cl, err := net.Client("hop")
	if err != nil {
		return 0, fmt.Errorf("sim hop: %w", err)
	}
	defer cl.Close()
	const reps = 500
	us := make([]float64, 0, reps)
	for i := 0; i < reps; i++ {
		start := time.Now()
		if _, err := cl.Call(context.Background(), "echo", cluster.PingReq{Seq: i}); err != nil {
			return 0, fmt.Errorf("sim hop: %w", err)
		}
		us = append(us, usSince(start)-2*float64(simHopOneWay.Microseconds()))
	}
	return quantile(sortedCopy(us), 0.5), nil
}
