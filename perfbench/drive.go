package main

import (
	"context"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cluster"
)

// clients is the number of closed-loop callers: each waits for its
// transaction to finish before it starts the next one. It equals the core
// count of the 2-core host the benchmark was sized on.
const clients = 2

// caller is one closed-loop client. Its random stream is derived from the
// run's seed and its index, so the same seed draws the same inputs. With
// spans on it times every call into the cluster layer.
type caller struct {
	idx   int
	rng   *rand.Rand
	store *cluster.Store
	total *atomic.Int64 // committed transactions of all callers
	spans bool
	seq   int

	attempted, failed, committed int
	bodies                       int
	txnUS                        []float64
	readUS, writeUS, subUS       []float64
	commitUS                     []float64
}

func newCallers(store *cluster.Store, seed int64) []*caller {
	cs := make([]*caller, clients)
	total := new(atomic.Int64)
	for i := range cs {
		cs[i] = &caller{idx: i, rng: rand.New(rand.NewSource(seed*1000003 + int64(i))), store: store, total: total}
	}
	return cs
}

// reset zeroes the caller's counters and samples for a new window; its
// random stream and value sequence carry on.
func (c *caller) reset(spans bool) {
	*c = caller{idx: c.idx, rng: c.rng, store: c.store, total: c.total, seq: c.seq, spans: spans}
}

// uniqueValue returns a value no other write of the run carries.
func (c *caller) uniqueValue() int {
	c.seq++
	return (c.idx+1)<<40 | c.seq
}

// usSince returns the microseconds elapsed since start.
func usSince(start time.Time) float64 { return float64(time.Since(start).Nanoseconds()) / 1e3 }

// run executes body as one top-level transaction and records its outcome;
// the latency of a committed transaction includes its restarts.
func (c *caller) run(ctx context.Context, body func(*cluster.Txn) error) error {
	c.attempted++
	var bodyEnd time.Time
	start := time.Now()
	err := c.store.Run(ctx, func(tx *cluster.Txn) error {
		c.bodies++
		err := body(tx)
		bodyEnd = time.Now()
		return err
	})
	if err != nil {
		c.failed++
		return err
	}
	c.committed++
	c.total.Add(1)
	c.txnUS = append(c.txnUS, usSince(start))
	if c.spans {
		c.commitUS = append(c.commitUS, usSince(bodyEnd))
	}
	return nil
}

func (c *caller) read(ctx context.Context, tx *cluster.Txn, item string) (any, error) {
	if !c.spans {
		return tx.Read(ctx, item)
	}
	start := time.Now()
	v, err := tx.Read(ctx, item)
	c.readUS = append(c.readUS, usSince(start))
	return v, err
}

func (c *caller) readForUpdate(ctx context.Context, tx *cluster.Txn, item string) (any, error) {
	if !c.spans {
		return tx.ReadForUpdate(ctx, item)
	}
	start := time.Now()
	v, err := tx.ReadForUpdate(ctx, item)
	c.readUS = append(c.readUS, usSince(start))
	return v, err
}

func (c *caller) write(ctx context.Context, tx *cluster.Txn, item string, v any) error {
	if !c.spans {
		return tx.Write(ctx, item, v)
	}
	start := time.Now()
	err := tx.Write(ctx, item, v)
	c.writeUS = append(c.writeUS, usSince(start))
	return err
}

func (c *caller) sub(ctx context.Context, tx *cluster.Txn, fn func(*cluster.Txn) error) error {
	if !c.spans {
		return tx.Sub(ctx, fn)
	}
	start := time.Now()
	err := tx.Sub(ctx, fn)
	c.subUS = append(c.subUS, usSince(start))
	return err
}

// loopResult sums what the callers of one window did.
type loopResult struct {
	attempted, failed, committed, bodies int
	txnUS, readUS, writeUS, subUS        []float64
	commitUS                             []float64
}

// loop runs txn on every caller, closed-loop, until d has passed or n
// transactions per caller have been attempted (n <= 0: no count limit).
// Counters start from zero for each call.
func loop(ctx context.Context, cs []*caller, d time.Duration, n int, spans bool, txn func(context.Context, *caller) error) loopResult {
	var stop atomic.Bool
	var wg sync.WaitGroup
	for _, c := range cs {
		c.reset(spans)
		wg.Add(1)
		go func(c *caller) {
			defer wg.Done()
			for i := 0; !stop.Load() && (n <= 0 || i < n) && ctx.Err() == nil; i++ {
				_ = txn(ctx, c) // the outcome is counted by caller.run
			}
		}(c)
	}
	if d > 0 {
		t := time.NewTimer(d)
		done := make(chan struct{})
		go func() { wg.Wait(); close(done) }()
		select {
		case <-t.C:
		case <-done:
		}
		t.Stop()
		stop.Store(true)
	}
	wg.Wait()
	var r loopResult
	for _, c := range cs {
		r.attempted += c.attempted
		r.failed += c.failed
		r.committed += c.committed
		r.bodies += c.bodies
		r.txnUS = append(r.txnUS, c.txnUS...)
		r.readUS = append(r.readUS, c.readUS...)
		r.writeUS = append(r.writeUS, c.writeUS...)
		r.subUS = append(r.subUS, c.subUS...)
		r.commitUS = append(r.commitUS, c.commitUS...)
	}
	return r
}
