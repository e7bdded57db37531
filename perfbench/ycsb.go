package main

import (
	"context"
	"fmt"
	"sync"

	"repro/internal/cluster"
)

// ycsbB is the read-mostly workload: 1,000 keys drawn zipfian (θ=0.99),
// two flat operations per transaction, 95% of them reads, on volatile
// replicas. Every write carries a value no other write carries, so a read
// can be traced back to the write that produced it.
type ycsbB struct {
	keys []string
	zipf *zipfian

	mu        sync.Mutex
	writes    map[int]int  // value -> index of the key it is written to
	committed map[int]bool // values of committed writes
	wroteKey  []bool       // key has at least one committed write
	readErr   error        // first read that returned a value nobody wrote
}

const (
	ycsbKeys      = 1000
	ycsbOpsPerTxn = 2
	ycsbReadRatio = 0.95
	zipfTheta     = 0.99
)

func newYCSB() tcpWorkload {
	w := &ycsbB{
		keys:      make([]string, ycsbKeys),
		zipf:      newZipfian(ycsbKeys, zipfTheta),
		writes:    map[int]int{},
		committed: map[int]bool{},
		wroteKey:  make([]bool, ycsbKeys),
	}
	for i := range w.keys {
		w.keys[i] = fmt.Sprintf("k%04d", i)
	}
	return w
}

func (w *ycsbB) items() []cluster.ItemSpec { return majorityItems(w.keys, 0) }
func (w *ycsbB) durable() bool             { return false }

type ycsbOp struct {
	key   int
	write bool
	val   int
}

// txn draws the transaction's operations before it starts, so restarts
// replay the same operations and the inputs depend on the seed alone.
func (w *ycsbB) txn(ctx context.Context, c *caller) error {
	ops := make([]ycsbOp, ycsbOpsPerTxn)
	for i := range ops {
		ops[i] = ycsbOp{key: w.zipf.next(c.rng), write: c.rng.Float64() >= ycsbReadRatio}
		if ops[i].write {
			ops[i].val = c.uniqueValue()
			w.mu.Lock()
			w.writes[ops[i].val] = ops[i].key
			w.mu.Unlock()
		}
	}
	err := c.run(ctx, func(tx *cluster.Txn) error {
		for _, op := range ops {
			if op.write {
				if err := c.write(ctx, tx, w.keys[op.key], op.val); err != nil {
					return err
				}
				continue
			}
			v, err := c.read(ctx, tx, w.keys[op.key])
			if err != nil {
				return err
			}
			w.checkRead(op.key, v)
		}
		return nil
	})
	if err == nil {
		w.mu.Lock()
		for _, op := range ops {
			if op.write {
				w.committed[op.val] = true
				w.wroteKey[op.key] = true
			}
		}
		w.mu.Unlock()
	}
	return err
}

// checkRead records a read that returned neither the key's initial value
// nor a value some transaction wrote to that key.
func (w *ycsbB) checkRead(key int, v any) {
	if err := w.readOK(key, v); err != nil {
		w.mu.Lock()
		if w.readErr == nil {
			w.readErr = err
		}
		w.mu.Unlock()
	}
}

func (w *ycsbB) readOK(key int, v any) error {
	n, ok := v.(int)
	if !ok {
		return fmt.Errorf("read %s: value %v (%T) is not an int", w.keys[key], v, v)
	}
	if n == 0 {
		return nil
	}
	w.mu.Lock()
	k, ok := w.writes[n]
	w.mu.Unlock()
	if !ok || k != key {
		return fmt.Errorf("read %s: value %d was never written to it", w.keys[key], n)
	}
	return nil
}

// verify fails on any bad read during the run, then reads every key
// through a quorum: a key some committed transaction wrote must hold one
// of the committed values written to it, any other key its initial value.
func (w *ycsbB) verify(ctx context.Context, store *cluster.Store) error {
	w.mu.Lock()
	err := w.readErr
	w.mu.Unlock()
	if err != nil {
		return err
	}
	vals, err := readAll(ctx, store, w.keys)
	if err != nil {
		return err
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	for i, v := range vals {
		n, ok := v.(int)
		switch {
		case !ok:
			return fmt.Errorf("final %s: value %v (%T) is not an int", w.keys[i], v, v)
		case !w.wroteKey[i] && n != 0:
			return fmt.Errorf("final %s: %d, but no committed transaction wrote it", w.keys[i], n)
		case w.wroteKey[i] && (!w.committed[n] || w.writes[n] != i):
			return fmt.Errorf("final %s: %d is not a committed write to it", w.keys[i], n)
		}
	}
	return nil
}

// readAll reads items through read quorums, a batch of them per read-only
// transaction.
func readAll(ctx context.Context, store *cluster.Store, items []string) ([]any, error) {
	const batch = 64
	vals := make([]any, len(items))
	for lo := 0; lo < len(items); lo += batch {
		hi := min(lo+batch, len(items))
		err := store.Run(ctx, func(tx *cluster.Txn) error {
			for i := lo; i < hi; i++ {
				v, err := tx.Read(ctx, items[i])
				if err != nil {
					return err
				}
				vals[i] = v
			}
			return nil
		})
		if err != nil {
			return nil, fmt.Errorf("final read: %w", err)
		}
	}
	return vals, nil
}
