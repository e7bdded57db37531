package main

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"repro/internal/cluster"
)

// bankNested is the durable nested-transfer workload, modeled on
// examples/banking. Each transfer is one top-level transaction of three
// subtransactions: a debit of one zipfian-chosen account, a credit of
// another, and a fee that increments one shared revenue item. One fee in
// ten aborts on purpose after its write, and the transfer commits anyway.
type bankNested struct {
	accounts []string
	zipf     *zipfian

	mu   sync.Mutex
	fees int // committed transfers whose fee subtransaction committed
}

const (
	bankAccounts    = 256
	bankInitial     = 1000
	bankRevenue     = "revenue"
	bankFeeAbortOne = 10 // one fee in this many aborts on purpose
)

var errFeeAborted = errors.New("fee subtransaction aborted on purpose")

func newBank() tcpWorkload {
	w := &bankNested{accounts: make([]string, bankAccounts), zipf: newZipfian(bankAccounts, zipfTheta)}
	for i := range w.accounts {
		w.accounts[i] = fmt.Sprintf("acct%03d", i)
	}
	return w
}

func (w *bankNested) items() []cluster.ItemSpec {
	return append(majorityItems(w.accounts, bankInitial), majorityItems([]string{bankRevenue}, 0)...)
}

func (w *bankNested) durable() bool { return true }

// move is one subtransaction adding delta to an account's balance.
func (w *bankNested) move(ctx context.Context, c *caller, tx *cluster.Txn, acct string, delta int) error {
	return c.sub(ctx, tx, func(s *cluster.Txn) error {
		bal, err := readInt(c.readForUpdate(ctx, s, acct))
		if err != nil {
			return err
		}
		return c.write(ctx, s, acct, bal+delta)
	})
}

func (w *bankNested) txn(ctx context.Context, c *caller) error {
	from := w.zipf.next(c.rng)
	to := w.zipf.next(c.rng)
	for to == from {
		to = w.zipf.next(c.rng)
	}
	amount := 1 + c.rng.Intn(10)
	feeAborts := c.rng.Intn(bankFeeAbortOne) == 0
	var feeOK bool
	err := c.run(ctx, func(tx *cluster.Txn) error {
		if err := w.move(ctx, c, tx, w.accounts[from], -amount); err != nil {
			return err
		}
		if err := w.move(ctx, c, tx, w.accounts[to], amount); err != nil {
			return err
		}
		// The fee is best effort: the transfer tolerates its abort, the
		// deliberate one and any other.
		feeOK = c.sub(ctx, tx, func(s *cluster.Txn) error {
			rev, err := readInt(c.readForUpdate(ctx, s, bankRevenue))
			if err != nil {
				return err
			}
			if err := c.write(ctx, s, bankRevenue, rev+1); err != nil {
				return err
			}
			if feeAborts {
				return errFeeAborted
			}
			return nil
		}) == nil
		return nil
	})
	if err == nil && feeOK {
		w.mu.Lock()
		w.fees++
		w.mu.Unlock()
	}
	return err
}

func readInt(v any, err error) (int, error) {
	if err != nil {
		return 0, err
	}
	n, ok := v.(int)
	if !ok {
		return 0, fmt.Errorf("value %v (%T) is not an int", v, v)
	}
	return n, nil
}

// verify reads every account and the revenue item through read quorums:
// transfers conserve the sum of balances, and revenue counts exactly the
// committed transfers whose fee committed.
func (w *bankNested) verify(ctx context.Context, store *cluster.Store) error {
	vals, err := readAll(ctx, store, append(append([]string(nil), w.accounts...), bankRevenue))
	if err != nil {
		return err
	}
	sum := 0
	for i, v := range vals[:bankAccounts] {
		n, ok := v.(int)
		if !ok {
			return fmt.Errorf("final %s: value %v (%T) is not an int", w.accounts[i], v, v)
		}
		sum += n
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if want := bankAccounts * bankInitial; sum != want {
		return fmt.Errorf("sum of balances is %d, want %d", sum, want)
	}
	if rev, ok := vals[bankAccounts].(int); !ok || rev != w.fees {
		return fmt.Errorf("revenue is %v, want %d committed fees", vals[bankAccounts], w.fees)
	}
	return nil
}
