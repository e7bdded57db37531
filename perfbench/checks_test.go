package main

import (
	"context"
	"encoding/json"
	"errors"
	"os"
	"testing"

	"repro/internal/chaos"
	"repro/internal/checker"
	"repro/internal/cluster"
)

// The workload checks must be live: each one passes on an honest run and
// fails on damage planted after it.

// startWarm starts w's cluster and runs a few transactions per caller.
func startWarm(t *testing.T, w tcpWorkload) *tcpCluster {
	t.Helper()
	c, err := startTCP(w.items(), 7, w.durable(), nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.close)
	r := loop(context.Background(), newCallers(c.store, 7), 0, 20, false, w.txn)
	if r.failed > 0 || r.committed == 0 {
		t.Fatalf("warm-up: %d committed, %d failed", r.committed, r.failed)
	}
	if err := w.verify(context.Background(), c.store); err != nil {
		t.Fatalf("check failed on an honest run: %v", err)
	}
	return c
}

// plant writes v to item in a transaction the workload does not know of.
func plant(t *testing.T, store *cluster.Store, item string, v func(old int) int) {
	t.Helper()
	ctx := context.Background()
	err := store.Run(ctx, func(tx *cluster.Txn) error {
		old, err := readInt(tx.ReadForUpdate(ctx, item))
		if err != nil {
			return err
		}
		return tx.Write(ctx, item, v(old))
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestBankCheckCatchesTamperedBalance(t *testing.T) {
	w := newBank()
	c := startWarm(t, w)
	plant(t, c.store, "acct007", func(old int) int { return old + 1 })
	if err := w.verify(context.Background(), c.store); err == nil {
		t.Fatal("a tampered balance passed the check")
	}
}

func TestBankCheckCatchesUncountedFee(t *testing.T) {
	w := newBank()
	c := startWarm(t, w)
	plant(t, c.store, bankRevenue, func(old int) int { return old + 1 })
	if err := w.verify(context.Background(), c.store); err == nil {
		t.Fatal("revenue from no committed fee passed the check")
	}
}

func TestYCSBCheckCatchesValueNobodyWrote(t *testing.T) {
	w := newYCSB()
	c := startWarm(t, w)
	plant(t, c.store, "k0500", func(int) int { return 1<<50 + 3 })
	if err := w.verify(context.Background(), c.store); err == nil {
		t.Fatal("a final value nobody wrote passed the check")
	}
}

func TestYCSBCheckCatchesBadRead(t *testing.T) {
	w := newYCSB()
	startWarm(t, w)
	y := w.(*ycsbB)
	y.checkRead(3, 1<<50+5)
	if err := y.readErr; err == nil {
		t.Fatal("a read of a value nobody wrote passed the check")
	}
	// A value written to another key is just as wrong.
	y.writes[1<<50+6] = 9
	y.readErr = nil
	y.checkRead(4, 1<<50+6)
	if y.readErr == nil {
		t.Fatal("a read of another key's value passed the check")
	}
}

func TestChaosCheckCatchesCampaignError(t *testing.T) {
	if err := checkCampaign(campaign{seed: 1, err: errors.New("planted")}); err == nil {
		t.Fatal("a non-nil campaign error passed the check")
	}
	// A real campaign on a healthy network, with version increments masked
	// by the store's test-only mutation hook, must fail verification.
	c := runCampaign(context.Background(), chaos.Config{
		Seed: 3, Rounds: 2, TxnsPerRound: 4, Faults: []chaos.Fault{}, ReadFraction: 0.2,
		MutateVN: func(_ string, vn int) int { return max(vn-1, 1) },
	})
	var v *checker.Violation
	if err := checkCampaign(c); !errors.As(err, &v) {
		t.Fatalf("masked version increments: check returned %v, want a *checker.Violation", err)
	}
}

// TestBenchmarkJSON keeps BENCHMARK.json and the metric lists the program
// reports in step.
func TestBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bench struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &bench); err != nil {
		t.Fatal(err)
	}
	for _, w := range bench.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("workload %q is not in the program", w.Name)
		}
	}
	same := func(what string, got []struct{ Name, Unit string }, want []spec) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the program %d", what, len(got), len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s %d: BENCHMARK.json has %s (%s), the program %s (%s)", what, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	same("end_to_end", bench.EndToEnd, endToEnd)
	same("per_layer", bench.PerLayer, perLayer)
}
