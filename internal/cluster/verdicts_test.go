package cluster

import (
	"context"
	"strconv"
	"testing"

	"repro/internal/quorum"
	"repro/internal/transport/tcp"
	"repro/internal/wal"
)

// TestSplitTxnIDRoundTrip: every id splits into a (prefix, number) pair
// that joins back to the same id — client ids of every kind, ids without
// digits, leading zeros, digit runs too long for an int64.
func TestSplitTxnIDRoundTrip(t *testing.T) {
	cases := []struct {
		id     TxnID
		prefix string
		n      int64
	}{
		{"c1.t42", "c1.t", 42},
		{"c12.x7", "c12.x", 7},
		{"c3.m0", "c3.m", 0},
		{"c1.orphan9", "c1.orphan", 9},
		{"t1", "t", 1},
		{"zz.t77", "zz.t", 77},
		{"reaped", "reaped", -1},
		{"", "", -1},
		{"t007", "t00", 7},
		{"t000", "t00", 0},
		{"0", "", 0},
		{"x1234567890123456789012", "x1234", 567890123456789012},
		{"p999999999999999999", "p", 999999999999999999},
	}
	for _, c := range cases {
		p, n := splitTxnID(c.id)
		if p != c.prefix || n != c.n {
			t.Errorf("splitTxnID(%q) = (%q, %d), want (%q, %d)", c.id, p, n, c.prefix, c.n)
		}
		if got := joinTxnID(p, n); got != c.id {
			t.Errorf("joinTxnID(splitTxnID(%q)) = %q", c.id, got)
		}
	}
}

// TestVerdictSetDistinguishesIDs: ids that differ only in leading zeros,
// in a missing number, or across a word boundary keep separate outcomes.
func TestVerdictSetDistinguishesIDs(t *testing.T) {
	v := verdictSet{}
	ids := []TxnID{"t7", "t07", "t007", "t", "t63", "t64", "u7", "reaped", "t0"}
	for i, id := range ids {
		v.set(id, i%2 == 0)
	}
	for i, id := range ids {
		known, committed := v.get(id)
		if !known || committed != (i%2 == 0) {
			t.Errorf("%q: known=%v committed=%v, want known committed=%v", id, known, committed, i%2 == 0)
		}
	}
	for _, id := range []TxnID{"t8", "t0007", "t65", "u", "reaped1"} {
		if known, _ := v.get(id); known {
			t.Errorf("%q reported resolved, never set", id)
		}
	}
	if n := v.count(); n != len(ids) {
		t.Errorf("count = %d, want %d", n, len(ids))
	}
	// An outcome can be rewritten (a duplicate abort) and forgotten.
	v.set("t7", false)
	if _, committed := v.get("t7"); committed {
		t.Error("rewritten outcome kept the old verdict")
	}
	v.clear("t7")
	if known, _ := v.get("t7"); known {
		t.Error("cleared outcome still known")
	}
	// merge refuses a word that contradicts a known outcome.
	if v.merge(VerdictWord{Prefix: "t", Block: 0, Known: 1 << 63, Committed: 0}) {
		t.Error("merge accepted a contradicting outcome for t63")
	}
}

// TestTxnResolvedDoesNotAllocate: the resolution check runs on every
// request, resolved or not, compacted or not.
func TestTxnResolvedDoesNotAllocate(t *testing.T) {
	srv := newDMState("dm0", nil)
	srv.configureRetention(1)
	srv.markResolved("c1.t1", true, nil)
	srv.markResolved("c1.t2", true, nil) // compacts c1.t1
	for _, id := range []TxnID{"c1.t1/0", "c1.t2", "c1.t3/1/2", "nodigits"} {
		if n := testing.AllocsPerRun(100, func() { srv.txnResolved(id) }); n != 0 {
			t.Errorf("txnResolved(%q) allocates %.1f times", id, n)
		}
	}
}

// TestLateReleaseOfResolvedTxnLeavesNoTombstone: a ReleaseReq arriving
// after its transaction resolved is acknowledged without a tombstone —
// none would ever be cleared, and txnResolved already refuses every late
// copy of the transaction's phases.
func TestLateReleaseOfResolvedTxnLeavesNoTombstone(t *testing.T) {
	cfg := quorum.Majority([]string{"dm0"})
	srv := newDMState("dm0", []ItemSpec{{Name: "x", Config: cfg}, {Name: "y", Config: cfg}})
	srv.apply(WriteReq{Txn: "c1.t1", Item: "x", VN: 1, Val: 1, Seq: 1})
	srv.apply(CommitTopReq{Txn: "c1.t1"})
	resp, mutated := srv.apply(ReleaseReq{Txn: "c1.t1", Item: "y", Seq: 2})
	if ack, ok := resp.(Ack); !ok || !ack.OK || mutated {
		t.Fatalf("late release = %#v mutated=%v, want an unlogged ack", resp, mutated)
	}
	for i := 2; i <= 50; i++ {
		tid := TxnID("c1.t" + strconv.Itoa(i))
		srv.apply(WriteReq{Txn: tid, Item: "y", VN: i, Val: i, Seq: 1})
		srv.apply(CommitTopReq{Txn: tid})
	}
	if n := len(srv.replicas["y"].released); n != 0 {
		t.Fatalf("y still carries release tombstones %v", srv.replicas["y"].released)
	}
	// The refusal of the resolved transaction still stands.
	if r, _ := srv.apply(ReadReq{Txn: "c1.t1", Item: "y", Lock: LockRead, Seq: 2}); r.(ReadResp).OK {
		t.Fatal("resolved transaction granted a lock")
	}
}

// TestRetentionCapCoversRestoredRecords: records a snapshot restored or a
// replay re-applied join the retention log when retention is armed, so
// the cap holds across restarts — not only for resolutions made after.
func TestRetentionCapCoversRestoredRecords(t *testing.T) {
	const capN = 10
	src := newDMState("dm0", nil)
	for i := 1; i <= 60; i++ {
		tid := TxnID("c1.t" + strconv.Itoa(i))
		src.apply(CommitTopReq{Txn: tid, Subs: []TxnID{tid + "/0"}})
	}
	snap, err := encodeSnapshot(src)
	if err != nil {
		t.Fatal(err)
	}
	srv := newDMState("dm0", nil)
	if err := restoreSnapshot(srv, snap); err != nil {
		t.Fatal(err)
	}
	// Replay: the log records after the snapshot.
	for i := 61; i <= 110; i++ {
		tid := TxnID("c1.t" + strconv.Itoa(i))
		srv.apply(CommitTopReq{Txn: tid, Subs: []TxnID{tid + "/0"}})
	}
	srv.configureRetention(capN)
	for i := 111; i <= 130; i++ {
		tid := TxnID("c1.t" + strconv.Itoa(i))
		srv.apply(CommitTopReq{Txn: tid, Subs: []TxnID{tid + "/0"}})
	}
	withSubs := 0
	for _, res := range srv.resolved {
		if res.subs != nil {
			withSubs++
		}
	}
	if withSubs > capN {
		t.Fatalf("%d records carry subs after restore and 20 new resolutions, cap %d", withSubs, capN)
	}
	for i := 1; i <= 130; i++ {
		tid := TxnID("c1.t" + strconv.Itoa(i))
		if resp, mutated := srv.apply(CommitTopReq{Txn: tid}); !resp.(Ack).OK || mutated {
			t.Fatalf("%s: verdict lost past the cap: %#v mutated=%v", tid, resp, mutated)
		}
	}
}

// TestSnapshotWithoutVerdictSection: a snapshot that ends before the
// verdict words (written before compact verdicts existed) still restores.
func TestSnapshotWithoutVerdictSection(t *testing.T) {
	src := newDMState("dm0", []ItemSpec{{Name: "x", Config: quorum.Majority([]string{"dm0"})}})
	src.apply(WriteReq{Txn: "c1.t1", Item: "x", VN: 1, Val: "v", Seq: 1})
	src.apply(CommitTopReq{Txn: "c1.t1"})
	snap, err := encodeSnapshot(src)
	if err != nil {
		t.Fatal(err)
	}
	// No verdicts: the section is one zero count byte at the end.
	if snap[len(snap)-1] != 0 {
		t.Fatalf("snapshot does not end in an empty verdict section: % x", snap[len(snap)-4:])
	}
	srv := newDMState("dm0", nil)
	if err := restoreSnapshot(srv, snap[:len(snap)-1]); err != nil {
		t.Fatalf("restore of a snapshot without the verdict section: %v", err)
	}
	if !srv.txnResolved("c1.t1") || srv.replicas["x"].vn != 1 {
		t.Fatal("restored state lost the commit")
	}
}

// TestRebuildAnswerWithMillionVerdictsFitsFrame: a replica that resolved a
// million transactions still answers a rebuild pull in one TCP frame, and
// the answer carries every outcome.
func TestRebuildAnswerWithMillionVerdictsFitsFrame(t *testing.T) {
	if testing.Short() {
		t.Skip("resolves a million transactions")
	}
	const n = 1_000_000
	srv := newDMState("dm0", nil)
	srv.configureRetention(defaultResolvedRetention)
	for i := 1; i <= n; i++ {
		// Three clients, commits and aborts interleaved.
		tid := TxnID("c" + strconv.Itoa(i%3) + ".t" + strconv.Itoa(i))
		srv.markResolved(tid, i%5 != 0, []TxnID{tid + "/0"})
	}
	resp, _ := srv.coordinateRebuild(RebuildPullReq{For: "dm1"})
	body, err := tcp.EncodeFrame(tcp.Frame{Kind: 3, ID: 1, Resp: resp})
	if err != nil {
		t.Fatalf("encode rebuild answer: %v", err)
	}
	if len(body) > tcp.MaxFrame/4 {
		t.Errorf("rebuild answer is %d bytes, want well under MaxFrame (%d)", len(body), tcp.MaxFrame)
	}
	f, err := tcp.DecodeFrame(body)
	if err != nil {
		t.Fatal(err)
	}
	got := f.Resp.(RebuildPullResp)
	dst := newDMState("dm1", nil)
	for t2, res := range got.Resolved {
		dst.resolved[t2] = &resolution{committed: res.Committed, subs: res.Subs}
	}
	for _, w := range got.Verdicts {
		if !dst.verdicts.merge(w) {
			t.Fatalf("word %+v conflicts", w)
		}
	}
	if c := dst.resolvedCount(); c != n {
		t.Fatalf("answer carries %d outcomes, want %d", c, n)
	}
	for i := 1; i <= n; i += 997 {
		tid := TxnID("c" + strconv.Itoa(i%3) + ".t" + strconv.Itoa(i))
		res, ok := dst.verdict(tid)
		if !ok || res.committed != (i%5 != 0) {
			t.Fatalf("%s: ok=%v committed=%v, want committed=%v", tid, ok, res.committed, i%5 != 0)
		}
	}
}

// TestRebuildRestoresCompactedVerdicts: a replica rebuilt from peers whose
// retention compacted most of their records still knows every outcome, and
// its own retention cap holds from the start.
func TestRebuildRestoresCompactedVerdicts(t *testing.T) {
	const capN = 2
	net, store, _ := openDurable(t, 163, WithResolvedRetention(capN), WithWALOptions(wal.WithFsync(false), wal.WithSegmentBytes(256)))
	defer func() { store.Close(); net.Close() }()
	ctx := context.Background()
	for i := 1; i <= 8; i++ {
		if err := store.Run(ctx, func(tx *Txn) error { return tx.Write(ctx, "x", i) }); err != nil {
			t.Fatal(err)
		}
	}
	store.mu.Lock()
	peer := store.dms["dm1"].srv
	outcomes := map[TxnID]bool{}
	for tid, res := range peer.resolved {
		outcomes[tid] = res.committed
	}
	compacted := 0
	for _, w := range peer.verdicts.words() {
		for i := int64(0); i < 64; i++ {
			if w.Known&(1<<i) == 0 {
				continue
			}
			n := w.Block*64 + i
			if w.Block < 0 {
				n = -1
			}
			outcomes[joinTxnID(w.Prefix, n)] = w.Committed&(1<<i) != 0
			compacted++
		}
	}
	store.mu.Unlock()
	if compacted == 0 {
		t.Fatalf("no verdict compacted at dm1 (%d resolved, cap %d)", len(outcomes), capN)
	}

	dir := walPathOf(t, store, "dm0")
	if err := store.StopDM("dm0"); err != nil {
		t.Fatal(err)
	}
	if _, _, ok, err := wal.NewFaultFS(5).CorruptSegmentFrame(dir); err != nil || !ok {
		t.Fatalf("CorruptSegmentFrame: ok=%v err=%v", ok, err)
	}
	if _, err := store.RestartDM("dm0"); err != nil {
		t.Fatal(err)
	}
	rst, err := store.RebuildReplica(ctx, "dm0")
	if err != nil {
		t.Fatalf("rebuild: %v", err)
	}
	if rst.Resolved < len(outcomes) {
		t.Fatalf("rebuild restored %d outcomes, dm1 holds %d", rst.Resolved, len(outcomes))
	}
	store.mu.Lock()
	srv := store.dms["dm0"].srv
	full := len(srv.resolved)
	store.mu.Unlock()
	if full > capN {
		t.Fatalf("rebuilt replica holds %d full records, cap %d", full, capN)
	}
	for tid, committed := range outcomes {
		ans, err := store.ResolutionProbe(ctx, "dm0", tid)
		if err != nil {
			t.Fatal(err)
		}
		if !ans.Known || ans.Committed != committed {
			t.Fatalf("rebuilt dm0 answers %s with %+v, want committed=%v", tid, ans, committed)
		}
	}
}
